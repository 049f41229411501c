//! Optimistic admission over dependency closures: one
//! [`NetworkState`] behind a conflict log.
//!
//! A candidate only interacts with the slice of the network it shares
//! multiplexers with, so the sharded engine decides each arrival on a
//! small scoped copy of the admitted state and commits the outcome back
//! into the one shared state. [`ShardedState`] is that shared state: a
//! [`NetworkState`] plus the record that makes optimistic concurrency
//! sound — a version counter, a barrier, and a window of recent commit
//! footprints.
//!
//! A decision runs in three steps:
//!
//! 1. **Speculate** ([`ShardedState::speculate`]): read the candidate's
//!    *dependency closure* off the state's multiplexer-membership index
//!    — the least set of active connections containing every flow on
//!    the candidate's multiplexers and on its endpoint rings' uplinks
//!    and downlinks, closed under "shares a multiplexer with" — as a
//!    scoped [`NetworkState`], with its [`Footprint`]: the multiplexers
//!    it covers and the version it was read at.
//! 2. **Decide**: run the ordinary β-CAC admission on the scoped state.
//!    Decisions over the closure are *bit-identical* to decisions over
//!    the full state (the §12 argument in `DESIGN.md`): the closure
//!    carries every flow that contributes to any quantity the admission
//!    reads, in the same relative (id) order, so allocation-table sums,
//!    multiplexer aggregates, and existing-flow delay bounds come out to
//!    the same bits, and flows outside the closure are unaffected by the
//!    candidate and already feasible.
//! 3. **Commit** ([`ShardedState::commit_admit`]): re-validate the
//!    speculation ([`ShardedState::conflicts`] — any commit since the
//!    footprint's version touching one of its multiplexers invalidates
//!    it) and record it. Conflicted speculations are recomputed
//!    sequentially by the committer, so the committed decision stream
//!    is always the sequential one.
//!
//! Every mutation goes through this type, which logs it as it applies
//! it: admissions and departures log their multiplexers, and down-set
//! changes raise a *barrier* (every in-flight speculation conflicts),
//! because component health gates decisions globally.

use crate::cac::{ClosureCopy, NetworkState, TeardownReport};
use crate::connection::{ActiveConnection, ConnectionId, ConnectionSpec};
use crate::delay::MuxKey;
use crate::error::CacError;
use crate::incremental::hops_for;
use crate::network::{Component, HostId};
use crate::snapshot::StateSnapshot;
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_traffic::units::Seconds;
use std::collections::{BTreeSet, VecDeque};
use std::sync::RwLock;

/// Footprint-log entries kept before old versions become unverifiable
/// (speculations older than the log window conservatively conflict).
const LOG_WINDOW: usize = 1024;

/// One committed mutation's footprint, for conflict checks.
#[derive(Clone, Debug)]
struct LogEntry {
    version: u64,
    muxes: Vec<MuxKey>,
}

/// The admission state the sharded engine shares between its workers
/// and its committer: a [`NetworkState`] that only this type mutates,
/// plus the conflict log speculations validate against. Holds no
/// decision logic of its own.
#[derive(Debug)]
pub struct ShardedState {
    state: NetworkState,
    /// Bumped by every committed mutation.
    version: u64,
    /// Speculations read at a version below this always conflict (set
    /// by down-set changes, which gate decisions globally).
    barrier: u64,
    /// Recent commit footprints, ascending version.
    log: VecDeque<LogEntry>,
    /// Oldest version still verifiable through the log.
    log_floor: u64,
}

/// What a speculation read: the multiplexers its closure covers and the
/// version it read them at. Opaque across crates (multiplexer keys are
/// internal to the delay analysis).
#[derive(Clone, Debug)]
pub struct Footprint {
    version: u64,
    muxes: BTreeSet<MuxKey>,
}

impl Footprint {
    /// The version the speculation was read at.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl ShardedState {
    /// Shares `state` (fresh or restored) under an empty conflict log.
    #[must_use]
    pub fn new(state: NetworkState) -> Self {
        Self {
            state,
            version: 0,
            barrier: 0,
            log: VecDeque::new(),
            log_floor: 0,
        }
    }

    /// The shared admission state, read-only: every mutation must go
    /// through this type so that it is logged.
    #[must_use]
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// Reads the dependency closure of a `source → dest` candidate out
    /// of `shared` as a scoped state to decide on, with its footprint.
    /// The closure is seeded with the candidate's own multiplexers
    /// *plus* both endpoint rings' uplinks and downlinks, whose members
    /// hold the endpoint rings' allocation-table entries the admission
    /// reads. The read lock covers only copying the closure out; the
    /// scoped state is built after it is released, so the committer's
    /// writes wait on no state construction.
    ///
    /// # Errors
    ///
    /// Propagates routing errors for hosts whose rings are out of range
    /// or unrouted (the scoped admission would reject such a spec
    /// anyway).
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned (a thread panicked while
    /// mutating the state).
    pub fn speculate(
        shared: &RwLock<Self>,
        source: HostId,
        dest: HostId,
    ) -> Result<(NetworkState, Footprint), CacError> {
        let (copy, footprint) = shared
            .read()
            .expect("sharded state lock poisoned")
            .read_closure(source, dest)?;
        Ok((copy.into_state()?, footprint))
    }

    fn read_closure(
        &self,
        source: HostId,
        dest: HostId,
    ) -> Result<(ClosureCopy, Footprint), CacError> {
        let mut seeds = hops_for(self.state.network(), source, dest)?;
        seeds.extend([
            MuxKey::Uplink(source.ring),
            MuxKey::Downlink(source.ring),
            MuxKey::Uplink(dest.ring),
            MuxKey::Downlink(dest.ring),
        ]);
        let (copy, muxes) = self.state.read_closure(seeds);
        let footprint = Footprint {
            version: self.version,
            muxes,
        };
        Ok((copy, footprint))
    }

    /// Whether a speculation with this footprint has been invalidated:
    /// a barrier (down-set change) was raised since it was read, its
    /// version has aged out of the log, or some commit since touched a
    /// multiplexer in it.
    #[must_use]
    pub fn conflicts(&self, footprint: &Footprint) -> bool {
        let version = footprint.version;
        if version < self.barrier || version < self.log_floor {
            return true;
        }
        self.log
            .iter()
            .rev()
            .take_while(|e| e.version > version)
            .any(|e| e.muxes.iter().any(|m| footprint.muxes.contains(m)))
    }

    /// Commits an admitted decision at the id the sequential state
    /// would assign, logging its multiplexers.
    ///
    /// # Errors
    ///
    /// Propagates routing and allocation errors (impossible for a spec
    /// that was just decided against the same state).
    pub fn commit_admit(
        &mut self,
        spec: &ConnectionSpec,
        h_s: SyncBandwidth,
        h_r: SyncBandwidth,
        delay_bound: Seconds,
    ) -> Result<ConnectionId, CacError> {
        let id = self.state.commit(spec.clone(), h_s, h_r, delay_bound)?;
        self.log(self.state.hops_of(id).to_vec());
        Ok(id)
    }

    /// Tears down an active connection, logging its multiplexers, and
    /// returns it.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::UnknownConnection`] if `id` is not active.
    pub fn release(&mut self, id: ConnectionId) -> Result<ActiveConnection, CacError> {
        let muxes = self.state.hops_of(id).to_vec();
        let conn = self.state.remove(id)?;
        self.log(muxes);
        Ok(conn)
    }

    /// Marks a component as failed ([`NetworkState::set_component_down`])
    /// and, if it was up, raises the barrier.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidNetwork`] for a component outside
    /// this topology.
    pub fn set_component_down(&mut self, component: Component) -> Result<TeardownReport, CacError> {
        let report = self.state.set_component_down(component)?;
        if !report.already_down {
            self.raise_barrier();
        }
        Ok(report)
    }

    /// Restores a failed component ([`NetworkState::set_component_up`])
    /// and, if it was down, raises the barrier: the repair may flip
    /// in-flight `ComponentUnavailable` outcomes. Returns whether it
    /// was down.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidNetwork`] for a component outside
    /// this topology.
    pub fn set_component_up(&mut self, component: Component) -> Result<bool, CacError> {
        let was_down = self.state.set_component_up(component)?;
        if was_down {
            self.raise_barrier();
        }
        Ok(was_down)
    }

    /// The state's snapshot, stamped with the engine's `clock` and
    /// `decision_seq` (the committer, not the shared state, counts
    /// decisions).
    #[must_use]
    pub fn snapshot(&self, clock: Seconds, decision_seq: u64) -> StateSnapshot {
        StateSnapshot {
            clock,
            decision_seq,
            ..self.state.snapshot()
        }
    }

    fn log(&mut self, muxes: Vec<MuxKey>) {
        self.version += 1;
        self.log.push_back(LogEntry {
            version: self.version,
            muxes,
        });
        while self.log.len() > LOG_WINDOW {
            let dropped = self.log.pop_front().expect("log non-empty");
            self.log_floor = dropped.version;
        }
    }

    fn raise_barrier(&mut self) {
        self.version += 1;
        self.barrier = self.version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cac::{AdmissionOptions, CacConfig, Decision};
    use crate::network::{HetNetwork, RingId};
    use hetnet_traffic::models::ConstantRateEnvelope;
    use hetnet_traffic::units::BitsPerSec;
    use std::sync::Arc;

    fn spec(source: (usize, usize), dest: (usize, usize), mbps: f64) -> ConnectionSpec {
        ConnectionSpec::builder()
            .source(source)
            .dest(dest)
            .envelope(Arc::new(ConstantRateEnvelope::new(BitsPerSec::from_mbps(
                mbps,
            ))))
            .deadline(Seconds::from_millis(80.0))
            .build()
            .unwrap()
    }

    fn sync(ms: f64) -> SyncBandwidth {
        SyncBandwidth::new(Seconds::from_millis(ms))
    }

    fn host(ring: usize, station: usize) -> HostId {
        HostId { ring, station }
    }

    /// [`ShardedState::speculate`] without the lock: the same copy,
    /// then the same build.
    fn speculate(
        sharded: &ShardedState,
        source: HostId,
        dest: HostId,
    ) -> (NetworkState, Footprint) {
        let (copy, footprint) = sharded.read_closure(source, dest).unwrap();
        (copy.into_state().unwrap(), footprint)
    }

    /// Admits `specs` in order through both a flat state and the
    /// speculate/decide/commit path, asserting every decision matches
    /// bitwise, and returns both ending states.
    fn run_both(
        net: HetNetwork,
        specs: &[ConnectionSpec],
    ) -> (NetworkState, ShardedState, Vec<Decision>) {
        let mut flat = NetworkState::new(net);
        let mut sharded =
            ShardedState::new(NetworkState::new_shared(Arc::clone(flat.shared_network())));
        let opts = AdmissionOptions::beta_search(CacConfig::default());
        let mut decisions = Vec::new();
        for s in specs {
            let flat_decision = flat.admit(s.clone(), &opts).unwrap();
            let (mut scoped, _) = speculate(&sharded, s.source, s.dest);
            let scoped_decision = scoped.admit(s.clone(), &opts).unwrap();
            match (&flat_decision, &scoped_decision) {
                (
                    Decision::Admitted {
                        id: fid,
                        h_s: fs,
                        h_r: fr,
                        delay_bound: fb,
                    },
                    Decision::Admitted {
                        id: sid,
                        h_s: ss,
                        h_r: sr,
                        delay_bound: sb,
                    },
                ) => {
                    assert_eq!(fid, sid);
                    assert_eq!(
                        fs.per_rotation().value().to_bits(),
                        ss.per_rotation().value().to_bits()
                    );
                    assert_eq!(
                        fr.per_rotation().value().to_bits(),
                        sr.per_rotation().value().to_bits()
                    );
                    assert_eq!(fb.value().to_bits(), sb.value().to_bits());
                    assert_eq!(sharded.commit_admit(s, *ss, *sr, *sb).unwrap(), *fid);
                }
                (Decision::Rejected(f), Decision::Rejected(g)) => {
                    assert_eq!(f.to_string(), g.to_string());
                }
                other => panic!("decisions diverge: {other:?}"),
            }
            decisions.push(flat_decision);
        }
        (flat, sharded, decisions)
    }

    #[test]
    fn scoped_decisions_match_flat_state_bitwise() {
        let net = HetNetwork::paper_topology();
        let rings = net.rings().len();
        let mut specs = Vec::new();
        for i in 0..24 {
            let s = i % rings;
            let d = (i + 1 + i / rings) % rings;
            if s == d {
                continue;
            }
            specs.push(spec(
                (s, i % 4),
                (d, (i + 2) % 4),
                6.0 + (i % 5) as f64 * 3.0,
            ));
        }
        let (flat, sharded, decisions) = run_both(net, &specs);
        assert!(decisions.iter().any(Decision::is_admitted));
        let seq = flat.decisions();
        assert_eq!(
            flat.snapshot().to_json(),
            sharded.snapshot(flat.clock(), seq).to_json(),
            "committed sharded state must equal the flat snapshot"
        );
    }

    #[test]
    fn closure_excludes_unrelated_ring_pairs() {
        // grid(4, ..) routes 0↔1 and 2↔3 over disjoint links, so the
        // two pairs share no multiplexer and each closure sees only its
        // own pair's flows.
        let net = HetNetwork::grid(4, 4);
        let mut sharded = ShardedState::new(NetworkState::new(net));
        for (s, d) in [(0usize, 1usize), (2, 3), (0, 1), (3, 2)] {
            let sp = spec((s, 0), (d, 1), 5.0);
            sharded
                .commit_admit(&sp, sync(0.5), sync(0.5), Seconds::from_millis(10.0))
                .unwrap();
        }
        let (view, _) = speculate(&sharded, host(0, 2), host(1, 3));
        let ids: Vec<u64> = view.active().iter().map(|c| c.id.0).collect();
        assert_eq!(ids, [0, 2], "only the 0↔1 flows are dependencies");
        let (other, _) = speculate(&sharded, host(2, 2), host(3, 3));
        let ids: Vec<u64> = other.active().iter().map(|c| c.id.0).collect();
        assert_eq!(ids, [1, 3], "only the 2↔3 flows are dependencies");
        // The scoped state carries the id counter and reads the same
        // endpoint-ring budgets as the full state.
        assert_eq!(view.snapshot().next_id, 4);
        for ring in 0..2 {
            assert_eq!(
                view.available_on(ring).value().to_bits(),
                sharded.state().available_on(ring).value().to_bits()
            );
        }
    }

    #[test]
    fn conflicts_track_footprint_intersection_and_barriers() {
        let net = HetNetwork::grid(4, 4);
        let mut sharded = ShardedState::new(NetworkState::new(net));
        let (_, fp) = speculate(&sharded, host(0, 0), host(1, 0));
        assert!(!sharded.conflicts(&fp), "nothing committed yet");

        // A disjoint commit (2→3) does not invalidate a 0→1 speculation.
        sharded
            .commit_admit(
                &spec((2, 0), (3, 0), 5.0),
                sync(0.4),
                sync(0.4),
                Seconds::from_millis(9.0),
            )
            .unwrap();
        assert!(!sharded.conflicts(&fp));

        // An overlapping commit (0→1) does.
        let id = sharded
            .commit_admit(
                &spec((0, 1), (1, 1), 5.0),
                sync(0.4),
                sync(0.4),
                Seconds::from_millis(9.0),
            )
            .unwrap();
        assert!(sharded.conflicts(&fp));

        // So does a departure from the footprint.
        let (_, before_release) = speculate(&sharded, host(0, 2), host(1, 2));
        sharded.release(id).unwrap();
        assert!(sharded.conflicts(&before_release));
        assert!(sharded.release(id).is_err(), "double release errors");

        // Down-set changes are a barrier: every older speculation dies.
        let (_, fresh) = speculate(&sharded, host(2, 1), host(3, 1));
        assert!(!sharded.conflicts(&fresh));
        sharded
            .set_component_down(Component::Ring(RingId(0)))
            .unwrap();
        assert!(sharded.conflicts(&fresh));
        let (_, after_down) = speculate(&sharded, host(2, 1), host(3, 1));
        sharded
            .set_component_up(Component::Ring(RingId(0)))
            .unwrap();
        assert!(sharded.conflicts(&after_down));
        // A repeated restore changes nothing and raises no barrier.
        let (_, settled) = speculate(&sharded, host(2, 1), host(3, 1));
        assert!(!sharded
            .set_component_up(Component::Ring(RingId(0)))
            .unwrap());
        assert!(!sharded.conflicts(&settled));
    }

    #[test]
    fn release_and_teardown_match_the_flat_state() {
        let net = HetNetwork::paper_topology();
        let specs: Vec<ConnectionSpec> = (0..8)
            .map(|i| spec((i % 3, i % 3), ((i + 1) % 3, (i + 2) % 3), 8.0))
            .collect();
        let (mut flat, mut sharded, decisions) = run_both(net, &specs);
        let admitted: Vec<ConnectionId> = decisions
            .iter()
            .filter_map(|d| match d {
                Decision::Admitted { id, .. } => Some(*id),
                Decision::Rejected(_) => None,
            })
            .collect();
        assert!(admitted.len() >= 3, "need a few admissions: {decisions:?}");

        flat.release(admitted[0]).unwrap();
        sharded.release(admitted[0]).unwrap();

        let fr = flat.set_component_down(Component::Ring(RingId(1))).unwrap();
        let sr = sharded
            .set_component_down(Component::Ring(RingId(1)))
            .unwrap();
        assert_eq!(fr.already_down, sr.already_down);
        assert_eq!(
            fr.torn.iter().map(|c| c.id).collect::<Vec<_>>(),
            sr.torn.iter().map(|c| c.id).collect::<Vec<_>>()
        );
        assert_eq!(
            fr.reclaimed_s.value().to_bits(),
            sr.reclaimed_s.value().to_bits()
        );
        assert_eq!(
            fr.reclaimed_r.value().to_bits(),
            sr.reclaimed_r.value().to_bits()
        );

        flat.set_component_up(Component::Ring(RingId(1))).unwrap();
        sharded
            .set_component_up(Component::Ring(RingId(1)))
            .unwrap();
        assert_eq!(
            flat.snapshot().to_json(),
            sharded.snapshot(flat.clock(), flat.decisions()).to_json()
        );
    }
}
