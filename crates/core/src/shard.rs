//! Optimistic admission over dependency closures: one
//! [`NetworkState`] behind a conflict log.
//!
//! A candidate only interacts with the slice of the network it shares
//! multiplexers with, so the sharded engine decides each arrival on a
//! small scoped copy of the admitted state and commits the outcome back
//! into the one shared state. [`ShardedState`] is that shared state: a
//! [`NetworkState`] and the admission options in force, plus the record
//! that makes optimistic concurrency sound — a version counter, a
//! barrier, and a window of recent commit footprints. The sequential
//! engine owns one too and decides on it in place; it just never reads
//! the log.
//!
//! A speculated decision runs in three steps:
//!
//! 1. **Speculate** ([`ShardedState::speculate`]): read the candidate's
//!    *dependency closure* off the state's multiplexer-membership index
//!    — the least set of active connections containing every flow on
//!    the candidate's multiplexers and on its endpoint rings' uplinks
//!    and downlinks, closed under "shares a multiplexer with" — as a
//!    scoped [`NetworkState`], with the options in force and its
//!    [`Footprint`]: the multiplexers it covers and the version it was
//!    read at.
//! 2. **Decide**: run the ordinary β-CAC admission on the scoped state.
//!    Decisions over the closure are *bit-identical* to decisions over
//!    the full state (the §12 argument in `DESIGN.md`): the closure
//!    carries every flow that contributes to any quantity the admission
//!    reads, in the same relative (id) order, so allocation-table sums,
//!    multiplexer aggregates, and existing-flow delay bounds come out to
//!    the same bits, and flows outside the closure are unaffected by the
//!    candidate and already feasible.
//! 3. **Commit** ([`ShardedState::commit`]): re-validate the
//!    speculation ([`ShardedState::conflicts`] — any commit since the
//!    footprint's version touching one of its multiplexers invalidates
//!    it) and record it. Conflicted speculations are decided again in
//!    place ([`ShardedState::admit`]), so the committed decision stream
//!    is always the sequential one.
//!
//! Every mutation goes through this type, which logs it as it applies
//! it: admissions and departures log their multiplexers, and down-set
//! changes and reconfigurations raise a *barrier* (every in-flight
//! speculation conflicts), because component health, ring parameters
//! and β gate decisions globally.

use crate::cac::{AdmissionOptions, ClosureCopy, Decision, NetworkState, TeardownReport};
use crate::connection::{ActiveConnection, ConnectionId, ConnectionSpec};
use crate::delay::MuxKey;
use crate::error::CacError;
use crate::incremental::hops_for;
use crate::network::{Component, HostId};
use crate::reconfig::{ReconfigPlan, ReconfigReport};
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

/// The admission state both engines decide against: a
/// [`NetworkState`] that only this type mutates, the admission options
/// in force, and the conflict log speculations validate against. Holds
/// no decision logic of its own.
#[derive(Debug)]
pub struct ShardedState {
    state: NetworkState,
    /// The run's options with every applied plan's β folded in. A
    /// speculation reads them under the same lock as its closure, so it
    /// can never decide under a β the committed state has left behind.
    options: AdmissionOptions,
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
    /// Shares `state` (fresh or restored), decided under `options`,
    /// with an empty conflict log.
    #[must_use]
    pub fn new(state: NetworkState, options: AdmissionOptions) -> Self {
        Self {
            state,
            options,
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

    /// The shared admission state, released from the conflict log.
    #[must_use]
    pub fn into_state(self) -> NetworkState {
        self.state
    }

    /// The version the next speculation would read at (bumped by
    /// every committed mutation).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Reads the dependency closure of a `source → dest` candidate out
    /// of `shared` as a scoped state to decide on, with the options in
    /// force and its footprint. The closure is seeded with the
    /// candidate's own multiplexers
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
    ) -> Result<(NetworkState, AdmissionOptions, Footprint), CacError> {
        let (copy, options, footprint) = {
            let guard = shared.read().expect("sharded state lock poisoned");
            let (copy, footprint) = guard.read_closure(source, dest)?;
            (copy, guard.options.clone(), footprint)
        };
        Ok((copy.into_state()?, options, footprint))
    }

    fn read_closure(
        &self,
        source: HostId,
        dest: HostId,
    ) -> Result<(ClosureCopy, Footprint), CacError> {
        let (copy, muxes) = self
            .state
            .read_closure(Self::seeds(&self.state, source, dest)?);
        let footprint = Footprint {
            version: self.version,
            muxes,
        };
        Ok((copy, footprint))
    }

    /// The number of connections a speculation on `source → dest`
    /// would read, without copying them.
    ///
    /// # Errors
    ///
    /// As for [`ShardedState::speculate`].
    pub fn closure_len(&self, source: HostId, dest: HostId) -> Result<usize, CacError> {
        Ok(self
            .state
            .closure_len(Self::seeds(&self.state, source, dest)?))
    }

    /// A closure's seeds: the candidate's multiplexers plus both
    /// endpoint rings' uplinks and downlinks.
    fn seeds(state: &NetworkState, source: HostId, dest: HostId) -> Result<Vec<MuxKey>, CacError> {
        let mut seeds = hops_for(state.network(), source, dest)?;
        seeds.extend([
            MuxKey::Uplink(source.ring),
            MuxKey::Downlink(source.ring),
            MuxKey::Uplink(dest.ring),
            MuxKey::Downlink(dest.ring),
        ]);
        Ok(seeds)
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

    /// Sets the logical clock stamped onto decisions, checkpoints and
    /// snapshots.
    pub fn set_clock(&mut self, now: Seconds) {
        self.state.set_clock(now);
    }

    /// Decides `spec` in place under the options in force (see
    /// [`NetworkState::admit`]), logging an admission's multiplexers.
    ///
    /// # Errors
    ///
    /// As for [`NetworkState::admit`].
    pub fn admit(&mut self, spec: ConnectionSpec) -> Result<Decision, CacError> {
        let decision = self.state.admit(spec, &self.options)?;
        if let Decision::Admitted { id, .. } = decision {
            self.log(self.state.hops_of(id).to_vec());
        }
        Ok(decision)
    }

    /// Commits a decision speculated over a closure of this state and
    /// counts it: an admission is recorded at the id the sequential
    /// state would assign (returned in the committed decision) and its
    /// multiplexers are logged; a rejection only consumes its sequence
    /// number.
    ///
    /// # Errors
    ///
    /// Propagates routing and allocation errors (impossible for a spec
    /// that was just decided against the same state).
    pub fn commit(
        &mut self,
        spec: &ConnectionSpec,
        decision: Decision,
    ) -> Result<Decision, CacError> {
        let decision = match decision {
            Decision::Admitted {
                h_s,
                h_r,
                delay_bound,
                ..
            } => {
                let id = self.state.commit(spec.clone(), h_s, h_r, delay_bound)?;
                self.log(self.state.hops_of(id).to_vec());
                Decision::Admitted {
                    id,
                    h_s,
                    h_r,
                    delay_bound,
                }
            }
            rejected @ Decision::Rejected(_) => rejected,
        };
        self.state.count_decision();
        Ok(decision)
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

    /// Applies a live reconfiguration under the options in force
    /// ([`NetworkState::reconfigure`]), folds the plan's β into them for
    /// every later decision, and raises the barrier: every speculation
    /// read before it saw the old ring parameters and β.
    ///
    /// # Errors
    ///
    /// As for [`NetworkState::reconfigure`].
    pub fn reconfigure(&mut self, plan: &ReconfigPlan) -> Result<ReconfigReport, CacError> {
        let report = self.state.reconfigure(plan, &self.options)?;
        if let Some(beta) = plan.beta {
            self.options.cac.beta = beta;
        }
        self.raise_barrier();
        Ok(report)
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
    use crate::cac::CacConfig;
    use crate::network::{HetNetwork, RingId};
    use hetnet_fddi::ring::SyncBandwidth;
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

    /// Commits an admission decided elsewhere and returns its id.
    fn commit_admit(
        sharded: &mut ShardedState,
        spec: &ConnectionSpec,
        h_s: SyncBandwidth,
        h_r: SyncBandwidth,
        delay_bound: Seconds,
    ) -> ConnectionId {
        let speculated = Decision::Admitted {
            id: ConnectionId(u64::MAX),
            h_s,
            h_r,
            delay_bound,
        };
        match sharded.commit(spec, speculated).unwrap() {
            Decision::Admitted { id, .. } => id,
            Decision::Rejected(r) => panic!("commit turned an admission into {r}"),
        }
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
        let opts = AdmissionOptions::beta_search(CacConfig::default());
        let mut sharded = ShardedState::new(
            NetworkState::new_shared(Arc::clone(flat.shared_network())),
            opts.clone(),
        );
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
                    assert_eq!(commit_admit(&mut sharded, s, *ss, *sr, *sb), *fid);
                }
                (Decision::Rejected(f), Decision::Rejected(g)) => {
                    assert_eq!(f.to_string(), g.to_string());
                    let committed = sharded.commit(s, scoped_decision.clone()).unwrap();
                    assert!(!committed.is_admitted());
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
        assert_eq!(
            flat.snapshot().to_json(),
            sharded.state().snapshot().to_json(),
            "committed sharded state must equal the flat snapshot"
        );
    }

    #[test]
    fn closure_excludes_unrelated_ring_pairs() {
        // grid(4, ..) routes 0↔1 and 2↔3 over disjoint links, so the
        // two pairs share no multiplexer and each closure sees only its
        // own pair's flows.
        let net = HetNetwork::grid(4, 4);
        let mut sharded = ShardedState::new(NetworkState::new(net), AdmissionOptions::default());
        for (s, d) in [(0usize, 1usize), (2, 3), (0, 1), (3, 2)] {
            let sp = spec((s, 0), (d, 1), 5.0);
            commit_admit(
                &mut sharded,
                &sp,
                sync(0.5),
                sync(0.5),
                Seconds::from_millis(10.0),
            );
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
    fn reconfigure_raises_the_barrier_and_folds_beta() {
        let net = HetNetwork::grid(4, 4);
        let options = AdmissionOptions::beta_search(CacConfig::default().with_beta(0.0));
        let mut sharded = ShardedState::new(NetworkState::new(net), options);
        let (_, before) = speculate(&sharded, host(0, 0), host(1, 0));
        let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(6.0)).with_beta(0.25);
        sharded.reconfigure(&plan).unwrap();
        assert!(
            sharded.conflicts(&before),
            "a speculation read before a reconfiguration must conflict"
        );
        // A speculation read after it does not conflict, so it must
        // carry the new β and the retuned rings.
        let retuned = Arc::clone(sharded.state().shared_network());
        let shared = RwLock::new(sharded);
        let (view, options, after) =
            ShardedState::speculate(&shared, host(0, 0), host(1, 0)).unwrap();
        assert!(!shared.read().unwrap().conflicts(&after));
        assert_eq!(options.cac.beta.to_bits(), 0.25f64.to_bits());
        assert!(Arc::ptr_eq(view.shared_network(), &retuned));
    }

    #[test]
    fn conflicts_track_footprint_intersection_and_barriers() {
        let net = HetNetwork::grid(4, 4);
        let mut sharded = ShardedState::new(NetworkState::new(net), AdmissionOptions::default());
        let (_, fp) = speculate(&sharded, host(0, 0), host(1, 0));
        assert!(!sharded.conflicts(&fp), "nothing committed yet");

        // A disjoint commit (2→3) does not invalidate a 0→1 speculation.
        commit_admit(
            &mut sharded,
            &spec((2, 0), (3, 0), 5.0),
            sync(0.4),
            sync(0.4),
            Seconds::from_millis(9.0),
        );
        assert!(!sharded.conflicts(&fp));

        // An overlapping commit (0→1) does.
        let id = commit_admit(
            &mut sharded,
            &spec((0, 1), (1, 1), 5.0),
            sync(0.4),
            sync(0.4),
            Seconds::from_millis(9.0),
        );
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
            sharded.state().snapshot().to_json()
        );
    }
}
