//! Ring-partitioned admission state behind a backbone ledger.
//!
//! [`crate::cac::NetworkState`] keeps one flat connection vector and
//! recomputes against all of it; at hundreds of rings and 10⁵ live
//! connections that flat view is the bottleneck — every decision pays
//! O(active) even though a candidate only interacts with the small
//! slice of the network it shares multiplexers with. This module
//! partitions the same state *by source ring* ([`ShardedState`]): each
//! ring shard owns the connections sourced on it, and a shared
//! **backbone ledger** owns the cross-ring coupling — which flows cross
//! which ATM multiplexers — plus a version counter and a footprint log
//! that make optimistic concurrency possible.
//!
//! A decision runs in three steps:
//!
//! 1. **Speculate** ([`ShardedState::speculate`]): extract the
//!    candidate's *dependency closure* — the least set of active
//!    connections containing every flow on the candidate's endpoint
//!    rings and closed under "shares a multiplexer with" — together
//!    with the ledger version it was read at.
//! 2. **Decide** ([`Speculation::state`]): build a scoped
//!    [`NetworkState`] over just that closure and run the ordinary
//!    β-CAC admission on it. Decisions over the closure are
//!    *bit-identical* to decisions over the full state (the §12
//!    argument in `DESIGN.md`): the closure carries every flow that
//!    contributes to any quantity the admission reads, in the same
//!    relative (id) order, so allocation-table sums, multiplexer
//!    aggregates, and existing-flow delay bounds come out to the same
//!    bits, and flows outside the closure are unaffected by the
//!    candidate and already feasible.
//! 3. **Commit** ([`ShardedState::commit_admit`]): re-validate the
//!    speculation against the ledger ([`ShardedState::conflicts`] — any
//!    committed footprint since the speculation's version intersecting
//!    its closure invalidates it) and apply it. Conflicted speculations
//!    are recomputed sequentially by the committer, so the committed
//!    decision stream is always the sequential one.
//!
//! Departures and faults mutate through the same ledger
//! ([`ShardedState::release`], [`ShardedState::set_component_down`]);
//! down-set changes act as a *barrier* (every in-flight speculation
//! conflicts), because component health gates decisions globally.
//!
//! [`ShardedState::cut`] captures the partitioned state as per-shard
//! snapshots plus a consistent ledger cut, and
//! [`ShardedCut::to_snapshot`] merges them into the ordinary
//! [`StateSnapshot`] form — equal, string for string, to the snapshot
//! the flat state would produce.

use crate::cac::{NetworkState, TeardownReport};
use crate::connection::{ActiveConnection, ConnectionId, ConnectionSpec};
use crate::delay::MuxKey;
use crate::error::CacError;
use crate::incremental::hops_for;
use crate::network::{Component, HetNetwork, HostId};
use crate::snapshot::{ConnectionSnapshot, StateSnapshot, SNAPSHOT_VERSION};
use hetnet_fddi::ring::RingConfig;
use hetnet_traffic::units::Seconds;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Footprint-log entries kept before old versions become unverifiable
/// (speculations older than the log window conservatively conflict).
const LOG_WINDOW: usize = 1024;

/// One ring's shard: the connections sourced on that ring, by id.
#[derive(Clone, Debug, Default)]
struct RingShard {
    sourced: BTreeMap<u64, ActiveConnection>,
}

/// A flow's entry in the backbone ledger.
#[derive(Clone, Debug)]
struct FlowEntry {
    source_ring: usize,
    dest_ring: usize,
    hops: Vec<MuxKey>,
}

/// One committed mutation's footprint, for conflict checks.
#[derive(Clone, Debug)]
struct LogEntry {
    version: u64,
    muxes: Vec<MuxKey>,
}

/// The shared, versioned record of cross-ring coupling: which flows
/// cross which multiplexers, plus the commit log speculations validate
/// against.
#[derive(Clone, Debug, Default)]
struct BackboneLedger {
    /// Multiplexer → member flow ids, ascending.
    servers: BTreeMap<MuxKey, Vec<u64>>,
    /// Flow id → its shard and multiplexer footprint.
    flows: BTreeMap<u64, FlowEntry>,
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

impl BackboneLedger {
    fn bump(&mut self, muxes: Vec<MuxKey>) {
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

/// The dependency closure of a set of seed multiplexers: the least set
/// of flows containing every member of every seed and closed under
/// "shares a multiplexer with", together with every multiplexer those
/// flows cross. Computed to a fixpoint from a mux → members map
/// (`members`) and a flow → hops map (`hops`); flows come back in
/// ascending order.
///
/// Both admission states decide over such a closure: the sharded
/// engine's speculations read one off the backbone ledger, and
/// [`NetworkState`]'s untraced admissions off a transient map of their
/// active set. Over a closure every multiplexer a candidate reaches has
/// its full member set, with the members' upstream hops resolved in
/// turn, so its analyses come out to the same bits as over the full
/// state (DESIGN.md §12).
pub(crate) fn dependency_closure<'a, F: Ord + Copy + 'a>(
    seeds: impl IntoIterator<Item = MuxKey>,
    members: impl Fn(MuxKey) -> &'a [F],
    hops: impl Fn(F) -> &'a [MuxKey],
) -> (BTreeSet<MuxKey>, BTreeSet<F>) {
    let mut muxes: BTreeSet<MuxKey> = BTreeSet::new();
    let mut frontier: Vec<MuxKey> = seeds.into_iter().filter(|&k| muxes.insert(k)).collect();
    let mut flows: BTreeSet<F> = BTreeSet::new();
    while let Some(key) = frontier.pop() {
        for &flow in members(key) {
            if !flows.insert(flow) {
                continue;
            }
            for &hop in hops(flow) {
                if muxes.insert(hop) {
                    frontier.push(hop);
                }
            }
        }
    }
    (muxes, flows)
}

/// The admission state of [`crate::cac::NetworkState`], partitioned by
/// source ring behind a backbone ledger. Holds no decision logic of its
/// own: decisions run on scoped [`NetworkState`]s built from
/// [`Speculation`]s, and this type guarantees that what those scoped
/// states compute is what the flat sequential state would have
/// computed.
#[derive(Clone, Debug)]
pub struct ShardedState {
    net: Arc<HetNetwork>,
    shards: Vec<RingShard>,
    ledger: BackboneLedger,
    next_id: u64,
    down: BTreeSet<Component>,
}

/// A candidate's dependency closure, read at a ledger version: the
/// inputs of one optimistic admission decision.
#[derive(Clone, Debug)]
pub struct Speculation {
    net: Arc<HetNetwork>,
    /// Ledger version the closure was read at.
    pub version: u64,
    /// The id an admission committed from this speculation would get if
    /// no commit intervenes (the committer reassigns on conflict-free
    /// commit anyway; decisions never depend on the candidate's own
    /// id).
    pub next_id: u64,
    connections: Vec<ActiveConnection>,
    down: BTreeSet<Component>,
    muxes: BTreeSet<MuxKey>,
}

/// An opaque multiplexer footprint, for conflict checks across crate
/// boundaries (multiplexer keys are internal to the delay analysis).
#[derive(Clone, Debug)]
pub struct Footprint(BTreeSet<MuxKey>);

impl Speculation {
    /// Builds the scoped [`NetworkState`] this speculation decides on:
    /// exactly the closure's connections over the shared topology, with
    /// the down set and id counter carried from the read.
    ///
    /// # Errors
    ///
    /// Propagates [`CacError::SnapshotMismatch`] from
    /// [`NetworkState::scoped`] (impossible unless the partitioned
    /// state is corrupt).
    pub fn state(&self) -> Result<NetworkState, CacError> {
        NetworkState::scoped(
            Arc::clone(&self.net),
            self.connections.clone(),
            self.down.clone(),
            self.next_id,
        )
    }

    /// Number of connections in the closure (what the decision's cost
    /// scales with, instead of the global active count).
    #[must_use]
    pub fn closure_len(&self) -> usize {
        self.connections.len()
    }

    /// The multiplexer footprint commits are validated against.
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        Footprint(self.muxes.clone())
    }
}

impl ShardedState {
    /// An empty partitioned state over a shared topology.
    #[must_use]
    pub fn new(net: Arc<HetNetwork>) -> Self {
        let shards = vec![RingShard::default(); net.rings().len()];
        Self {
            net,
            shards,
            ledger: BackboneLedger::default(),
            next_id: 0,
            down: BTreeSet::new(),
        }
    }

    /// The shared topology handle.
    #[must_use]
    pub fn net(&self) -> &Arc<HetNetwork> {
        &self.net
    }

    /// Current ledger version (bumped by every committed mutation).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.ledger.version
    }

    /// The next connection id a commit would assign.
    #[must_use]
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Number of active connections across all shards.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.ledger.flows.len()
    }

    /// The components currently marked down, in sorted order.
    #[must_use]
    pub fn down_components(&self) -> Vec<Component> {
        self.down.iter().copied().collect()
    }

    /// Iterates every active connection in id (= admission) order,
    /// crossing shards through the ledger's flow index.
    pub fn active_iter(&self) -> impl Iterator<Item = &ActiveConnection> {
        self.ledger.flows.iter().map(|(id, flow)| {
            self.shards[flow.source_ring]
                .sourced
                .get(id)
                .expect("ledger flow present in its source shard")
        })
    }

    /// Extracts the dependency closure of a `source → dest` candidate:
    /// starting from the candidate's own multiplexers *plus* both
    /// endpoint rings' uplink and downlink multiplexers (whose member
    /// flows share the endpoint rings' allocation tables with the
    /// candidate), repeatedly adds every member flow of every reached
    /// multiplexer and every multiplexer of every added flow, to a
    /// fixpoint. The result is returned in id order with the ledger
    /// version it was read at.
    ///
    /// # Errors
    ///
    /// Propagates routing errors for hosts whose rings are out of range
    /// or unrouted (the scoped admission would reject such a spec
    /// anyway).
    pub fn speculate(&self, source: HostId, dest: HostId) -> Result<Speculation, CacError> {
        let mut muxes = hops_for(&self.net, source, dest)?;
        muxes.push(MuxKey::Uplink(source.ring));
        muxes.push(MuxKey::Downlink(source.ring));
        muxes.push(MuxKey::Uplink(dest.ring));
        muxes.push(MuxKey::Downlink(dest.ring));
        let (muxes, ids) = dependency_closure(
            muxes,
            |key| self.ledger.servers.get(&key).map_or(&[][..], Vec::as_slice),
            |id| &self.ledger.flows[&id].hops,
        );
        let connections = ids
            .iter()
            .map(|id| {
                let ring = self.ledger.flows[id].source_ring;
                self.shards[ring].sourced[id].clone()
            })
            .collect();
        Ok(Speculation {
            net: Arc::clone(&self.net),
            version: self.ledger.version,
            next_id: self.next_id,
            connections,
            down: self.down.clone(),
            muxes,
        })
    }

    /// Whether a speculation read at `version` with this footprint has
    /// been invalidated: a barrier (down-set change) was raised since,
    /// the version has aged out of the footprint log, or some committed
    /// mutation since touched a multiplexer in the footprint.
    #[must_use]
    pub fn conflicts(&self, version: u64, footprint: &Footprint) -> bool {
        let ledger = &self.ledger;
        if version < ledger.barrier || version < ledger.log_floor {
            return true;
        }
        ledger
            .log
            .iter()
            .rev()
            .take_while(|e| e.version > version)
            .any(|e| e.muxes.iter().any(|m| footprint.0.contains(m)))
    }

    /// Commits an admitted decision: assigns the id the sequential
    /// state would assign, stores the connection in its source-ring
    /// shard, registers its multiplexer memberships in the ledger, and
    /// logs the footprint for conflict checks.
    ///
    /// # Errors
    ///
    /// Propagates routing errors (impossible for a spec that was just
    /// decided over the same topology).
    pub fn commit_admit(
        &mut self,
        spec: &ConnectionSpec,
        h_s: hetnet_fddi::ring::SyncBandwidth,
        h_r: hetnet_fddi::ring::SyncBandwidth,
        delay_bound: Seconds,
    ) -> Result<ConnectionId, CacError> {
        let id = ConnectionId(self.next_id);
        self.next_id += 1;
        let hops = hops_for(&self.net, spec.source, spec.dest)?;
        for key in &hops {
            let members = self.ledger.servers.entry(*key).or_default();
            let pos = members.partition_point(|&m| m < id.0);
            members.insert(pos, id.0);
        }
        self.ledger.flows.insert(
            id.0,
            FlowEntry {
                source_ring: spec.source.ring,
                dest_ring: spec.dest.ring,
                hops: hops.clone(),
            },
        );
        self.shards[spec.source.ring].sourced.insert(
            id.0,
            ActiveConnection {
                id,
                spec: spec.clone(),
                h_s,
                h_r,
                delay_bound,
            },
        );
        self.ledger.bump(hops);
        Ok(id)
    }

    /// Tears down an active connection, removing it from its shard and
    /// the ledger and logging its footprint. Mirrors
    /// [`NetworkState::release`].
    ///
    /// # Errors
    ///
    /// Returns [`CacError::UnknownConnection`] if `id` is not active.
    pub fn release(&mut self, id: ConnectionId) -> Result<ActiveConnection, CacError> {
        let flow = self
            .ledger
            .flows
            .remove(&id.0)
            .ok_or(CacError::UnknownConnection(id))?;
        let conn = self.shards[flow.source_ring]
            .sourced
            .remove(&id.0)
            .expect("shard tracks ledgered flow");
        for key in &flow.hops {
            if let Some(members) = self.ledger.servers.get_mut(key) {
                members.retain(|&m| m != id.0);
                if members.is_empty() {
                    self.ledger.servers.remove(key);
                }
            }
        }
        self.ledger.bump(flow.hops);
        Ok(conn)
    }

    /// Marks a component as failed, tearing down every connection
    /// crossing it (in id order, as the flat state does) and raising
    /// the conflict barrier: down-set changes gate every decision, so
    /// all in-flight speculations are invalidated. Mirrors
    /// [`NetworkState::set_component_down`].
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidNetwork`] for a component outside
    /// this topology.
    pub fn set_component_down(&mut self, component: Component) -> Result<TeardownReport, CacError> {
        self.validate_component(component)?;
        let newly = self.down.insert(component);
        let mut report = TeardownReport {
            component,
            already_down: !newly,
            torn: Vec::new(),
            reclaimed_s: Seconds::ZERO,
            reclaimed_r: Seconds::ZERO,
        };
        if newly {
            let victims: Vec<ConnectionId> = self
                .ledger
                .flows
                .iter()
                .filter(|(_, f)| match component {
                    Component::Ring(r) | Component::IfDev(r) => {
                        f.source_ring == r.0 || f.dest_ring == r.0
                    }
                    Component::Link(l) => f.hops.contains(&MuxKey::Backbone(l.0)),
                })
                .map(|(&id, _)| ConnectionId(id))
                .collect();
            for id in victims {
                let conn = self.release(id).expect("victim is active");
                report.reclaimed_s += conn.h_s.per_rotation();
                report.reclaimed_r += conn.h_r.per_rotation();
                report.torn.push(conn);
            }
            self.ledger.raise_barrier();
        }
        Ok(report)
    }

    /// Restores a failed component, raising the conflict barrier (the
    /// repaired component may flip in-flight `ComponentUnavailable`
    /// outcomes). Returns whether it was down. Mirrors
    /// [`NetworkState::set_component_up`].
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidNetwork`] for a component outside
    /// this topology.
    pub fn set_component_up(&mut self, component: Component) -> Result<bool, CacError> {
        self.validate_component(component)?;
        let was_down = self.down.remove(&component);
        if was_down {
            self.ledger.raise_barrier();
        }
        Ok(was_down)
    }

    fn validate_component(&self, component: Component) -> Result<(), CacError> {
        let ok = match component {
            Component::Ring(r) | Component::IfDev(r) => r.0 < self.net.rings().len(),
            Component::Link(l) => l.0 < self.net.backbone().link_count(),
        };
        if ok {
            Ok(())
        } else {
            Err(CacError::InvalidNetwork(format!(
                "unknown component {component}"
            )))
        }
    }

    /// The merged flat snapshot of the partitioned state — equal,
    /// field for field, to what [`NetworkState::snapshot`] produces
    /// after the same committed decision sequence. `clock` and
    /// `decision_seq` come from the caller (the engine owns them).
    #[must_use]
    pub fn snapshot(&self, clock: Seconds, decision_seq: u64) -> StateSnapshot {
        StateSnapshot {
            version: SNAPSHOT_VERSION,
            topology: self.net.summary(),
            rings: self.net.rings().to_vec(),
            connections: self
                .ledger
                .flows
                .iter()
                .map(|(id, f)| {
                    let c = &self.shards[f.source_ring].sourced[id];
                    ConnectionSnapshot {
                        id: c.id,
                        source: c.spec.source,
                        dest: c.spec.dest,
                        envelope: Arc::clone(&c.spec.envelope),
                        deadline: c.spec.deadline,
                        class: c.spec.class,
                        h_s: c.h_s,
                        h_r: c.h_r,
                        delay_bound: c.delay_bound,
                    }
                })
                .collect(),
            down: self.down.iter().copied().collect(),
            next_id: self.next_id,
            clock,
            decision_seq,
        }
    }

    /// Rebuilds a partitioned state from a flat snapshot (shards and
    /// ledger are derived data; the snapshot stays the one durable
    /// format).
    ///
    /// # Errors
    ///
    /// Returns [`CacError::SnapshotMismatch`] for a wrong version or
    /// topology, or ids out of order / not below `next_id`.
    pub fn from_snapshot(net: Arc<HetNetwork>, snap: &StateSnapshot) -> Result<Self, CacError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(CacError::SnapshotMismatch(format!(
                "snapshot version {} != supported {SNAPSHOT_VERSION}",
                snap.version
            )));
        }
        if snap.topology != net.summary() {
            return Err(CacError::SnapshotMismatch(format!(
                "snapshot topology ({}) != this network ({})",
                snap.topology,
                net.summary()
            )));
        }
        // Adopt the snapshot's ring parameters, as `NetworkState::restore`
        // does: a cut taken after a live reconfiguration rebuilds onto the
        // retuned TTRT/overhead, not the base topology's.
        let net = if snap.rings.as_slice() == net.rings() {
            net
        } else {
            Arc::new(
                net.as_ref()
                    .with_ring_configs(snap.rings.clone())
                    .map_err(|e| {
                        CacError::SnapshotMismatch(format!("snapshot ring parameters: {e}"))
                    })?,
            )
        };
        let mut state = Self::new(net);
        let mut prev: Option<u64> = None;
        for c in &snap.connections {
            if c.id.0 >= snap.next_id || prev.is_some_and(|p| p >= c.id.0) {
                return Err(CacError::SnapshotMismatch(format!(
                    "snapshot ids not strictly ascending below next_id {} at {}",
                    snap.next_id, c.id
                )));
            }
            prev = Some(c.id.0);
            state.next_id = c.id.0;
            state.commit_admit(&c.spec(), c.h_s, c.h_r, c.delay_bound)?;
        }
        state.next_id = snap.next_id;
        state.down = snap.down.iter().copied().collect();
        // Restored state starts a fresh optimistic epoch: raise the
        // barrier so no speculation from before the restore can commit.
        state.ledger.raise_barrier();
        Ok(state)
    }

    /// Captures the partitioned state as per-shard snapshots plus a
    /// consistent ledger cut (taken at one version, under the
    /// committer's exclusive access — in-flight speculations don't
    /// touch it, so the cut is a consistent point of the committed
    /// history even while workers speculate).
    #[must_use]
    pub fn cut(&self, clock: Seconds, decision_seq: u64) -> ShardedCut {
        ShardedCut {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(ring, shard)| ShardCut {
                    ring,
                    connections: shard
                        .sourced
                        .values()
                        .map(|c| ConnectionSnapshot {
                            id: c.id,
                            source: c.spec.source,
                            dest: c.spec.dest,
                            envelope: Arc::clone(&c.spec.envelope),
                            deadline: c.spec.deadline,
                            class: c.spec.class,
                            h_s: c.h_s,
                            h_r: c.h_r,
                            delay_bound: c.delay_bound,
                        })
                        .collect(),
                })
                .collect(),
            ledger: LedgerCut {
                version: self.ledger.version,
                next_id: self.next_id,
                down: self.down.iter().copied().collect(),
                clock,
                decision_seq,
                topology: self.net.summary(),
                rings: self.net.rings().to_vec(),
            },
        }
    }

    /// Rebuilds a partitioned state from a per-shard cut, via the flat
    /// snapshot (which re-derives the ledger deterministically).
    ///
    /// # Errors
    ///
    /// As for [`ShardedState::from_snapshot`], plus a mismatch if a
    /// connection sits in the wrong shard.
    pub fn from_cut(net: Arc<HetNetwork>, cut: &ShardedCut) -> Result<Self, CacError> {
        for shard in &cut.shards {
            if let Some(c) = shard
                .connections
                .iter()
                .find(|c| c.source.ring != shard.ring)
            {
                return Err(CacError::SnapshotMismatch(format!(
                    "{} sourced on ring {} filed under shard {}",
                    c.id, c.source.ring, shard.ring
                )));
            }
        }
        Self::from_snapshot(net, &cut.to_snapshot())
    }
}

/// One ring shard's capture: the connections sourced on that ring, in
/// id order.
#[derive(Clone, Debug)]
pub struct ShardCut {
    /// The ring this shard owns.
    pub ring: usize,
    /// Its connections, ascending id.
    pub connections: Vec<ConnectionSnapshot>,
}

/// The backbone ledger's portion of a cut: the version the cut was
/// taken at and everything global that isn't per-shard.
#[derive(Clone, Debug)]
pub struct LedgerCut {
    /// Ledger version at the cut.
    pub version: u64,
    /// The next connection id.
    pub next_id: u64,
    /// Components down at the cut, sorted.
    pub down: Vec<Component>,
    /// The engine's logical clock.
    pub clock: Seconds,
    /// Completed decisions so far.
    pub decision_seq: u64,
    /// Topology the cut was taken from.
    pub topology: crate::network::TopologySummary,
    /// Ring parameters at the cut (carried so a cut taken after a live
    /// reconfiguration merges back into a snapshot that restores onto
    /// the retuned rings).
    pub rings: Vec<RingConfig>,
}

/// A consistent capture of a [`ShardedState`]: per-shard snapshots plus
/// the ledger cut binding them to one version.
#[derive(Clone, Debug)]
pub struct ShardedCut {
    /// One entry per ring, in ring order.
    pub shards: Vec<ShardCut>,
    /// The ledger's global fields.
    pub ledger: LedgerCut,
}

impl ShardedCut {
    /// Merges the per-shard captures into the flat [`StateSnapshot`]
    /// form — a k-way merge by id, which is admission order.
    #[must_use]
    pub fn to_snapshot(&self) -> StateSnapshot {
        let mut connections: Vec<ConnectionSnapshot> = self
            .shards
            .iter()
            .flat_map(|s| s.connections.iter().cloned())
            .collect();
        connections.sort_by_key(|c| c.id.0);
        StateSnapshot {
            version: SNAPSHOT_VERSION,
            topology: self.ledger.topology,
            rings: self.ledger.rings.clone(),
            connections,
            down: self.ledger.down.clone(),
            next_id: self.ledger.next_id,
            clock: self.ledger.clock,
            decision_seq: self.ledger.decision_seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cac::{AdmissionOptions, CacConfig, Decision};
    use crate::network::RingId;
    use hetnet_traffic::models::ConstantRateEnvelope;
    use hetnet_traffic::units::BitsPerSec;

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

    /// Admits `specs` in order through both the flat state and the
    /// speculate/decide/commit path, asserting every decision matches
    /// bitwise, and returns both ending states.
    fn run_both(
        net: HetNetwork,
        specs: &[ConnectionSpec],
    ) -> (NetworkState, ShardedState, Vec<Decision>) {
        let mut flat = NetworkState::new(net);
        let shared = Arc::clone(flat.shared_network());
        let mut sharded = ShardedState::new(shared);
        let opts = AdmissionOptions::beta_search(CacConfig::default());
        let mut decisions = Vec::new();
        for s in specs {
            let flat_decision = flat.admit(s.clone(), &opts).unwrap();
            let spec_view = sharded.speculate(s.source, s.dest).unwrap();
            let mut scoped = spec_view.state().unwrap();
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
                    sharded.commit_admit(s, *ss, *sr, *sb).unwrap();
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
            "committed sharded state must merge to the flat snapshot"
        );
    }

    #[test]
    fn closure_excludes_unrelated_ring_pairs() {
        // grid(4, ..) routes 0↔1 and 2↔3 over disjoint links, so the
        // two pairs share no multiplexer and each closure sees only its
        // own pair's flows.
        let net = HetNetwork::grid(4, 4);
        let mut sharded = ShardedState::new(Arc::new(net));
        for (s, d) in [(0usize, 1usize), (2, 3), (0, 1), (3, 2)] {
            let sp = spec((s, 0), (d, 1), 5.0);
            sharded
                .commit_admit(&sp, sync(0.5), sync(0.5), Seconds::from_millis(10.0))
                .unwrap();
        }
        let view = sharded
            .speculate(
                HostId {
                    ring: 0,
                    station: 2,
                },
                HostId {
                    ring: 1,
                    station: 3,
                },
            )
            .unwrap();
        assert_eq!(view.closure_len(), 2, "only the 0↔1 flows are dependencies");
        let all = sharded
            .speculate(
                HostId {
                    ring: 2,
                    station: 2,
                },
                HostId {
                    ring: 3,
                    station: 3,
                },
            )
            .unwrap();
        assert_eq!(all.closure_len(), 2, "only the 2↔3 flows are dependencies");
    }

    fn sync(ms: f64) -> hetnet_fddi::ring::SyncBandwidth {
        hetnet_fddi::ring::SyncBandwidth::new(Seconds::from_millis(ms))
    }

    #[test]
    fn conflicts_track_footprint_intersection_and_barriers() {
        let net = HetNetwork::grid(4, 4);
        let mut sharded = ShardedState::new(Arc::new(net));
        let view = sharded
            .speculate(
                HostId {
                    ring: 0,
                    station: 0,
                },
                HostId {
                    ring: 1,
                    station: 0,
                },
            )
            .unwrap();
        let fp = view.footprint();
        assert!(
            !sharded.conflicts(view.version, &fp),
            "nothing committed yet"
        );

        // A disjoint commit (2→3) does not invalidate a 0→1 speculation.
        sharded
            .commit_admit(
                &spec((2, 0), (3, 0), 5.0),
                sync(0.4),
                sync(0.4),
                Seconds::from_millis(9.0),
            )
            .unwrap();
        assert!(!sharded.conflicts(view.version, &fp));

        // An overlapping commit (0→1) does.
        sharded
            .commit_admit(
                &spec((0, 1), (1, 1), 5.0),
                sync(0.4),
                sync(0.4),
                Seconds::from_millis(9.0),
            )
            .unwrap();
        assert!(sharded.conflicts(view.version, &fp));

        // Down-set changes are a barrier: every older speculation dies.
        let fresh = sharded
            .speculate(
                HostId {
                    ring: 2,
                    station: 1,
                },
                HostId {
                    ring: 3,
                    station: 1,
                },
            )
            .unwrap();
        let fresh_fp = fresh.footprint();
        assert!(!sharded.conflicts(fresh.version, &fresh_fp));
        sharded
            .set_component_down(Component::Ring(RingId(0)))
            .unwrap();
        assert!(sharded.conflicts(fresh.version, &fresh_fp));
    }

    #[test]
    fn release_and_teardown_mirror_the_flat_state() {
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
        assert!(
            sharded.release(admitted[0]).is_err(),
            "double release errors"
        );

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

    #[test]
    fn cut_round_trips_through_per_shard_snapshots() {
        let net = HetNetwork::grid(6, 3);
        let mut sharded = ShardedState::new(Arc::new(net));
        for (s, d) in [(0usize, 1usize), (2, 3), (4, 5), (1, 0), (3, 4)] {
            let sp = spec((s, 0), (d, 1), 4.0);
            sharded
                .commit_admit(&sp, sync(0.3), sync(0.3), Seconds::from_millis(12.0))
                .unwrap();
        }
        sharded
            .set_component_down(Component::Ring(RingId(4)))
            .unwrap();
        let cut = sharded.cut(Seconds::from_millis(5.0), 7);
        assert_eq!(cut.shards.len(), 6);
        let restored = ShardedState::from_cut(Arc::clone(sharded.net()), &cut).unwrap();
        assert_eq!(
            sharded.snapshot(Seconds::from_millis(5.0), 7).to_json(),
            restored.snapshot(Seconds::from_millis(5.0), 7).to_json()
        );
        assert_eq!(restored.next_id(), sharded.next_id());
        // The restored ledger starts a new epoch: pre-cut speculations
        // cannot commit into it.
        assert!(restored.version() > 0);
    }
}
