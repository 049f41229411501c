//! The connection admission control algorithm (§5.3) and the network's
//! admission bookkeeping.
//!
//! Upon a request, the CAC:
//!
//! 1. computes the maximum available allocations
//!    `(H_S^{max_avai}, H_R^{max_avai})` from the rings' synchronous
//!    budgets (eqs. 26–27);
//! 2. rejects if even the maximum allocation cannot satisfy every
//!    deadline (eqs. 24–25);
//! 3. binary-searches along the line joining
//!    `(H_S^{min_abs}, H_R^{min_abs})` and the maximum point for the
//!    *minimum needed* allocation — the smallest point keeping all
//!    deadlines satisfied;
//! 4. binary-searches the segment above it for the *maximum needed*
//!    allocation — the smallest point at which every connection's delay
//!    already equals its value at the maximum allocation (eqs. 31–33):
//!    beyond it, extra bandwidth buys nothing;
//! 5. allocates `H = H^{min_need} + β (H^{max_need} − H^{min_need})`
//!    (eqs. 35–36) and admits.
//!
//! Monotonicity along the search line — the requesting connection's
//! delay is nonincreasing and existing connections' delays are
//! nondecreasing in the allocation scale (they only see the newcomer
//! through its burstiness at shared multiplexers) — is what makes both
//! searches correct; it follows from the convexity of the feasible
//! region (Theorems 3–4).

use crate::connection::{ActiveConnection, ConnectionId, ConnectionSpec};
use crate::delay::{
    evaluate_paths, CacheStats, CandidateOutcome, EvalCache, EvalConfig, EvalOutcome, Evaluator,
    MuxKey, PathInput, PathReport, ScreenedOutcome,
};
use crate::error::CacError;
use crate::incremental::{hops_for, FastContext, FastPathStats, MuxIndex};
use crate::network::{Component, HetNetwork, RingId};
use crate::reconfig::{ReconfigPlan, ReconfigReport};
use crate::snapshot::{ConnectionSnapshot, StateSnapshot, SNAPSHOT_VERSION};
use crate::trace::{BindingConstraint, ConnectionTrace, DecisionTrace, ServerStage};
use hetnet_fddi::alloc::{AllocationKey, SyncAllocationTable};
use hetnet_fddi::frames;
use hetnet_fddi::ring::SyncBandwidth;
use hetnet_obs as obs;
use hetnet_traffic::units::Seconds;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Tuning parameters of the CAC.
#[derive(Clone, Debug)]
pub struct CacConfig {
    /// The allocation knob β ∈ [0, 1] of eqs. 35–36: 0 allocates the
    /// bare minimum, 1 the maximum useful amount. The paper finds
    /// β ∈ [0.4, 0.7] robust; 0.5 is the default.
    pub beta: f64,
    /// Iterations of each binary search along the allocation line.
    pub search_iterations: usize,
    /// Tolerance for the "maximum needed allocation" test. Eqs. 31–33
    /// define `H^{max_need}` as the smallest allocation whose delays
    /// *equal* those at the maximum; when delay curves saturate exactly
    /// (pure staircase effects) that point is found as-is, and when they
    /// keep creeping (burst-crossing times shift continuously with the
    /// quantum) the search settles for the point at which all but this
    /// fraction of the *achievable* improvement has been realized.
    pub equality_tolerance: f64,
    /// Minimum frame efficiency defining `H^{min_abs}` (§5.2: the
    /// allocation cannot be arbitrarily small or frame overheads swamp
    /// it).
    pub min_frame_efficiency: f64,
    /// End-to-end evaluation tuning.
    pub eval: EvalConfig,
}

impl Default for CacConfig {
    fn default() -> Self {
        Self {
            beta: 0.5,
            search_iterations: 14,
            equality_tolerance: 0.1,
            min_frame_efficiency: 0.9,
            eval: EvalConfig::default(),
        }
    }
}

impl CacConfig {
    /// A cheaper configuration for large simulation campaigns: fewer
    /// search iterations and the fast evaluation profile. Decisions are
    /// identical in kind, slightly coarser in the allocation split.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            search_iterations: 12,
            eval: EvalConfig::fast(),
            ..Self::default()
        }
    }

    /// A copy of this configuration with a different β.
    ///
    /// # Panics
    ///
    /// Panics unless `beta ∈ [0, 1]`.
    #[must_use]
    pub fn with_beta(mut self, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
        self.beta = beta;
        self
    }
}

/// How the admission engine picks the `(H_S, H_R)` allocation for a
/// request.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum AllocationPolicy {
    /// The paper's β-CAC line search (§5.3): find the minimum and
    /// maximum *needed* allocations and interpolate with β.
    #[default]
    BetaSearch,
    /// Admit at exactly this allocation pair if (and only if) every
    /// deadline holds there — no searching, no β. Used by the baseline
    /// policies and by tests.
    Fixed {
        /// Synchronous bandwidth to hold on the source ring.
        h_s: SyncBandwidth,
        /// Synchronous bandwidth to hold on the destination ring.
        h_r: SyncBandwidth,
    },
}

/// Everything an admission request needs besides the
/// [`ConnectionSpec`] itself: CAC tuning plus the allocation policy.
///
/// This is the single entry point's option block —
/// [`NetworkState::admit`] subsumes the legacy
/// [`NetworkState::request`] / [`NetworkState::request_fixed`] pair.
#[derive(Clone, Debug, Default)]
pub struct AdmissionOptions {
    /// CAC tuning parameters (β, search depth, evaluation profile).
    pub cac: CacConfig,
    /// Allocation policy: β-search or a fixed pair.
    pub allocation: AllocationPolicy,
}

impl AdmissionOptions {
    /// β-search admission (the paper's algorithm) under `cac`.
    #[must_use]
    pub fn beta_search(cac: CacConfig) -> Self {
        Self {
            cac,
            allocation: AllocationPolicy::BetaSearch,
        }
    }

    /// Fixed-allocation admission at `(h_s, h_r)` under `cac`.
    #[must_use]
    pub fn fixed(cac: CacConfig, h_s: SyncBandwidth, h_r: SyncBandwidth) -> Self {
        Self {
            cac,
            allocation: AllocationPolicy::Fixed { h_s, h_r },
        }
    }
}

impl From<CacConfig> for AdmissionOptions {
    /// A bare [`CacConfig`] means β-search, the common case.
    fn from(cac: CacConfig) -> Self {
        Self::beta_search(cac)
    }
}

/// One completed admission decision, as seen by a
/// [`DecisionObserver`].
#[derive(Debug)]
pub struct DecisionRecord<'a> {
    /// 0-based sequence number (counts every completed
    /// [`NetworkState::admit`], admitted or rejected).
    pub seq: u64,
    /// The state's logical clock at decision time
    /// ([`NetworkState::set_clock`]); `Seconds::ZERO` if never set.
    pub at: Seconds,
    /// The request that was decided.
    pub spec: &'a ConnectionSpec,
    /// The verdict.
    pub decision: &'a Decision,
    /// Evaluator cache statistics of this decision's line searches
    /// (all-zero for fixed-allocation admissions, which run a single
    /// uncached evaluation).
    pub cache: CacheStats,
    /// Fast-ladder probe counters of this decision's β search
    /// (all-zero when the fast path is off or the allocation is fixed).
    pub fast_path: FastPathStats,
    /// The decision's structured explanation — present iff
    /// [`NetworkState::set_decision_tracing`] is on.
    pub trace: Option<&'a DecisionTrace>,
}

/// Callback invoked after every completed admission decision — the
/// metrics hook the service layer builds its audit log on. Observers
/// see rejections too; errors (`Err` from [`NetworkState::admit`])
/// produce no record because no decision was reached.
pub trait DecisionObserver: Send + Sync {
    /// Called once per decision, in decision order.
    fn on_decision(&mut self, record: &DecisionRecord<'_>);

    /// Called once per completed [`NetworkState::reconfigure`], which
    /// consumes one decision sequence number (`seq`) like an admission
    /// does — observers tracking the gap-free sequence advance here
    /// too. The default does nothing.
    fn on_reconfig(&mut self, seq: u64, report: &ReconfigReport) {
        let _ = (seq, report);
    }
}

/// Why a request was rejected.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The source ring cannot even provide the minimum absolute
    /// allocation.
    SourceBandwidthExhausted {
        /// Synchronous time still available.
        available: Seconds,
        /// The minimum absolute requirement.
        required: Seconds,
    },
    /// The destination ring cannot provide the minimum absolute
    /// allocation.
    DestBandwidthExhausted {
        /// Synchronous time still available.
        available: Seconds,
        /// The minimum absolute requirement.
        required: Seconds,
    },
    /// Even `(H_S^{max_avai}, H_R^{max_avai})` violates some deadline or
    /// leaves a server unstable (the feasible region is empty,
    /// Theorem 4).
    InfeasibleAtMaximum {
        /// Human-readable detail (which constraint failed).
        detail: String,
    },
    /// A component on the request's path is down
    /// ([`NetworkState::set_component_down`]): no allocation exists
    /// until it is restored.
    ComponentUnavailable {
        /// The failed component.
        component: Component,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SourceBandwidthExhausted {
                available,
                required,
            } => write!(
                f,
                "source ring bandwidth exhausted (available {available}, need {required})"
            ),
            Self::DestBandwidthExhausted {
                available,
                required,
            } => write!(
                f,
                "destination ring bandwidth exhausted (available {available}, need {required})"
            ),
            Self::InfeasibleAtMaximum { detail } => {
                write!(f, "infeasible even at maximum allocation: {detail}")
            }
            Self::ComponentUnavailable { component } => {
                write!(f, "component {component} is down on the request's path")
            }
        }
    }
}

/// The CAC's verdict on a request.
#[derive(Clone, Debug)]
pub enum Decision {
    /// Admitted with the given allocations.
    Admitted {
        /// Identifier of the new connection.
        id: ConnectionId,
        /// Synchronous bandwidth allocated on the source ring.
        h_s: SyncBandwidth,
        /// Synchronous bandwidth allocated on the destination ring.
        h_r: SyncBandwidth,
        /// The connection's end-to-end worst-case delay at admission.
        delay_bound: Seconds,
    },
    /// Rejected; no state was changed.
    Rejected(RejectReason),
}

impl Decision {
    /// Whether the request was admitted.
    #[must_use]
    pub fn is_admitted(&self) -> bool {
        matches!(self, Self::Admitted { .. })
    }
}

/// What [`NetworkState::set_component_down`] tore down: the evicted
/// connections (with their full specs, so the caller can park and
/// later re-admit them) and the synchronous bandwidth reclaimed.
#[derive(Debug)]
pub struct TeardownReport {
    /// The component that failed.
    pub component: Component,
    /// `true` when the component was already down (nothing new torn).
    pub already_down: bool,
    /// The evicted connections, in admission order.
    pub torn: Vec<ActiveConnection>,
    /// Total `H_S` (source-ring synchronous time per rotation)
    /// reclaimed across the evictions.
    pub reclaimed_s: Seconds,
    /// Total `H_R` reclaimed across the evictions.
    pub reclaimed_r: Seconds,
}

/// Entry caps applied to a persisted evaluator cache at the start of
/// each search: when any tier exceeds its cap the whole cache is
/// cleared. Caps bound memory only — cache hits return exactly what the
/// miss path would compute, so decisions are identical at any setting.
/// Callers working repeatedly over large active subsets (the sharded
/// engine's closure states) raise them so a single big decision does
/// not evict the working set every iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCacheCaps {
    /// Max stage-1 (source MAC analysis) entries.
    pub stage1: usize,
    /// Max stage-2 (per-class multiplexer) analysis entries.
    pub mux: usize,
    /// Max receive-side analysis entries.
    pub receive: usize,
}

impl Default for EvalCacheCaps {
    fn default() -> Self {
        Self {
            stage1: 1024,
            mux: 8192,
            receive: 8192,
        }
    }
}

/// The live state of the network: active connections and per-ring
/// synchronous-bandwidth tables.
pub struct NetworkState {
    /// The immutable topology, shareable across states: the sharded
    /// engine builds one short-lived scoped state per decision, and an
    /// `Arc` makes that construction O(active subset) instead of a
    /// deep topology clone.
    net: Arc<HetNetwork>,
    /// Admitted connections, in ascending id (= admission) order.
    active: Vec<ActiveConnection>,
    tables: Vec<SyncAllocationTable>,
    /// Which of `active` cross which multiplexer. `active`, `tables`
    /// and `index` change only through [`NetworkState::insert`] and
    /// [`NetworkState::remove`], which keep them in step (`restore` and
    /// `reconfigure` start them empty and refill them through `insert`).
    index: MuxIndex,
    next_id: u64,
    last_cache_stats: Option<CacheStats>,
    persist_cache: bool,
    cache_caps: EvalCacheCaps,
    /// Evaluator cache carried across [`NetworkState::admit`] calls
    /// when persistence is on. Entries are always sound (keys capture
    /// everything a result depends on — envelope identity, allocations,
    /// and the full transform chain), so with persistence on the cache
    /// survives admissions and releases too; an entry cap at the start
    /// of each search bounds its memory. With persistence off it is
    /// dropped whenever the active set changes.
    eval_cache: Option<EvalCache>,
    /// Whether β-search probes may be decided by the fast ladder
    /// ([`NetworkState::set_fast_path`]).
    fast_path: bool,
    last_fast_stats: Option<FastPathStats>,
    /// Components currently marked down by fault injection; requests
    /// whose path crosses one are rejected without evaluation.
    down: BTreeSet<Component>,
    /// Logical event clock stamped onto [`DecisionRecord`]s.
    clock: Seconds,
    /// Completed decisions (admit or reject) so far.
    decision_seq: u64,
    observer: Option<Box<dyn DecisionObserver>>,
    /// Whether [`NetworkState::admit`] assembles a [`DecisionTrace`]
    /// per decision. Off by default: the hot path stays allocation-free.
    trace_decisions: bool,
    last_trace: Option<DecisionTrace>,
}

/// The trace ingredients an admission path hands back to
/// [`NetworkState::admit`] (which stamps seq/clock/cache onto them).
/// Built only when decision tracing is on.
struct TraceParts {
    allocation: Option<(SyncBandwidth, SyncBandwidth)>,
    connections: Vec<ConnectionTrace>,
    binding: Option<BindingConstraint>,
}

/// A dependency closure copied out of a [`NetworkState`]
/// ([`NetworkState::read_closure`]): the closure's connections with
/// their hops in id order, and the down set and id counter.
pub(crate) struct ClosureCopy {
    net: Arc<HetNetwork>,
    members: Vec<(ActiveConnection, Vec<MuxKey>)>,
    down: BTreeSet<Component>,
    next_id: u64,
}

impl ClosureCopy {
    /// A state over the same topology holding only the closure, with
    /// the down set and id counter carried over. An admission decided
    /// on it is assigned the id the source state would assign next.
    ///
    /// The sharded engine decides over these
    /// ([`crate::shard::ShardedState::speculate`]). Over a closure of
    /// the candidate's multiplexers and its endpoint rings' uplinks and
    /// downlinks, every quantity the admission computes — allocation-
    /// table availability on the endpoint rings, per-multiplexer
    /// aggregates, existing flows' delay bounds — is bit-identical to
    /// the source state's, because every flow that could contribute to
    /// them is present and in the same relative order (see `DESIGN.md`
    /// §12).
    ///
    /// # Errors
    ///
    /// Returns [`CacError::SnapshotMismatch`] if the closure's
    /// allocations do not fit the rings (impossible for a subset of an
    /// admitted set).
    pub(crate) fn into_state(self) -> Result<NetworkState, CacError> {
        let mut scoped = NetworkState::new_shared(self.net);
        for (conn, hops) in self.members {
            scoped.insert(conn, hops).map_err(|e| {
                CacError::SnapshotMismatch(format!("scoped allocations do not fit: {e}"))
            })?;
        }
        scoped.down = self.down;
        scoped.next_id = self.next_id;
        Ok(scoped)
    }
}

/// What a fixed-allocation feasibility check found.
enum FixedCheck {
    /// Every deadline holds; per-connection reports, candidate last.
    Feasible(Vec<PathReport>),
    /// No finite bound exists (some server unstable), verbatim detail.
    Unstable(String),
    /// Bounds exist but a deadline is missed: `victim` is the `active`
    /// index of the first violated connection (`None` = the candidate);
    /// `reports` follow the evaluated scope's order.
    DeadlineMiss {
        victim: Option<usize>,
        reports: Vec<PathReport>,
    },
}

/// The [`BindingConstraint`] for a path that missed its deadline.
fn deadline_binding(
    connection: Option<ConnectionId>,
    report: &PathReport,
    deadline: Seconds,
) -> BindingConstraint {
    BindingConstraint::DeadlineExceeded {
        connection,
        stage: ServerStage::dominant(report),
        delay: report.total,
        deadline,
        excess: report.total - deadline,
    }
}

impl fmt::Debug for NetworkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetworkState")
            .field("net", &self.net)
            .field("active", &self.active)
            .field("tables", &self.tables)
            .field("next_id", &self.next_id)
            .field("last_cache_stats", &self.last_cache_stats)
            .field("persist_cache", &self.persist_cache)
            .field("fast_path", &self.fast_path)
            .field("down", &self.down)
            .field("clock", &self.clock)
            .field("decision_seq", &self.decision_seq)
            .field("observer", &self.observer.as_ref().map(|_| "<hook>"))
            .field("trace_decisions", &self.trace_decisions)
            .finish()
    }
}

impl NetworkState {
    /// A fresh state with no connections.
    #[must_use]
    pub fn new(net: HetNetwork) -> Self {
        Self::new_shared(Arc::new(net))
    }

    /// A fresh state over an already-shared topology. Equivalent to
    /// [`NetworkState::new`] but avoids duplicating the (route-table
    /// bearing) [`HetNetwork`] when many states are built over the same
    /// topology, as the sharded engine does per decision.
    #[must_use]
    pub fn new_shared(net: Arc<HetNetwork>) -> Self {
        let tables = vec![SyncAllocationTable::new(); net.rings().len()];
        Self {
            net,
            active: Vec::new(),
            tables,
            index: MuxIndex::default(),
            next_id: 0,
            last_cache_stats: None,
            persist_cache: false,
            cache_caps: EvalCacheCaps::default(),
            eval_cache: None,
            fast_path: false,
            last_fast_stats: None,
            down: BTreeSet::new(),
            clock: Seconds::ZERO,
            decision_seq: 0,
            observer: None,
            trace_decisions: false,
            last_trace: None,
        }
    }

    /// Turns per-decision [`DecisionTrace`] assembly on or off. When
    /// on, every completed [`NetworkState::admit`] stores its trace
    /// ([`NetworkState::last_decision_trace`]) and hands it to the
    /// installed [`DecisionObserver`]; when off (the default) the
    /// admission path builds nothing.
    pub fn set_decision_tracing(&mut self, enabled: bool) {
        self.trace_decisions = enabled;
        if !enabled {
            self.last_trace = None;
        }
    }

    /// The trace of the most recent completed decision, if tracing is
    /// on and at least one decision has completed since.
    #[must_use]
    pub fn last_decision_trace(&self) -> Option<&DecisionTrace> {
        self.last_trace.as_ref()
    }

    /// Sets the logical clock stamped onto subsequent
    /// [`DecisionRecord`]s. Event-driven callers (the service layer)
    /// advance this to the event timestamp before each
    /// [`NetworkState::admit`]; it has no effect on decisions.
    pub fn set_clock(&mut self, now: Seconds) {
        self.clock = now;
    }

    /// The current logical clock.
    #[must_use]
    pub fn clock(&self) -> Seconds {
        self.clock
    }

    /// Number of completed admission decisions (admitted or rejected)
    /// since construction.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.decision_seq
    }

    /// Installs (or clears) the per-decision metrics callback. The
    /// observer sees every completed decision in order; it cannot
    /// influence them.
    pub fn set_observer(&mut self, observer: Option<Box<dyn DecisionObserver>>) {
        self.observer = observer;
    }

    /// Removes and returns the installed observer, if any.
    #[must_use]
    pub fn take_observer(&mut self) -> Option<Box<dyn DecisionObserver>> {
        self.observer.take()
    }

    /// Enables (or disables) carrying the evaluator's caches across
    /// [`NetworkState::admit`] calls — including across admissions,
    /// releases, and teardowns: cache keys capture everything a result
    /// depends on (envelope identity, allocation bits, and the exact
    /// transform chain a flow went through), so entries stay sound when
    /// the active set changes and simply stop being hit once their
    /// flows are gone. An entry cap at the start of each search bounds
    /// the memory. Decisions are bit-identical either way, because
    /// cache hits return exactly what the miss path would compute.
    pub fn persist_eval_cache(&mut self, enabled: bool) {
        self.persist_cache = enabled;
        if !enabled {
            self.eval_cache = None;
        }
    }

    /// Enables (or disables) the incremental fast path: with it on, the
    /// β bisection's boolean feasible-at-λ probes may be decided by the
    /// closed-form decision ladder ([`crate::incremental`]) over the
    /// state's multiplexer-membership index instead of the dense
    /// evaluator. Every quantity that reaches a decision, a trace, or an
    /// allocation table still comes from the dense evaluator, so
    /// decisions are bit-identical with the fast path on or off.
    ///
    /// # Errors
    ///
    /// Never fails: the index the ladder reads is maintained whether or
    /// not the fast path is on. The `Result` keeps the signature stable.
    pub fn set_fast_path(&mut self, enabled: bool) -> Result<(), CacError> {
        self.fast_path = enabled;
        Ok(())
    }

    /// Whether the incremental fast path is enabled.
    #[must_use]
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// Fast-path probe counters of the most recent β-search
    /// [`NetworkState::admit`] call (`None` before the first; all-zero
    /// when the fast path is disabled).
    #[must_use]
    pub fn last_fast_path_stats(&self) -> Option<FastPathStats> {
        self.last_fast_stats
    }

    /// Cache hit/miss counters of the evaluator used by the most recent
    /// β-search [`NetworkState::admit`] call (`None` before the first).
    /// Benchmarks and the experiment harness use this to report how much
    /// of each admission's line search was served incrementally.
    #[must_use]
    pub fn last_cache_stats(&self) -> Option<CacheStats> {
        self.last_cache_stats
    }

    /// The underlying network.
    #[must_use]
    pub fn network(&self) -> &HetNetwork {
        &self.net
    }

    /// The shared handle to the underlying network, for building
    /// further states over the same topology without cloning it.
    #[must_use]
    pub fn shared_network(&self) -> &Arc<HetNetwork> {
        &self.net
    }

    /// Replaces the entry caps applied to a persisted evaluator cache
    /// (see [`EvalCacheCaps`]). Decision-neutral.
    pub fn set_cache_caps(&mut self, caps: EvalCacheCaps) {
        self.cache_caps = caps;
    }

    /// Removes and returns the persisted evaluator cache, if any. The
    /// sharded engine moves one long-lived cache between the short-lived
    /// scoped states a worker builds; keys are content-addressed, so a
    /// cache is sound under any active set over the same topology.
    #[must_use]
    pub fn take_eval_cache(&mut self) -> Option<EvalCache> {
        self.eval_cache.take()
    }

    /// Installs a previously taken evaluator cache (see
    /// [`NetworkState::take_eval_cache`]). Only meaningful with
    /// [`NetworkState::persist_eval_cache`] enabled, which governs
    /// whether the cache is carried forward after the next decision.
    pub fn inject_eval_cache(&mut self, cache: EvalCache) {
        self.eval_cache = Some(cache);
    }

    /// Currently active connections.
    #[must_use]
    pub fn active(&self) -> &[ActiveConnection] {
        &self.active
    }

    /// Whether `host` currently originates a connection (§3.2 assumes at
    /// most one per host).
    #[must_use]
    pub fn host_busy(&self, host: crate::network::HostId) -> bool {
        self.active.iter().any(|c| c.spec.source == host)
    }

    /// Synchronous time still allocatable on a ring.
    ///
    /// # Panics
    ///
    /// Panics if `ring` is out of range.
    #[must_use]
    pub fn available_on(&self, ring: impl Into<RingId>) -> Seconds {
        let ring = ring.into();
        self.tables[ring.0].available(self.net.ring(ring))
    }

    /// The multiplexers an active connection crosses, in path order
    /// (empty if `id` is not active).
    pub(crate) fn hops_of(&self, id: ConnectionId) -> &[MuxKey] {
        self.index.hops(id)
    }

    /// The `active` index of connection `id` (`active` is id-ordered).
    fn position(&self, id: ConnectionId) -> Option<usize> {
        self.active.binary_search_by_key(&id, |c| c.id).ok()
    }

    /// The active connections a decision on `spec` evaluates, as
    /// ascending indices into `active`. A traced decision reports every
    /// connection, so it takes them all; an untraced one takes the
    /// candidate's dependency closure — the connections it shares a
    /// multiplexer with, transitively — read off the membership index.
    /// Connections outside the closure cross no multiplexer the
    /// candidate can change and are already feasible, so the decision
    /// comes out the same (DESIGN.md §12).
    fn scope(&self, spec: &ConnectionSpec, tracing: bool) -> Result<Vec<usize>, CacError> {
        if tracing {
            return Ok((0..self.active.len()).collect());
        }
        let (_, closure) = self
            .index
            .closure(hops_for(&self.net, spec.source, spec.dest)?);
        Ok(closure
            .into_iter()
            .map(|id| self.position(id).expect("indexed connection is active"))
            .collect())
    }

    /// Builds the evaluation inputs for the active connections at
    /// `scope` (ascending `active` indices), plus an optional candidate
    /// at a trial allocation.
    fn inputs_with(
        &self,
        scope: &[usize],
        candidate: Option<(&ConnectionSpec, SyncBandwidth, SyncBandwidth)>,
    ) -> Vec<PathInput> {
        let mut v: Vec<PathInput> = scope
            .iter()
            .map(|&i| &self.active[i])
            .map(|c| PathInput {
                source: c.spec.source,
                dest: c.spec.dest,
                envelope: Arc::clone(&c.spec.envelope),
                h_s: c.h_s,
                h_r: c.h_r,
                class: c.spec.class,
            })
            .collect();
        if let Some((spec, hs, hr)) = candidate {
            v.push(PathInput {
                source: spec.source,
                dest: spec.dest,
                envelope: Arc::clone(&spec.envelope),
                h_s: hs,
                h_r: hr,
                class: spec.class,
            });
        }
        v
    }

    /// Evaluates all deadlines with the candidate at `(hs, hr)`,
    /// keeping enough detail to attribute a failure: *which* path first
    /// missed its deadline, or why no bound exists at all.
    fn feasible_with(
        &self,
        spec: &ConnectionSpec,
        hs: SyncBandwidth,
        hr: SyncBandwidth,
        cfg: &CacConfig,
        scope: &[usize],
    ) -> Result<FixedCheck, CacError> {
        let inputs = self.inputs_with(scope, Some((spec, hs, hr)));
        match evaluate_paths(&self.net, &inputs, &cfg.eval)? {
            EvalOutcome::Infeasible(detail) => Ok(FixedCheck::Unstable(detail)),
            EvalOutcome::Feasible(reports) => {
                for (report, &i) in reports.iter().zip(scope) {
                    if report.total > self.active[i].spec.deadline {
                        return Ok(FixedCheck::DeadlineMiss {
                            victim: Some(i),
                            reports,
                        });
                    }
                }
                if reports.last().expect("candidate included").total > spec.deadline {
                    return Ok(FixedCheck::DeadlineMiss {
                        victim: None,
                        reports,
                    });
                }
                Ok(FixedCheck::Feasible(reports))
            }
        }
    }

    /// Trace entries for `reports` evaluated against the current active
    /// set plus the not-yet-admitted candidate as the last path.
    fn traces_with_candidate(
        &self,
        reports: &[PathReport],
        spec: &ConnectionSpec,
    ) -> Vec<ConnectionTrace> {
        let mut v: Vec<ConnectionTrace> = self
            .active
            .iter()
            .zip(reports)
            .map(|(c, r)| ConnectionTrace::new(Some(c.id), *r, c.spec.deadline))
            .collect();
        if let Some(last) = reports.get(self.active.len()) {
            v.push(ConnectionTrace::new(None, *last, spec.deadline));
        }
        v
    }

    /// Trace entries for `reports` once the candidate has been
    /// committed (the active set already includes it, last, with its
    /// real id).
    fn traces_committed(&self, reports: &[PathReport]) -> Vec<ConnectionTrace> {
        self.active
            .iter()
            .zip(reports)
            .map(|(c, r)| ConnectionTrace::new(Some(c.id), *r, c.spec.deadline))
            .collect()
    }

    /// Decides one admission request under `opts` — the single entry
    /// point subsuming the legacy [`NetworkState::request`] (β-search)
    /// and [`NetworkState::request_fixed`] (fixed pair) split. On
    /// admission, the allocations are recorded and the connection
    /// becomes active; the installed [`DecisionObserver`], if any, sees
    /// the decision either way.
    ///
    /// # Errors
    ///
    /// Returns [`CacError`] for malformed requests or networks;
    /// resource/deadline failures are reported as
    /// [`Decision::Rejected`].
    pub fn admit(
        &mut self,
        spec: ConnectionSpec,
        opts: &AdmissionOptions,
    ) -> Result<Decision, CacError> {
        let _admit_span = obs::span("admit");
        // Keep a (cheap: Arc + copies) clone of the spec for the
        // observer; the impls consume `spec` on admission.
        let observed_spec = self.observer.is_some().then(|| spec.clone());
        let result = match opts.allocation {
            AllocationPolicy::BetaSearch => self.admit_beta(spec, &opts.cac),
            AllocationPolicy::Fixed { h_s, h_r } => self.admit_fixed(spec, h_s, h_r, &opts.cac),
        };
        let (decision, parts) = match result {
            Ok(pair) => pair,
            Err(e) => {
                obs::event("admit_error", &[("kind", obs::FieldValue::Str(e.kind()))]);
                return Err(e);
            }
        };
        let seq = self.decision_seq;
        self.decision_seq += 1;
        let cache = match opts.allocation {
            AllocationPolicy::BetaSearch => self.last_cache_stats.unwrap_or_default(),
            AllocationPolicy::Fixed { .. } => CacheStats::default(),
        };
        let fast_path = match opts.allocation {
            AllocationPolicy::BetaSearch => self.last_fast_stats.unwrap_or_default(),
            AllocationPolicy::Fixed { .. } => FastPathStats::default(),
        };
        // `parts` is `Some` iff tracing is on, so a disabled state never
        // retains a stale trace.
        self.last_trace = parts.map(|p| DecisionTrace {
            seq,
            at: self.clock,
            admitted: decision.is_admitted(),
            scheduler: self.net.scheduler().to_string(),
            allocation: p.allocation,
            connections: p.connections,
            binding: p.binding,
            cache,
            fast_path,
        });
        obs::event(
            "decision",
            &[
                ("seq", obs::FieldValue::U64(seq)),
                ("admitted", obs::FieldValue::Bool(decision.is_admitted())),
                (
                    "binding",
                    obs::FieldValue::Str(
                        self.last_trace
                            .as_ref()
                            .and_then(|t| t.binding.as_ref())
                            .map_or("", BindingConstraint::kind),
                    ),
                ),
            ],
        );
        if let Some(spec) = observed_spec {
            if let Some(mut hook) = self.observer.take() {
                hook.on_decision(&DecisionRecord {
                    seq,
                    at: self.clock,
                    spec: &spec,
                    decision: &decision,
                    cache,
                    fast_path,
                    trace: self.last_trace.as_ref(),
                });
                self.observer = Some(hook);
            }
        }
        Ok(decision)
    }

    /// The CAC of §5.3: β-search along the allocation line.
    fn admit_beta(
        &mut self,
        spec: ConnectionSpec,
        cfg: &CacConfig,
    ) -> Result<(Decision, Option<TraceParts>), CacError> {
        self.validate_spec(&spec)?;
        let tracing = self.trace_decisions;
        if let Some(component) = self.down_on_path(&spec)? {
            let parts = tracing.then(|| TraceParts {
                allocation: None,
                connections: Vec::new(),
                binding: Some(BindingConstraint::ComponentDown { component }),
            });
            return Ok((
                Decision::Rejected(RejectReason::ComponentUnavailable { component }),
                parts,
            ));
        }
        let ring_s = self.net.ring(spec.source.ring);
        let ring_r = self.net.ring(spec.dest.ring);

        // Step 1: bounds of the allocation line.
        let min_s = frames::min_allocation(ring_s, cfg.min_frame_efficiency);
        let min_r = frames::min_allocation(ring_r, cfg.min_frame_efficiency);
        let avail_s = self.available_on(spec.source.ring);
        let avail_r = self.available_on(spec.dest.ring);
        if avail_s < min_s.per_rotation() {
            let parts = tracing.then(|| TraceParts {
                allocation: None,
                connections: Vec::new(),
                binding: Some(BindingConstraint::SourceBandwidth {
                    ring: spec.source.ring.into(),
                    available: avail_s,
                    required: min_s.per_rotation(),
                }),
            });
            return Ok((
                Decision::Rejected(RejectReason::SourceBandwidthExhausted {
                    available: avail_s,
                    required: min_s.per_rotation(),
                }),
                parts,
            ));
        }
        if avail_r < min_r.per_rotation() {
            let parts = tracing.then(|| TraceParts {
                allocation: None,
                connections: Vec::new(),
                binding: Some(BindingConstraint::DestBandwidth {
                    ring: spec.dest.ring.into(),
                    available: avail_r,
                    required: min_r.per_rotation(),
                }),
            });
            return Ok((
                Decision::Rejected(RejectReason::DestBandwidthExhausted {
                    available: avail_r,
                    required: min_r.per_rotation(),
                }),
                parts,
            ));
        }
        let max_s = SyncBandwidth::new(avail_s);
        let max_r = SyncBandwidth::new(avail_r);
        let at = |lambda: f64| -> (SyncBandwidth, SyncBandwidth) {
            (min_s.lerp(max_s, lambda), min_r.lerp(max_r, lambda))
        };

        // One evaluator for the whole request: the sender-side analyses
        // of existing connections are computed once and reused across
        // every search iteration.
        let scope = self.scope(&spec, tracing)?;
        let base_inputs = self.inputs_with(&scope, None);
        let mk_inputs = |hs: SyncBandwidth, hr: SyncBandwidth| -> Vec<PathInput> {
            let mut v = base_inputs.clone();
            v.push(PathInput {
                source: spec.source,
                dest: spec.dest,
                envelope: Arc::clone(&spec.envelope),
                h_s: hs,
                h_r: hr,
                class: spec.class,
            });
            v
        };
        let mut carried = self.eval_cache.take().unwrap_or_default();
        // A persisted cache survives active-set changes (its keys are
        // content-addressed), so bound its growth here instead.
        if carried.stage1_entries() > self.cache_caps.stage1
            || carried.mux_entries() > self.cache_caps.mux
            || carried.receive_entries() > self.cache_caps.receive
        {
            carried.clear();
        }
        let mut ev = Evaluator::with_cache(&self.net, cfg.eval.clone(), carried);
        let mut fast_stats = FastPathStats::default();

        // Steps 2–5 run inside one closure so that the evaluator's cache
        // statistics are recorded on *every* exit path (admit, reject,
        // or error) before the evaluator is dropped.
        enum Search {
            Chosen(SyncBandwidth, SyncBandwidth, Vec<PathReport>),
            Reject(RejectReason, Option<TraceParts>),
        }
        // Deadlines of the evaluated connections, in input (= scope)
        // order, for the screened evaluations below.
        let deadlines: Vec<Seconds> = scope
            .iter()
            .map(|&i| self.active[i].spec.deadline)
            .collect();
        let searched: Result<Search, CacError> = (|| {
            // Step 2: the feasible region is empty unless the maximum works —
            // and because existing connections' delays are nondecreasing in
            // the newcomer's allocation, verifying them here covers every
            // smaller allocation the searches will visit.
            //
            // Without decision tracing nobody reads the per-connection
            // reports, so existing paths go through the screened check
            // (exact cache → monotone screening bound → dense): the
            // accept/reject outcome is identical, only the reports are
            // not materialized. `reports_at_max` stays empty then — it
            // is only ever consumed inside `tracing.then` closures.
            let reports_at_max = if !tracing {
                match ev.evaluate_screened(&mk_inputs(max_s, max_r), &deadlines)? {
                    ScreenedOutcome::Infeasible(detail) => {
                        return Ok(Search::Reject(
                            RejectReason::InfeasibleAtMaximum { detail },
                            None,
                        ));
                    }
                    ScreenedOutcome::DeadlineMiss { index, .. } => {
                        return Ok(Search::Reject(
                            RejectReason::InfeasibleAtMaximum {
                                detail: format!(
                                    "existing {} would miss its deadline",
                                    self.active[scope[index]].id
                                ),
                            },
                            None,
                        ));
                    }
                    ScreenedOutcome::Feasible { candidate } => {
                        if candidate.total > spec.deadline {
                            return Ok(Search::Reject(
                                RejectReason::InfeasibleAtMaximum {
                                    detail: "requesting connection misses its deadline at \
                                             (H_S^max, H_R^max)"
                                        .into(),
                                },
                                None,
                            ));
                        }
                        Vec::new()
                    }
                }
            } else {
                // Traced: the scope is every active connection, so report
                // indices are `active` indices below.
                let reports_at_max = match ev.evaluate_full(&mk_inputs(max_s, max_r))? {
                    EvalOutcome::Infeasible(detail) => {
                        let parts = tracing.then(|| TraceParts {
                            allocation: Some((max_s, max_r)),
                            connections: Vec::new(),
                            binding: Some(BindingConstraint::ServerUnstable {
                                detail: detail.clone(),
                            }),
                        });
                        return Ok(Search::Reject(
                            RejectReason::InfeasibleAtMaximum { detail },
                            parts,
                        ));
                    }
                    EvalOutcome::Feasible(reports) => reports,
                };
                for (i, c) in self.active.iter().enumerate() {
                    if reports_at_max[i].total > c.spec.deadline {
                        let parts = tracing.then(|| TraceParts {
                            allocation: Some((max_s, max_r)),
                            connections: self.traces_with_candidate(&reports_at_max, &spec),
                            binding: Some(deadline_binding(
                                Some(c.id),
                                &reports_at_max[i],
                                c.spec.deadline,
                            )),
                        });
                        return Ok(Search::Reject(
                            RejectReason::InfeasibleAtMaximum {
                                detail: format!("existing {} would miss its deadline", c.id),
                            },
                            parts,
                        ));
                    }
                }
                let candidate_at_max = *reports_at_max.last().expect("candidate included");
                if candidate_at_max.total > spec.deadline {
                    let parts = tracing.then(|| TraceParts {
                        allocation: Some((max_s, max_r)),
                        connections: self.traces_with_candidate(&reports_at_max, &spec),
                        binding: Some(deadline_binding(None, &candidate_at_max, spec.deadline)),
                    });
                    return Ok(Search::Reject(
                        RejectReason::InfeasibleAtMaximum {
                            detail:
                                "requesting connection misses its deadline at (H_S^max, H_R^max)"
                                    .into(),
                        },
                        parts,
                    ));
                }
                reports_at_max
            };

            // Reference signature at the maximum, for the eq.-31/32 test.
            // β = 0 never consumes it: λ* degenerates to λ_min, so the
            // whole step-4 signature search (the dense-probe storm of a
            // loaded closure) is skipped below.
            let ref_sig = if cfg.beta == 0.0 {
                None
            } else {
                match ev.evaluate_candidate(&mk_inputs(max_s, max_r))? {
                    CandidateOutcome::Feasible {
                        candidate,
                        mux_delays,
                    } => Some((candidate.total, mux_delays)),
                    CandidateOutcome::Infeasible(detail) => {
                        let parts = tracing.then(|| TraceParts {
                            allocation: Some((max_s, max_r)),
                            connections: self.traces_with_candidate(&reports_at_max, &spec),
                            binding: Some(BindingConstraint::ServerUnstable {
                                detail: detail.clone(),
                            }),
                        });
                        return Ok(Search::Reject(
                            RejectReason::InfeasibleAtMaximum { detail },
                            parts,
                        ));
                    }
                }
            };

            // Fast decision ladder for step 3's boolean probes (see
            // `crate::incremental`): assembled per decision from the
            // membership index the insert and remove paths keep up to
            // date and the evaluator's cached stage-1 summaries; `None`
            // runs everything densely.
            let fast_ctx = if self.fast_path {
                match FastContext::assemble(
                    &mut ev,
                    &self.net,
                    &self.index,
                    &self.active,
                    spec.source,
                    spec.dest,
                )? {
                    Ok(ctx) => Some(ctx),
                    Err(cause) => {
                        // The whole decision runs densely; count it so a
                        // depressed service-level hit rate is
                        // attributable to its cause.
                        fast_stats.record_skip(cause);
                        obs::event(
                            "fast_path_skipped",
                            &[("cause", obs::FieldValue::Str(cause))],
                        );
                        None
                    }
                }
            } else {
                None
            };

            // Candidate-only probe: feasibility is the newcomer's own
            // deadline (existing ones are covered by Step 2 + monotonicity).
            let probe = |ev: &mut Evaluator,
                         lambda: f64|
             -> Result<Option<(Seconds, Vec<Seconds>)>, CacError> {
                let (hs, hr) = at(lambda);
                match ev.evaluate_candidate(&mk_inputs(hs, hr))? {
                    CandidateOutcome::Feasible {
                        candidate,
                        mux_delays,
                    } if candidate.total <= spec.deadline => {
                        Ok(Some((candidate.total, mux_delays)))
                    }
                    _ => Ok(None),
                }
            };

            // Boolean wrapper for the step-3 bisection: the ladder may
            // decide feasibility outright, falling back to the dense
            // probe when no rung is decisive. Only these booleans ever
            // come from the ladder — steps 4–5 consume dense *values* —
            // so sound rungs keep the bisection path, and with it every
            // committed number, bit-identical to the fast-off run.
            let mut probe_hit = |ev: &mut Evaluator, lambda: f64| -> Result<bool, CacError> {
                if let Some(ctx) = fast_ctx.as_ref() {
                    let (hs, hr) = at(lambda);
                    let cand = PathInput {
                        source: spec.source,
                        dest: spec.dest,
                        envelope: Arc::clone(&spec.envelope),
                        h_s: hs,
                        h_r: hr,
                        class: spec.class,
                    };
                    if let Some(decided) = ctx.probe(ev, &cand, spec.deadline, &mut fast_stats)? {
                        return Ok(decided);
                    }
                }
                Ok(probe(ev, lambda)?.is_some())
            };

            // Step 3: minimum needed allocation along the line.
            let lambda_min = if probe_hit(&mut ev, 0.0)? {
                0.0
            } else {
                let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
                for _ in 0..cfg.search_iterations {
                    let mid = 0.5 * (lo + hi);
                    if probe_hit(&mut ev, mid)? {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                hi
            };

            // Step 4: maximum needed allocation — the smallest point whose
            // delay signature matches the maximum-allocation one (eqs.
            // 31–33). The "excess" of a point is how much delay performance
            // it still leaves on the table: the candidate's own gap to its
            // λ = 1 delay plus every multiplexer-bound shift (equal mux
            // delays imply equal existing-connection totals, since their
            // sender sides are fixed and their receive sides then see
            // identical inputs). When delays saturate the excess hits zero
            // and this is the paper's exact criterion; when they improve
            // continuously we accept the point realizing all but
            // `equality_tolerance` of the achievable improvement.
            let lambda_max = match &ref_sig {
                // β = 0: λ* = λ_min regardless of λ_max, so don't search.
                None => lambda_min,
                Some((ref_total, ref_mux)) => {
                    let excess = |total: Seconds, mux: &[Seconds]| -> f64 {
                        let mut e = (total.value() - ref_total.value()).abs();
                        if mux.len() == ref_mux.len() {
                            e += mux
                                .iter()
                                .zip(ref_mux)
                                .map(|(a, b)| (a.value() - b.value()).abs())
                                .sum::<f64>();
                        } else {
                            e += ref_total.value();
                        }
                        e
                    };
                    let at_min = probe(&mut ev, lambda_min)?;
                    let improvement_scale = at_min
                        .as_ref()
                        .map_or(0.0, |(total, mux)| excess(*total, mux))
                        .max(1.0e-9);
                    let equals_max = |total: Seconds, mux: &[Seconds]| {
                        excess(total, mux) <= cfg.equality_tolerance * improvement_scale
                    };
                    match at_min {
                        Some((total, ref mux)) if equals_max(total, mux) => lambda_min,
                        _ => {
                            let (mut lo, mut hi) = (lambda_min, 1.0_f64);
                            for _ in 0..cfg.search_iterations {
                                let mid = 0.5 * (lo + hi);
                                match probe(&mut ev, mid)? {
                                    Some((total, ref mux)) if equals_max(total, mux) => hi = mid,
                                    _ => lo = mid,
                                }
                            }
                            hi
                        }
                    }
                }
            };

            // Step 5: H = H_min_need + beta * (H_max_need - H_min_need).
            let lambda_star = lambda_min + cfg.beta * (lambda_max - lambda_min);
            // Final verification is a *full* evaluation: monotonicity is a
            // theorem about the model, but numerics can chip at it, so check
            // everything at the chosen point and fall back toward the
            // maximum on failure.
            let mut chosen = None;
            for lambda in [lambda_star, lambda_max, 1.0] {
                let (hs, hr) = at(lambda);
                if !tracing {
                    // Screened twin of the dense arm below: identical
                    // accept set (the screening bound only ever passes
                    // paths the dense check would pass), but only the
                    // candidate's report is materialized — which is the
                    // only one the commit path reads.
                    if let ScreenedOutcome::Feasible { candidate } =
                        ev.evaluate_screened(&mk_inputs(hs, hr), &deadlines)?
                    {
                        if candidate.total <= spec.deadline {
                            chosen = Some((hs, hr, vec![candidate]));
                            break;
                        }
                    }
                } else if let EvalOutcome::Feasible(reports) =
                    ev.evaluate_full(&mk_inputs(hs, hr))?
                {
                    let all_ok = self
                        .active
                        .iter()
                        .enumerate()
                        .all(|(i, c)| reports[i].total <= c.spec.deadline)
                        && reports.last().expect("candidate").total <= spec.deadline;
                    if all_ok {
                        chosen = Some((hs, hr, reports));
                        break;
                    }
                }
            }
            match chosen {
                Some((h_s, h_r, reports)) => Ok(Search::Chosen(h_s, h_r, reports)),
                None => {
                    let parts = tracing.then(|| TraceParts {
                        allocation: Some((max_s, max_r)),
                        connections: self.traces_with_candidate(&reports_at_max, &spec),
                        binding: Some(BindingConstraint::ServerUnstable {
                            detail: "allocation search failed to verify (numerical)".into(),
                        }),
                    });
                    Ok(Search::Reject(
                        RejectReason::InfeasibleAtMaximum {
                            detail: "allocation search failed to verify (numerical)".into(),
                        },
                        parts,
                    ))
                }
            }
        })();
        let stats = ev.cache_stats();
        let cache = ev.into_cache();
        self.last_cache_stats = Some(stats);
        self.last_fast_stats = Some(fast_stats);
        if self.persist_cache {
            self.eval_cache = Some(cache);
        }
        let (h_s, h_r, reports) = match searched? {
            Search::Chosen(h_s, h_r, reports) => (h_s, h_r, reports),
            Search::Reject(reason, parts) => return Ok((Decision::Rejected(reason), parts)),
        };

        let delay_bound = reports.last().expect("candidate included").total;
        let id = self.commit(spec, h_s, h_r, delay_bound)?;
        // Build the trace after the commit so the candidate's entry (the
        // last) carries its real id.
        let parts = tracing.then(|| TraceParts {
            allocation: Some((h_s, h_r)),
            connections: self.traces_committed(&reports),
            binding: None,
        });
        Ok((
            Decision::Admitted {
                id,
                h_s,
                h_r,
                delay_bound,
            },
            parts,
        ))
    }

    /// Admits a connection at a *fixed* allocation if (and only if) all
    /// deadlines hold there — no searching, no β.
    fn admit_fixed(
        &mut self,
        spec: ConnectionSpec,
        h_s: SyncBandwidth,
        h_r: SyncBandwidth,
        cfg: &CacConfig,
    ) -> Result<(Decision, Option<TraceParts>), CacError> {
        self.validate_spec(&spec)?;
        let tracing = self.trace_decisions;
        if let Some(component) = self.down_on_path(&spec)? {
            let parts = tracing.then(|| TraceParts {
                allocation: None,
                connections: Vec::new(),
                binding: Some(BindingConstraint::ComponentDown { component }),
            });
            return Ok((
                Decision::Rejected(RejectReason::ComponentUnavailable { component }),
                parts,
            ));
        }
        let avail_s = self.available_on(spec.source.ring);
        let avail_r = self.available_on(spec.dest.ring);
        if h_s.per_rotation() > avail_s {
            let parts = tracing.then(|| TraceParts {
                allocation: None,
                connections: Vec::new(),
                binding: Some(BindingConstraint::SourceBandwidth {
                    ring: spec.source.ring.into(),
                    available: avail_s,
                    required: h_s.per_rotation(),
                }),
            });
            return Ok((
                Decision::Rejected(RejectReason::SourceBandwidthExhausted {
                    available: avail_s,
                    required: h_s.per_rotation(),
                }),
                parts,
            ));
        }
        if h_r.per_rotation() > avail_r {
            let parts = tracing.then(|| TraceParts {
                allocation: None,
                connections: Vec::new(),
                binding: Some(BindingConstraint::DestBandwidth {
                    ring: spec.dest.ring.into(),
                    available: avail_r,
                    required: h_r.per_rotation(),
                }),
            });
            return Ok((
                Decision::Rejected(RejectReason::DestBandwidthExhausted {
                    available: avail_r,
                    required: h_r.per_rotation(),
                }),
                parts,
            ));
        }
        let scope = self.scope(&spec, tracing)?;
        let reports = match self.feasible_with(&spec, h_s, h_r, cfg, &scope)? {
            FixedCheck::Feasible(reports) => reports,
            FixedCheck::Unstable(detail) => {
                let parts = tracing.then(|| TraceParts {
                    allocation: Some((h_s, h_r)),
                    connections: Vec::new(),
                    binding: Some(BindingConstraint::ServerUnstable {
                        detail: detail.clone(),
                    }),
                });
                return Ok((
                    Decision::Rejected(RejectReason::InfeasibleAtMaximum { detail }),
                    parts,
                ));
            }
            FixedCheck::DeadlineMiss { victim, reports } => {
                let parts = tracing.then(|| {
                    let binding = match victim {
                        Some(i) => deadline_binding(
                            Some(self.active[i].id),
                            &reports[i],
                            self.active[i].spec.deadline,
                        ),
                        None => deadline_binding(
                            None,
                            reports.last().expect("candidate included"),
                            spec.deadline,
                        ),
                    };
                    TraceParts {
                        allocation: Some((h_s, h_r)),
                        connections: self.traces_with_candidate(&reports, &spec),
                        binding: Some(binding),
                    }
                });
                return Ok((
                    Decision::Rejected(RejectReason::InfeasibleAtMaximum {
                        detail: "deadline violated at the fixed allocation".into(),
                    }),
                    parts,
                ));
            }
        };
        let delay_bound = reports.last().expect("candidate included").total;
        let id = self.commit(spec, h_s, h_r, delay_bound)?;
        let parts = tracing.then(|| TraceParts {
            allocation: Some((h_s, h_r)),
            connections: self.traces_committed(&reports),
            binding: None,
        });
        Ok((
            Decision::Admitted {
                id,
                h_s,
                h_r,
                delay_bound,
            },
            parts,
        ))
    }

    /// Records an admission at the id a decision on this state would
    /// assign next. The admit paths commit through this, and so does
    /// the sharded engine for decisions taken over a scoped copy of
    /// this state ([`crate::shard::ShardedState::commit_admit`]). It
    /// decides nothing and notifies no observer.
    ///
    /// # Errors
    ///
    /// Returns [`CacError`] if the rings are unrouted or the
    /// allocations do not fit the rings' remaining budgets.
    pub(crate) fn commit(
        &mut self,
        spec: ConnectionSpec,
        h_s: SyncBandwidth,
        h_r: SyncBandwidth,
        delay_bound: Seconds,
    ) -> Result<ConnectionId, CacError> {
        let hops = hops_for(&self.net, spec.source, spec.dest)?;
        let id = ConnectionId(self.next_id);
        let conn = ActiveConnection {
            id,
            spec,
            h_s,
            h_r,
            delay_bound,
        };
        self.insert(conn, hops)?;
        self.next_id += 1;
        Ok(id)
    }

    /// The one path by which a connection joins the admitted set: its
    /// allocations, its index entry and its `active` slot are recorded
    /// together (or, on an allocation error, none is), and a
    /// non-persisted evaluator cache dies with the active-set change (a
    /// persisted one stays valid — see `persist_eval_cache`). Ids must
    /// arrive in ascending order.
    fn insert(
        &mut self,
        conn: ActiveConnection,
        hops: Vec<MuxKey>,
    ) -> Result<(), hetnet_fddi::FddiError> {
        debug_assert!(
            self.active.last().is_none_or(|c| c.id < conn.id),
            "admitted ids must ascend"
        );
        let key = AllocationKey(conn.id.0);
        let (ring_s, ring_r) = (conn.spec.source.ring, conn.spec.dest.ring);
        self.tables[ring_s].allocate(key, conn.h_s, self.net.ring(ring_s))?;
        if let Err(e) = self.tables[ring_r].allocate(key, conn.h_r, self.net.ring(ring_r)) {
            // Roll back the source allocation before surfacing the error.
            let _ = self.tables[ring_s].release(key);
            return Err(e);
        }
        self.index.insert(conn.id, hops);
        self.active.push(conn);
        if !self.persist_cache {
            self.eval_cache = None;
        }
        Ok(())
    }

    /// The one path by which a connection leaves the admitted set, the
    /// mirror of [`NetworkState::insert`].
    pub(crate) fn remove(&mut self, id: ConnectionId) -> Result<ActiveConnection, CacError> {
        let idx = self.position(id).ok_or(CacError::UnknownConnection(id))?;
        let conn = self.active.remove(idx);
        self.index.remove(id);
        if !self.persist_cache {
            self.eval_cache = None;
        }
        let key = AllocationKey(id.0);
        self.tables[conn.spec.source.ring].release(key)?;
        self.tables[conn.spec.dest.ring].release(key)?;
        Ok(conn)
    }

    /// Tears down an active connection, releasing its allocations.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::UnknownConnection`] if `id` is not active.
    pub fn release(&mut self, id: ConnectionId) -> Result<(), CacError> {
        self.remove(id).map(drop)
    }

    /// Marks a component as failed, tearing down every active
    /// connection whose path crosses it and reclaiming their `H_S` /
    /// `H_R` allocations. Idempotent: downing an already-down component
    /// tears down nothing further (its connections are already gone).
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidNetwork`] for a component outside
    /// this topology; propagates bookkeeping errors from teardown.
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
            // A ring or its interface device carries every flow sourced
            // (uplink) or sunk (downlink) there; a link, the flows
            // routed over it. Victims go in id order.
            let crossed = match component {
                Component::Ring(r) | Component::IfDev(r) => {
                    vec![MuxKey::Uplink(r.0), MuxKey::Downlink(r.0)]
                }
                Component::Link(l) => vec![MuxKey::Backbone(l.0)],
            };
            let victims: BTreeSet<ConnectionId> = crossed
                .into_iter()
                .flat_map(|key| self.index.members(key))
                .map(|&(id, _)| id)
                .collect();
            for id in victims {
                let conn = self.remove(id)?;
                report.reclaimed_s += conn.h_s.per_rotation();
                report.reclaimed_r += conn.h_r.per_rotation();
                report.torn.push(conn);
            }
        }
        obs::event(
            "component_down",
            &[
                ("kind", obs::FieldValue::Str(component.kind())),
                ("index", obs::FieldValue::U64(component.index() as u64)),
                ("torn", obs::FieldValue::U64(report.torn.len() as u64)),
            ],
        );
        Ok(report)
    }

    /// Restores a failed component. Returns whether it was down (a
    /// repeat restore is a no-op returning `false`). Torn-down
    /// connections do *not* come back automatically — re-admission is a
    /// policy decision left to the caller (the service layer's
    /// "re-admit greedily").
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidNetwork`] for a component outside
    /// this topology.
    pub fn set_component_up(&mut self, component: Component) -> Result<bool, CacError> {
        self.validate_component(component)?;
        let was_down = self.down.remove(&component);
        obs::event(
            "component_up",
            &[
                ("kind", obs::FieldValue::Str(component.kind())),
                ("index", obs::FieldValue::U64(component.index() as u64)),
                ("was_down", obs::FieldValue::Bool(was_down)),
            ],
        );
        Ok(was_down)
    }

    /// The components currently marked down, in sorted order.
    #[must_use]
    pub fn down_components(&self) -> Vec<Component> {
        self.down.iter().copied().collect()
    }

    /// The first down component on a request's path, if any — checked
    /// in a fixed order (source ring, source device, backbone links in
    /// route order, destination device, destination ring) so decisions
    /// stay deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`CacError`] if the rings are out of range or unrouted.
    pub fn down_on_path(&self, spec: &ConnectionSpec) -> Result<Option<Component>, CacError> {
        if self.down.is_empty() {
            return Ok(None);
        }
        let ordered = [
            Component::Ring(RingId(spec.source.ring)),
            Component::IfDev(RingId(spec.source.ring)),
        ];
        for c in ordered {
            if self.down.contains(&c) {
                return Ok(Some(c));
            }
        }
        for link in self
            .net
            .route_between(spec.source.ring, spec.dest.ring)?
            .iter()
        {
            let c = Component::Link(*link);
            if self.down.contains(&c) {
                return Ok(Some(c));
            }
        }
        for c in [
            Component::IfDev(RingId(spec.dest.ring)),
            Component::Ring(RingId(spec.dest.ring)),
        ] {
            if self.down.contains(&c) {
                return Ok(Some(c));
            }
        }
        Ok(None)
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

    /// Captures the full admission state in a versioned, restorable
    /// form; see [`crate::snapshot`] for the lossless-ness contract.
    #[must_use]
    pub fn snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            version: SNAPSHOT_VERSION,
            topology: self.net.summary(),
            rings: self.net.rings().to_vec(),
            connections: self
                .active
                .iter()
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
            down: self.down.iter().copied().collect(),
            next_id: self.next_id,
            clock: self.clock,
            decision_seq: self.decision_seq,
        }
    }

    /// Replaces this state's admission bookkeeping with the snapshot's:
    /// active set, allocation tables (rebuilt by re-allocating in
    /// admission order, which reproduces the original tables
    /// bit-for-bit), down set, id counter, clock and decision sequence.
    /// The snapshot's ring parameters are *adopted*: when they differ
    /// from this network's (the snapshot was taken after a live
    /// [`NetworkState::reconfigure`]), the rings are retuned to match
    /// before the tables are rebuilt, so recovery lands on the
    /// reconfigured timing. The evaluator cache and last-decision trace
    /// are cleared (both are decision-neutral); the installed observer
    /// and tracing flag are left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::SnapshotMismatch`] for a wrong version,
    /// topology, or ring count, for connection ids that are not strictly
    /// ascending below `next_id`, or if the snapshot's allocations do
    /// not fit the rings (a corrupted snapshot). A failed restore leaves
    /// the state untouched.
    pub fn restore(&mut self, snap: &StateSnapshot) -> Result<(), CacError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(CacError::SnapshotMismatch(format!(
                "snapshot version {} != supported {SNAPSHOT_VERSION}",
                snap.version
            )));
        }
        if snap.topology != self.net.summary() {
            return Err(CacError::SnapshotMismatch(format!(
                "snapshot topology ({}) != this network ({})",
                snap.topology,
                self.net.summary()
            )));
        }
        let net = if snap.rings.as_slice() == self.net.rings() {
            Arc::clone(&self.net)
        } else {
            Arc::new(
                self.net
                    .as_ref()
                    .with_ring_configs(snap.rings.clone())
                    .map_err(|e| {
                        CacError::SnapshotMismatch(format!("snapshot ring parameters: {e}"))
                    })?,
            )
        };
        // Rebuild through the insert path on a fresh state, so the
        // tables, the index and the id order come out exactly as the
        // admissions left them, and an error leaves `self` as it was.
        let mut fresh = Self::new_shared(net);
        for c in &snap.connections {
            if c.id.0 >= snap.next_id {
                return Err(CacError::SnapshotMismatch(format!(
                    "{} not below next_id {}",
                    c.id, snap.next_id
                )));
            }
            if fresh.active.last().is_some_and(|p| p.id >= c.id) {
                return Err(CacError::SnapshotMismatch(format!(
                    "snapshot ids not strictly ascending at {}",
                    c.id
                )));
            }
            let spec = c.spec();
            let hops = hops_for(&fresh.net, spec.source, spec.dest)?;
            let conn = ActiveConnection {
                id: c.id,
                spec,
                h_s: c.h_s,
                h_r: c.h_r,
                delay_bound: c.delay_bound,
            };
            fresh.insert(conn, hops).map_err(|e| {
                CacError::SnapshotMismatch(format!("snapshot allocations do not fit: {e}"))
            })?;
        }
        self.net = fresh.net;
        self.tables = fresh.tables;
        self.active = fresh.active;
        self.index = fresh.index;
        self.down = snap.down.iter().copied().collect();
        self.next_id = snap.next_id;
        self.clock = snap.clock;
        self.decision_seq = snap.decision_seq;
        self.eval_cache = None;
        self.last_cache_stats = None;
        self.last_fast_stats = None;
        self.last_trace = None;
        Ok(())
    }

    /// Builds a fresh state over `net` directly from a snapshot —
    /// [`NetworkState::new`] followed by [`NetworkState::restore`].
    ///
    /// # Errors
    ///
    /// As for [`NetworkState::restore`].
    pub fn from_snapshot(net: HetNetwork, snap: &StateSnapshot) -> Result<Self, CacError> {
        let mut state = Self::new(net);
        state.restore(snap)?;
        Ok(state)
    }

    /// Applies a live reconfiguration: the ring parameters change in
    /// place per `plan`, and every admitted connection is renegotiated
    /// against the new parameters — in admission (id) order, *keeping
    /// its id* — under `opts` (with `plan.beta` substituted into the
    /// β-search when set). Connections that no longer fit are dropped
    /// and returned in the report for the caller to park and retry.
    ///
    /// Keeping ids makes the operation certifiable: a fresh state built
    /// at the new parameters and fed the surviving specs through
    /// [`NetworkState::admit`] in the same order computes bit-identical
    /// allocations — ids only order the allocation tables and
    /// multiplexer memberships, and an order-preserving renumbering
    /// never changes a sum — so post-reconfig decisions are
    /// bit-identical to that fresh engine's (pinned by the reconfig
    /// certification tests). It also keeps `next_id` monotone, so
    /// departure bookkeeping above the core never sees an id reused.
    ///
    /// The membership index is rebuilt by the renegotiations' commits;
    /// the evaluator cache is dropped wholesale (its keys do not span ring parameters). The
    /// reconfiguration consumes one decision sequence number and
    /// reaches the observer via
    /// [`DecisionObserver::on_reconfig`], so audit logs built on the
    /// sequence stay gap-free.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidRequest`] for a malformed plan,
    /// [`CacError::InvalidNetwork`] if the resulting ring parameters
    /// are invalid (e.g. Δ ≥ TTRT), and propagates evaluator errors
    /// from the renegotiations — after which the state must be
    /// considered poisoned, like any bookkeeping error.
    pub fn reconfigure(
        &mut self,
        plan: &ReconfigPlan,
        opts: &AdmissionOptions,
    ) -> Result<ReconfigReport, CacError> {
        let _span = obs::span("reconfigure");
        let new_rings = plan.apply(self.net.rings())?;
        let net = Arc::new(self.net.as_ref().with_ring_configs(new_rings)?);
        let mut report = ReconfigReport {
            old_allocatable: self.net.rings().iter().map(|r| r.allocatable()).collect(),
            new_allocatable: net.rings().iter().map(|r| r.allocatable()).collect(),
            ..ReconfigReport::default()
        };
        let survivors = std::mem::take(&mut self.active);
        let saved_next_id = self.next_id;
        self.net = net;
        self.tables = vec![SyncAllocationTable::new(); self.net.rings().len()];
        self.index = MuxIndex::default();
        self.eval_cache = None;
        self.last_cache_stats = None;
        self.last_fast_stats = None;
        self.last_trace = None;
        let mut cac = opts.cac.clone();
        if let Some(beta) = plan.beta {
            cac.beta = beta;
        }
        for conn in survivors {
            // Renegotiate through the regular admission paths, but with
            // the id counter pinned to the connection's original id: the
            // commit then re-assigns exactly that id, and because the
            // survivors arrive in ascending id order the allocation
            // tables are rebuilt in the same summation order a fresh
            // engine would produce.
            self.next_id = conn.id.0;
            let (decision, _parts) = match opts.allocation {
                AllocationPolicy::BetaSearch => self.admit_beta(conn.spec.clone(), &cac)?,
                AllocationPolicy::Fixed { h_s, h_r } => {
                    self.admit_fixed(conn.spec.clone(), h_s, h_r, &cac)?
                }
            };
            match decision {
                Decision::Admitted { id, h_s, h_r, .. } => {
                    debug_assert_eq!(id, conn.id, "renegotiation must keep the id");
                    let identical = h_s.per_rotation().value().to_bits()
                        == conn.h_s.per_rotation().value().to_bits()
                        && h_r.per_rotation().value().to_bits()
                            == conn.h_r.per_rotation().value().to_bits();
                    if identical {
                        report.unchanged.push(id);
                    } else {
                        report.renegotiated.push(id);
                    }
                }
                Decision::Rejected(_) => {
                    report.reclaimed_s += conn.h_s.per_rotation();
                    report.reclaimed_r += conn.h_r.per_rotation();
                    report.dropped.push(conn);
                }
            }
        }
        self.next_id = saved_next_id;
        let seq = self.decision_seq;
        self.decision_seq += 1;
        obs::event(
            "reconfigure",
            &[
                ("seq", obs::FieldValue::U64(seq)),
                (
                    "renegotiated",
                    obs::FieldValue::U64(report.renegotiated.len() as u64),
                ),
                (
                    "unchanged",
                    obs::FieldValue::U64(report.unchanged.len() as u64),
                ),
                ("dropped", obs::FieldValue::U64(report.dropped.len() as u64)),
            ],
        );
        if let Some(mut hook) = self.observer.take() {
            hook.on_reconfig(seq, &report);
            self.observer = Some(hook);
        }
        Ok(report)
    }

    /// Copies out the dependency closure of the multiplexers `seeds` —
    /// every connection crossing one, closed under "shares a
    /// multiplexer with" — with every multiplexer the closure crosses.
    /// The copy is all [`ClosureCopy::into_state`] needs to build the
    /// scoped state, so a caller reading under a lock can release it
    /// before that build.
    pub(crate) fn read_closure(
        &self,
        seeds: impl IntoIterator<Item = MuxKey>,
    ) -> (ClosureCopy, BTreeSet<MuxKey>) {
        let (muxes, ids) = self.index.closure(seeds);
        let members = ids
            .into_iter()
            .map(|id| {
                let i = self.position(id).expect("indexed connection is active");
                (self.active[i].clone(), self.index.hops(id).to_vec())
            })
            .collect();
        let copy = ClosureCopy {
            net: Arc::clone(&self.net),
            members,
            down: self.down.clone(),
            next_id: self.next_id,
        };
        (copy, muxes)
    }

    /// Recomputes every active connection's *slack*: deadline minus the
    /// current worst-case delay bound. Operators watch these to see how
    /// close the admitted set runs to its contracts (a β = 0 network
    /// shows slacks near zero; larger β buys headroom).
    ///
    /// # Errors
    ///
    /// Returns [`CacError`] if the state is internally inconsistent.
    pub fn slacks(&self, cfg: &CacConfig) -> Result<Vec<(ConnectionId, Seconds)>, CacError> {
        let delays = self.current_delays(cfg)?;
        Ok(delays
            .into_iter()
            .zip(&self.active)
            .map(|((id, d), c)| (id, c.spec.deadline - d))
            .collect())
    }

    /// Recomputes every active connection's current delay bound.
    ///
    /// # Errors
    ///
    /// Returns [`CacError`] if the state is internally inconsistent.
    pub fn current_delays(
        &self,
        cfg: &CacConfig,
    ) -> Result<Vec<(ConnectionId, Seconds)>, CacError> {
        let all: Vec<usize> = (0..self.active.len()).collect();
        let inputs = self.inputs_with(&all, None);
        match evaluate_paths(&self.net, &inputs, &cfg.eval)? {
            EvalOutcome::Feasible(reports) => Ok(self
                .active
                .iter()
                .zip(reports)
                .map(|(c, r)| (c.id, r.total))
                .collect()),
            EvalOutcome::Infeasible(detail) => Err(CacError::Substrate(format!(
                "admitted set became infeasible: {detail} (invariant violation)"
            ))),
        }
    }

    fn validate_spec(&self, spec: &ConnectionSpec) -> Result<(), CacError> {
        if !self.net.contains(spec.source) {
            return Err(CacError::InvalidRequest(format!(
                "unknown source {}",
                spec.source
            )));
        }
        if !self.net.contains(spec.dest) {
            return Err(CacError::InvalidRequest(format!(
                "unknown dest {}",
                spec.dest
            )));
        }
        if spec.source.ring == spec.dest.ring {
            return Err(CacError::InvalidRequest(
                "source and destination must be on different rings".into(),
            ));
        }
        if spec.deadline.value() <= 0.0 {
            return Err(CacError::InvalidRequest("deadline must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::HostId;
    use hetnet_fddi::ring::RingConfig;
    use hetnet_traffic::models::DualPeriodicEnvelope;
    use hetnet_traffic::units::{Bits, BitsPerSec};

    fn state() -> NetworkState {
        NetworkState::new(HetNetwork::paper_topology())
    }

    fn spec(src: (usize, usize), dst: (usize, usize), deadline_ms: f64) -> ConnectionSpec {
        ConnectionSpec {
            source: HostId {
                ring: src.0,
                station: src.1,
            },
            dest: HostId {
                ring: dst.0,
                station: dst.1,
            },
            envelope: Arc::new(
                DualPeriodicEnvelope::new(
                    Bits::from_mbits(2.0),
                    Seconds::from_millis(100.0),
                    Bits::from_mbits(0.25),
                    Seconds::from_millis(10.0),
                    BitsPerSec::from_mbps(100.0),
                )
                .unwrap(),
            ),
            deadline: Seconds::from_millis(deadline_ms),
            class: 0,
        }
    }

    /// `spec` at a tenth of its load, so one ring carries many flows.
    fn light(src: (usize, usize), dst: (usize, usize), deadline_ms: f64) -> ConnectionSpec {
        ConnectionSpec {
            envelope: Arc::new(
                DualPeriodicEnvelope::new(
                    Bits::from_mbits(0.2),
                    Seconds::from_millis(100.0),
                    Bits::from_mbits(0.025),
                    Seconds::from_millis(10.0),
                    BitsPerSec::from_mbps(100.0),
                )
                .unwrap(),
            ),
            ..spec(src, dst, deadline_ms)
        }
    }

    #[test]
    fn admits_a_reasonable_request() {
        let mut s = state();
        let cfg = CacConfig::default();
        let d = s
            .admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap();
        match d {
            Decision::Admitted {
                h_s,
                h_r,
                delay_bound,
                ..
            } => {
                assert!(delay_bound <= Seconds::from_millis(100.0));
                assert!(h_s.per_rotation().value() > 0.0);
                assert!(h_r.per_rotation().value() > 0.0);
                // The allocation is recorded on both rings.
                assert!(s.available_on(0) < Seconds::from_millis(7.2));
                assert!(s.available_on(1) < Seconds::from_millis(7.2));
                assert_eq!(s.active().len(), 1);
            }
            Decision::Rejected(r) => panic!("unexpected rejection: {r}"),
        }
    }

    /// Untraced admissions evaluate the candidate's dependency closure
    /// only. On `grid(4, 3)` the 0↔1 and 2↔3 ring pairs share no
    /// multiplexer, so a 0↔1 candidate makes exactly the stage-1 lookups
    /// (and the decision) it would make with no 2↔3 flows at all; a
    /// traced decision still evaluates every connection.
    #[test]
    fn untraced_admission_evaluates_only_the_candidate_closure() {
        let opts: AdmissionOptions = CacConfig::fast().into();
        let grid = || NetworkState::new(HetNetwork::grid(4, 3));
        let spec = light;
        let (mut both, mut alone, mut traced) = (grid(), grid(), grid());
        traced.set_decision_tracing(true);
        for (pair01, pair23) in [
            (spec((0, 0), (1, 0), 100.0), spec((2, 0), (3, 0), 100.0)),
            (spec((1, 1), (0, 1), 100.0), spec((3, 1), (2, 1), 100.0)),
        ] {
            for s in [&mut both, &mut traced] {
                assert!(s.admit(pair01.clone(), &opts).unwrap().is_admitted());
                assert!(s.admit(pair23.clone(), &opts).unwrap().is_admitted());
            }
            assert!(alone.admit(pair01, &opts).unwrap().is_admitted());
        }
        let candidate = spec((0, 2), (1, 2), 100.0);
        let allocation = |s: &mut NetworkState| match s.admit(candidate.clone(), &opts).unwrap() {
            Decision::Admitted {
                h_s,
                h_r,
                delay_bound,
                ..
            } => (
                h_s.per_rotation().value().to_bits(),
                h_r.per_rotation().value().to_bits(),
                delay_bound.value().to_bits(),
            ),
            Decision::Rejected(r) => panic!("rejected: {r}"),
        };
        let lookups = |s: &NetworkState| {
            let c = s.last_cache_stats().expect("a β-search ran");
            c.stage1_hits + c.stage1_misses
        };
        let decided = allocation(&mut both);
        assert_eq!(decided, allocation(&mut alone));
        assert_eq!(decided, allocation(&mut traced));
        assert_eq!(
            lookups(&both),
            lookups(&alone),
            "the 2↔3 flows must not be evaluated"
        );
        assert!(
            lookups(&traced) > lookups(&both),
            "a traced decision reports, so evaluates, every connection"
        );
    }

    /// The closure is transitive: a 2→1 flow shares the candidate's
    /// downlink into ring 1, and a 2→3 flow shares only that flow's
    /// uplink, yet it shapes the 2→1 flow's arrivals and so belongs to
    /// the closure; a 3→2 flow shares nothing with either and does not.
    #[test]
    fn candidate_closure_follows_shared_multiplexers_transitively() {
        let opts: AdmissionOptions = CacConfig::fast().into();
        type Endpoints = ((usize, usize), (usize, usize));
        let decide = |flows: &[Endpoints], tracing: bool| {
            let mut s = NetworkState::new(HetNetwork::grid(4, 3));
            s.set_decision_tracing(tracing);
            for &(src, dst) in flows {
                assert!(s
                    .admit(light(src, dst, 100.0), &opts)
                    .unwrap()
                    .is_admitted());
            }
            let Decision::Admitted {
                h_s, delay_bound, ..
            } = s.admit(light((0, 2), (1, 2), 100.0), &opts).unwrap()
            else {
                panic!("candidate fits")
            };
            let c = s.last_cache_stats().expect("a β-search ran");
            (
                h_s.per_rotation().value().to_bits(),
                delay_bound.value().to_bits(),
                c.stage1_hits + c.stage1_misses,
            )
        };
        let (f1, f2, f3) = (((2, 0), (1, 0)), ((2, 1), (3, 1)), ((3, 2), (2, 2)));
        assert_eq!(decide(&[f1, f2, f3], false), decide(&[f1, f2], true));
    }

    /// A closure-scoped screened check names the existing connection
    /// that would miss its deadline by its `active` id, not by its
    /// position in the closure: the reject detail equals the traced
    /// (full-scope) decision's.
    #[test]
    fn scoped_deadline_miss_names_the_right_connection() {
        let cac = CacConfig::fast();
        let h = SyncBandwidth::new(Seconds::from_millis(1.0));
        let fixed = AdmissionOptions::fixed(cac.clone(), h, h);
        // The victim's exact bound with nothing else on its multiplexers.
        let mut victim = light((0, 0), (1, 0), 1000.0);
        let mut probe = NetworkState::new(HetNetwork::grid(4, 3));
        let Decision::Admitted { delay_bound, .. } = probe.admit(victim.clone(), &fixed).unwrap()
        else {
            panic!("victim fits alone")
        };
        victim.deadline = delay_bound;
        let mut rejects = Vec::new();
        for tracing in [false, true] {
            let mut s = NetworkState::new(HetNetwork::grid(4, 3));
            s.set_decision_tracing(tracing);
            // Unrelated 2↔3 flows first, so the victim's closure index
            // (0) differs from its `active` index (2).
            for (src, dst) in [((2, 0), (3, 0)), ((3, 1), (2, 1))] {
                assert!(s
                    .admit(light(src, dst, 1000.0), &fixed)
                    .unwrap()
                    .is_admitted());
            }
            assert!(s.admit(victim.clone(), &fixed).unwrap().is_admitted());
            let candidate = spec((0, 1), (1, 1), 1000.0);
            match s.admit(candidate, &cac.clone().into()).unwrap() {
                Decision::Rejected(r) => rejects.push(r.to_string()),
                Decision::Admitted { .. } => panic!("the victim's deadline has no slack"),
            }
        }
        let expected = format!("existing {} would miss its deadline", ConnectionId(2));
        assert!(rejects[0].contains(&expected), "{}", rejects[0]);
        assert_eq!(rejects[0], rejects[1]);
    }

    #[test]
    fn rejects_impossible_deadline() {
        let mut s = state();
        let cfg = CacConfig::default();
        // Two token rotations alone exceed 1 ms.
        let d = s
            .admit(spec((0, 0), (1, 0), 1.0), &cfg.clone().into())
            .unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::InfeasibleAtMaximum { .. })
        ));
        assert!(s.active().is_empty());
        // Nothing was allocated.
        assert!((s.available_on(0).as_millis() - 7.2).abs() < 1e-9);
    }

    #[test]
    fn beta_interpolates_between_min_and_max() {
        let cfg0 = CacConfig::default().with_beta(0.0);
        let cfg1 = CacConfig::default().with_beta(1.0);
        let cfg_half = CacConfig::default().with_beta(0.5);
        let mut h = Vec::new();
        for cfg in [&cfg0, &cfg_half, &cfg1] {
            let mut s = state();
            match s
                .admit(spec((0, 0), (1, 0), 60.0), &cfg.clone().into())
                .unwrap()
            {
                Decision::Admitted { h_s, .. } => h.push(h_s.per_rotation().value()),
                Decision::Rejected(r) => panic!("rejected: {r}"),
            }
        }
        assert!(h[0] <= h[1] + 1e-12, "beta=0 gives the least: {h:?}");
        assert!(h[1] <= h[2] + 1e-12, "beta=1 gives the most: {h:?}");
        assert!(h[2] > h[0], "the spread is non-trivial: {h:?}");
    }

    #[test]
    fn release_returns_bandwidth() {
        let mut s = state();
        let cfg = CacConfig::default();
        let Decision::Admitted { id, .. } = s
            .admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap()
        else {
            panic!("expected admission")
        };
        assert!(s.host_busy(HostId {
            ring: 0,
            station: 0
        }));
        s.release(id).unwrap();
        assert!(s.active().is_empty());
        assert!((s.available_on(0).as_millis() - 7.2).abs() < 1e-9);
        assert!((s.available_on(1).as_millis() - 7.2).abs() < 1e-9);
        assert!(matches!(s.release(id), Err(CacError::UnknownConnection(_))));
    }

    #[test]
    fn existing_deadlines_are_protected() {
        let mut s = state();
        // Admit one connection with a deadline so tight that almost any
        // added disturbance would violate it; with beta=0 it is left with
        // a bare-minimum allocation and thus no slack.
        let cfg_tight = CacConfig::default().with_beta(0.0);
        let first = s
            .admit(spec((0, 0), (1, 0), 60.0), &cfg_tight.clone().into())
            .unwrap();
        let Decision::Admitted { delay_bound, .. } = first else {
            panic!("first must be admitted")
        };
        // Tighten: record how close the first connection runs.
        assert!(delay_bound <= Seconds::from_millis(60.0));
        // Request a second connection sharing both rings. Whatever the
        // decision, the first connection's deadline must still hold.
        let cfg = CacConfig::default();
        let _ = s
            .admit(spec((0, 1), (1, 1), 60.0), &cfg.clone().into())
            .unwrap();
        let delays = s.current_delays(&cfg).unwrap();
        for (i, (_, d)) in delays.iter().enumerate() {
            assert!(
                *d <= s.active()[i].spec.deadline,
                "connection {i} violated after admission"
            );
        }
    }

    #[test]
    fn fills_ring_until_exhausted() {
        let mut s = state();
        let cfg = CacConfig::default().with_beta(1.0);
        let mut admitted = 0;
        // Station indices cycle through ring 0's four hosts; allow
        // multiple per host for this capacity test.
        for k in 0..8 {
            let d = s
                .admit(
                    spec((0, k % 4), (1 + (k % 2), k % 4), 120.0),
                    &cfg.clone().into(),
                )
                .unwrap();
            if d.is_admitted() {
                admitted += 1;
            } else {
                break;
            }
        }
        // beta = 1 grabs everything useful; the ring saturates quickly.
        assert!(admitted >= 1);
        assert!(
            admitted < 8,
            "greedy allocation must eventually exhaust ring 0"
        );
    }

    #[test]
    fn request_reports_cache_hits() {
        let mut s = state();
        let cfg = CacConfig::fast();
        assert!(s.last_cache_stats().is_none());
        s.admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap();
        let first = s.last_cache_stats().expect("stats after a request");
        // Even a lone request reuses its stage-1 analyses and the muxes
        // untouched between the feasibility check and the searches.
        assert!(first.stage1_hits > 0, "{first:?}");
        // A second request runs its line search against the first as
        // background: the background-only muxes are analyzed once and
        // then served from cache on every probe.
        s.admit(spec((1, 0), (2, 0), 120.0), &cfg.clone().into())
            .unwrap();
        let second = s.last_cache_stats().expect("stats after a request");
        assert!(second.mux_hits > 0, "{second:?}");
        assert!(second.mux_hit_rate() > 0.0);
        assert!(second.stage1_hit_rate() > 0.0);
    }

    #[test]
    fn persistent_cache_warms_repeated_requests() {
        let cfg = CacConfig::fast();
        let mut s = state();
        s.persist_eval_cache(true);
        // An impossible deadline is rejected at step 2 without touching
        // the active set, so the carried cache stays valid.
        let sp = spec((0, 0), (1, 0), 1.0);
        assert!(!s
            .admit(sp.clone(), &cfg.clone().into())
            .unwrap()
            .is_admitted());
        // Retrying the identical request is served entirely from the
        // carried cache: zero misses in either stage.
        assert!(!s.admit(sp, &cfg.clone().into()).unwrap().is_admitted());
        let second = s.last_cache_stats().expect("stats recorded");
        assert_eq!(second.stage1_misses, 0, "{second:?}");
        assert_eq!(second.mux_misses, 0, "{second:?}");
        assert!(second.stage1_hits > 0 && second.mux_hits > 0, "{second:?}");
    }

    #[test]
    fn persistent_cache_does_not_change_decisions() {
        let cfg = CacConfig::fast();
        let mut plain = state();
        let mut warmed = state();
        warmed.persist_eval_cache(true);
        // A mix of admissions and rejections over shared envelopes; the
        // admitted allocations must agree bit-for-bit.
        let requests = [
            spec((0, 0), (1, 0), 100.0),
            spec((0, 1), (1, 1), 1.0),
            spec((0, 1), (1, 1), 80.0),
            spec((1, 0), (2, 0), 120.0),
        ];
        for (k, sp) in requests.into_iter().enumerate() {
            let a = plain.admit(sp.clone(), &cfg.clone().into()).unwrap();
            let b = warmed.admit(sp, &cfg.clone().into()).unwrap();
            match (a, b) {
                (
                    Decision::Admitted {
                        h_s: hs_a,
                        h_r: hr_a,
                        delay_bound: d_a,
                        ..
                    },
                    Decision::Admitted {
                        h_s: hs_b,
                        h_r: hr_b,
                        delay_bound: d_b,
                        ..
                    },
                ) => {
                    assert_eq!(
                        hs_a.per_rotation().value().to_bits(),
                        hs_b.per_rotation().value().to_bits(),
                        "request {k}: H_S diverged"
                    );
                    assert_eq!(
                        hr_a.per_rotation().value().to_bits(),
                        hr_b.per_rotation().value().to_bits(),
                        "request {k}: H_R diverged"
                    );
                    assert_eq!(
                        d_a.value().to_bits(),
                        d_b.value().to_bits(),
                        "request {k}: delay bound diverged"
                    );
                }
                (Decision::Rejected(_), Decision::Rejected(_)) => {}
                (a, b) => panic!("request {k}: decisions diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn request_fixed_respects_budget_and_deadline() {
        let mut s = state();
        let cfg = CacConfig::default();
        let h = SyncBandwidth::new(Seconds::from_millis(2.4));
        let d = s
            .admit(
                spec((0, 0), (1, 0), 100.0),
                &AdmissionOptions::fixed(cfg.clone(), h, h),
            )
            .unwrap();
        assert!(d.is_admitted());
        // Asking for more than remains on ring 0 is rejected outright.
        let whole = SyncBandwidth::new(Seconds::from_millis(7.0));
        let d = s
            .admit(
                spec((0, 1), (2, 0), 100.0),
                &AdmissionOptions::fixed(cfg.clone(), whole, h),
            )
            .unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::SourceBandwidthExhausted { .. })
        ));
        // An undersized fixed allocation fails the deadline check.
        let tiny = SyncBandwidth::new(Seconds::from_micros(200.0));
        let d = s
            .admit(
                spec((0, 1), (2, 0), 100.0),
                &AdmissionOptions::fixed(cfg.clone(), tiny, tiny),
            )
            .unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::InfeasibleAtMaximum { .. })
        ));
    }

    #[test]
    fn malformed_requests_rejected_as_errors() {
        let mut s = state();
        let cfg = CacConfig::default();
        let mut bad = spec((0, 0), (1, 0), 100.0);
        bad.dest.ring = 0;
        assert!(matches!(
            s.admit(bad, &cfg.clone().into()),
            Err(CacError::InvalidRequest(_))
        ));
        let mut bad = spec((0, 0), (1, 0), 100.0);
        bad.deadline = Seconds::ZERO;
        assert!(matches!(
            s.admit(bad, &cfg.clone().into()),
            Err(CacError::InvalidRequest(_))
        ));
        let mut bad = spec((0, 0), (1, 0), 100.0);
        bad.source.station = 77;
        assert!(matches!(
            s.admit(bad, &cfg.clone().into()),
            Err(CacError::InvalidRequest(_))
        ));
    }

    #[test]
    #[should_panic(expected = "beta must be in [0, 1]")]
    fn beta_validated() {
        let _ = CacConfig::default().with_beta(1.5);
    }

    #[test]
    fn slacks_are_nonnegative_and_deadline_bounded() {
        let mut s = state();
        let cfg = CacConfig::fast();
        s.admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap();
        s.admit(spec((1, 0), (2, 0), 120.0), &cfg.clone().into())
            .unwrap();
        let slacks = s.slacks(&cfg).unwrap();
        assert_eq!(slacks.len(), s.active().len());
        for ((id, slack), c) in slacks.iter().zip(s.active()) {
            assert_eq!(*id, c.id);
            assert!(!slack.is_negative(), "negative slack for {id}");
            assert!(*slack <= c.spec.deadline);
        }
    }

    #[test]
    fn fast_config_is_cheaper_but_same_kind() {
        let fast = CacConfig::fast();
        let full = CacConfig::default();
        assert!(fast.search_iterations <= full.search_iterations);
        assert!(fast.eval.flatten_subdivisions <= full.eval.flatten_subdivisions);
        assert_eq!(fast.beta, full.beta);
    }

    #[test]
    fn reject_reason_display() {
        let r = RejectReason::SourceBandwidthExhausted {
            available: Seconds::from_millis(1.0),
            required: Seconds::from_millis(2.0),
        };
        assert!(r.to_string().contains("source ring"));
        let r = RejectReason::DestBandwidthExhausted {
            available: Seconds::from_millis(1.0),
            required: Seconds::from_millis(2.0),
        };
        assert!(r.to_string().contains("destination ring"));
        let r = RejectReason::InfeasibleAtMaximum {
            detail: "why".into(),
        };
        assert!(r.to_string().contains("why"));
    }

    #[test]
    fn decision_is_admitted_helper() {
        let d = Decision::Rejected(RejectReason::InfeasibleAtMaximum {
            detail: String::new(),
        });
        assert!(!d.is_admitted());
    }

    #[test]
    fn buffer_limited_network_rejects_what_it_cannot_buffer() {
        use hetnet_traffic::units::Bits;
        // With per-host buffers far below the Theorem-1.2 requirement of
        // this source, admission must fail outright.
        let net = HetNetwork::paper_topology().with_buffers(Some(Bits::from_kbits(10.0)), None);
        let mut s = NetworkState::new(net);
        let d = s
            .admit(spec((0, 0), (1, 0), 100.0), &CacConfig::fast().into())
            .unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::InfeasibleAtMaximum { .. })
        ));
    }

    #[test]
    fn observer_sees_every_decision_with_clock_and_seq() {
        use std::sync::Mutex;
        struct Recorder(Arc<Mutex<Vec<(u64, f64, bool)>>>);
        impl DecisionObserver for Recorder {
            fn on_decision(&mut self, r: &DecisionRecord<'_>) {
                self.0
                    .lock()
                    .unwrap()
                    .push((r.seq, r.at.value(), r.decision.is_admitted()));
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut s = state();
        let cfg = CacConfig::fast();
        s.set_observer(Some(Box::new(Recorder(Arc::clone(&seen)))));
        s.set_clock(Seconds::new(1.5));
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap()
            .is_admitted());
        s.set_clock(Seconds::new(2.5));
        assert!(!s
            .admit(spec((0, 1), (1, 1), 1.0), &cfg.clone().into())
            .unwrap()
            .is_admitted());
        assert_eq!(s.decisions(), 2);
        assert_eq!(s.clock(), Seconds::new(2.5));
        let _obs = s.take_observer().expect("installed above");
        assert!(s.take_observer().is_none());
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (0, 1.5, true));
        assert_eq!(seen[1], (1, 2.5, false));
    }

    #[test]
    fn decision_tracing_explains_admits_and_rejects() {
        let mut s = state();
        let cfg = CacConfig::fast();
        // Off by default: decisions leave no trace.
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap()
            .is_admitted());
        assert!(s.last_decision_trace().is_none());

        s.set_decision_tracing(true);
        // Admit: allocation recorded, candidate entry last with its id,
        // nonnegative slack, no binding constraint.
        let d = s
            .admit(spec((1, 0), (2, 0), 120.0), &cfg.clone().into())
            .unwrap();
        let Decision::Admitted {
            id,
            h_s,
            delay_bound,
            ..
        } = d
        else {
            panic!("expected admission")
        };
        let t = s.last_decision_trace().expect("trace recorded").clone();
        assert!(t.admitted);
        assert_eq!(t.seq, 1);
        assert!(t.binding.is_none());
        let (th_s, _) = t.allocation.expect("allocation recorded");
        assert_eq!(
            th_s.per_rotation().value().to_bits(),
            h_s.per_rotation().value().to_bits()
        );
        assert_eq!(t.connections.len(), s.active().len());
        let cand = t.candidate().expect("candidate entry");
        assert_eq!(cand.id, Some(id));
        assert_eq!(
            cand.report.total.value().to_bits(),
            delay_bound.value().to_bits()
        );
        assert!(!cand.slack.is_negative());
        assert!(t.cache.stage1_hits > 0 || t.cache.stage1_misses > 0);

        // Reject (deadline): the binding constraint names the candidate
        // (no id) and a dominant stage, with positive excess.
        let d = s
            .admit(spec((0, 1), (1, 1), 1.0), &cfg.clone().into())
            .unwrap();
        assert!(!d.is_admitted());
        let t = s.last_decision_trace().expect("trace recorded");
        assert!(!t.admitted);
        match t.binding.as_ref().expect("reject names a constraint") {
            BindingConstraint::DeadlineExceeded {
                connection,
                excess,
                deadline,
                delay,
                ..
            } => {
                assert_eq!(*connection, None);
                assert!(excess.value() > 0.0);
                assert!((delay.value() - deadline.value() - excess.value()).abs() < 1e-12);
            }
            other => panic!("unexpected binding: {other:?}"),
        }
        assert_eq!(t.candidate().expect("evaluated paths").id, None);
        assert!(t.candidate().unwrap().slack.is_negative());
        assert!(!t.to_json_line().is_empty());

        // Disabling clears the stored trace.
        s.set_decision_tracing(false);
        assert!(s.last_decision_trace().is_none());
    }

    #[test]
    fn fixed_rejects_carry_bindings_too() {
        let mut s = state();
        s.set_decision_tracing(true);
        let cfg = CacConfig::default();
        // Oversized: source-bandwidth binding.
        let whole = SyncBandwidth::new(Seconds::from_millis(8.0));
        let d = s
            .admit(
                spec((0, 0), (1, 0), 100.0),
                &AdmissionOptions::fixed(cfg.clone(), whole, whole),
            )
            .unwrap();
        assert!(!d.is_admitted());
        let t = s.last_decision_trace().unwrap();
        assert!(matches!(
            t.binding,
            Some(BindingConstraint::SourceBandwidth { .. })
        ));
        assert!(t.allocation.is_none());

        // Undersized: at 200 us per rotation the source MAC can't even
        // keep up with the arrival rate — the binding pinpoints the
        // unstable server rather than a bare "infeasible".
        let tiny = SyncBandwidth::new(Seconds::from_micros(200.0));
        let d = s
            .admit(
                spec((0, 0), (1, 0), 100.0),
                &AdmissionOptions::fixed(cfg.clone(), tiny, tiny),
            )
            .unwrap();
        assert!(!d.is_admitted());
        let t = s.last_decision_trace().unwrap();
        match t.binding.as_ref().expect("binding named") {
            BindingConstraint::ServerUnstable { detail } => {
                assert!(detail.contains("unstable"), "{detail}");
            }
            other => panic!("unexpected binding: {other:?}"),
        }
        // Fixed admissions trace too, with all-zero cache counters.
        let h = SyncBandwidth::new(Seconds::from_millis(2.4));
        let d = s
            .admit(
                spec((0, 0), (1, 0), 100.0),
                &AdmissionOptions::fixed(cfg, h, h),
            )
            .unwrap();
        assert!(d.is_admitted());
        let t = s.last_decision_trace().unwrap();
        assert!(t.admitted && t.binding.is_none());
        assert_eq!(t.cache, CacheStats::default());
        assert!(t.candidate().unwrap().id.is_some());
    }

    #[test]
    fn observer_receives_the_trace_when_tracing() {
        use std::sync::Mutex;
        type Seen = Arc<Mutex<Vec<(u64, bool, Option<String>)>>>;
        struct Recorder(Seen);
        impl DecisionObserver for Recorder {
            fn on_decision(&mut self, r: &DecisionRecord<'_>) {
                self.0.lock().unwrap().push((
                    r.seq,
                    r.trace.is_some(),
                    r.trace
                        .and_then(|t| t.binding.as_ref())
                        .map(|b| b.kind().to_string()),
                ));
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut s = state();
        let cfg = CacConfig::fast();
        s.set_observer(Some(Box::new(Recorder(Arc::clone(&seen)))));
        s.admit(spec((0, 0), (1, 0), 100.0), &cfg.clone().into())
            .unwrap();
        s.set_decision_tracing(true);
        s.admit(spec((0, 1), (1, 1), 1.0), &cfg.clone().into())
            .unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (0, false, None));
        assert_eq!(seen[1], (1, true, Some("deadline".into())));
    }

    #[test]
    fn ring_failure_tears_down_and_reclaims() {
        let mut s = state();
        let cfg = CacConfig::fast();
        let opts: AdmissionOptions = cfg.clone().into();
        // Two connections touch ring 1, one does not.
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        assert!(s
            .admit(spec((1, 1), (2, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        assert!(s
            .admit(spec((0, 1), (2, 1), 100.0), &opts)
            .unwrap()
            .is_admitted());
        let report = s.set_component_down(Component::Ring(RingId(1))).unwrap();
        assert!(!report.already_down);
        assert_eq!(report.torn.len(), 2);
        assert!(report.reclaimed_s.value() > 0.0);
        assert!(report.reclaimed_r.value() > 0.0);
        assert_eq!(s.active().len(), 1);
        // Ring 1's budget is fully back; ring 0 still carries the survivor.
        assert!((s.available_on(1).as_millis() - 7.2).abs() < 1e-9);
        assert!(s.available_on(0) < Seconds::from_millis(7.2));
        // Downing again is a no-op.
        let again = s.set_component_down(Component::Ring(RingId(1))).unwrap();
        assert!(again.already_down);
        assert!(again.torn.is_empty());
    }

    #[test]
    fn down_component_rejects_without_evaluation() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        s.set_component_down(Component::IfDev(RingId(2))).unwrap();
        s.set_decision_tracing(true);
        let d = s.admit(spec((0, 0), (2, 0), 100.0), &opts).unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::ComponentUnavailable {
                component: Component::IfDev(RingId(2))
            })
        ));
        let t = s.last_decision_trace().unwrap();
        assert_eq!(t.binding.as_ref().unwrap().kind(), "component_down");
        assert!(t.connections.is_empty());
        // A path avoiding ring 2 is unaffected.
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        // Restore; the previously blocked path admits again.
        assert!(s.set_component_up(Component::IfDev(RingId(2))).unwrap());
        assert!(!s.set_component_up(Component::IfDev(RingId(2))).unwrap());
        assert!(s
            .admit(spec((0, 1), (2, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
    }

    #[test]
    fn link_failure_hits_only_routed_pairs() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        assert!(s
            .admit(spec((1, 1), (2, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        // Find the link carrying the 0->1 route and fail it.
        let link = s.network().route_between(0, 1).unwrap()[0];
        let report = s.set_component_down(Component::Link(link)).unwrap();
        assert_eq!(report.torn.len(), 1);
        assert_eq!(report.torn[0].spec.source.ring, 0);
        // The fully-meshed backbone routes 1->2 over a different link.
        assert_eq!(s.active().len(), 1);
        let d = s.admit(spec((0, 1), (1, 2), 100.0), &opts).unwrap();
        assert!(matches!(
            d,
            Decision::Rejected(RejectReason::ComponentUnavailable { .. })
        ));
    }

    #[test]
    fn unknown_components_are_rejected() {
        let mut s = state();
        assert!(matches!(
            s.set_component_down(Component::Ring(RingId(9))),
            Err(CacError::InvalidNetwork(_))
        ));
        assert!(matches!(
            s.set_component_up(Component::Link(hetnet_atm::topology::LinkId(99))),
            Err(CacError::InvalidNetwork(_))
        ));
    }

    #[test]
    fn snapshot_restore_is_lossless_here() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        s.set_clock(Seconds::new(12.5));
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        assert!(s
            .admit(spec((1, 1), (2, 0), 90.0), &opts)
            .unwrap()
            .is_admitted());
        s.set_component_down(Component::Ring(RingId(2))).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.version, crate::snapshot::SNAPSHOT_VERSION);
        assert_eq!(snap.connections.len(), 1); // ring-2 teardown removed one
        assert_eq!(snap.down, vec![Component::Ring(RingId(2))]);

        let mut restored =
            NetworkState::from_snapshot(HetNetwork::paper_topology(), &snap).unwrap();
        assert_eq!(restored.snapshot().to_json(), snap.to_json());
        assert_eq!(
            restored.available_on(0).value().to_bits(),
            s.available_on(0).value().to_bits()
        );
        assert_eq!(
            restored.clock().value().to_bits(),
            s.clock().value().to_bits()
        );
        assert_eq!(restored.decisions(), s.decisions());
        // Both copies now make bit-identical decisions.
        let sp = spec((0, 1), (1, 2), 100.0);
        match (
            s.admit(sp.clone(), &opts).unwrap(),
            restored.admit(sp, &opts).unwrap(),
        ) {
            (
                Decision::Admitted {
                    id: ia, h_s: ha, ..
                },
                Decision::Admitted {
                    id: ib, h_s: hb, ..
                },
            ) => {
                assert_eq!(ia, ib);
                assert_eq!(
                    ha.per_rotation().value().to_bits(),
                    hb.per_rotation().value().to_bits()
                );
            }
            (a, b) => panic!("diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn restore_rejects_mismatches() {
        let s = state();
        let mut snap = s.snapshot();
        snap.version = 99;
        assert!(matches!(
            NetworkState::new(HetNetwork::paper_topology()).restore(&snap),
            Err(CacError::SnapshotMismatch(_))
        ));
        let mut snap = s.snapshot();
        snap.topology.rings = 7;
        assert!(matches!(
            NetworkState::new(HetNetwork::paper_topology()).restore(&snap),
            Err(CacError::SnapshotMismatch(_))
        ));
    }

    #[test]
    fn reconfigure_noop_keeps_every_allocation_bit_identical() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        for sp in [spec((0, 0), (1, 0), 100.0), spec((1, 1), (2, 0), 90.0)] {
            assert!(s.admit(sp, &opts).unwrap().is_admitted());
        }
        let before: Vec<u64> = s
            .active()
            .iter()
            .map(|c| c.h_s.per_rotation().value().to_bits())
            .collect();
        let seq = s.decisions();
        let report = s.reconfigure(&ReconfigPlan::default(), &opts).unwrap();
        assert_eq!(report.unchanged.len(), 2);
        assert!(report.renegotiated.is_empty());
        assert!(report.dropped.is_empty());
        // Reconfiguration consumes exactly one decision sequence number.
        assert_eq!(s.decisions(), seq + 1);
        let after: Vec<u64> = s
            .active()
            .iter()
            .map(|c| c.h_s.per_rotation().value().to_bits())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn reconfigure_matches_fresh_engine_at_new_parameters() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        let specs = [
            spec((0, 0), (1, 0), 100.0),
            spec((1, 1), (2, 0), 90.0),
            spec((2, 2), (0, 1), 110.0),
        ];
        for sp in &specs {
            assert!(s.admit(sp.clone(), &opts).unwrap().is_admitted());
        }
        let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(12.0));
        let report = s.reconfigure(&plan, &opts).unwrap();
        assert_eq!(report.survivors(), 3);
        assert!(report.dropped.is_empty());
        // A longer TTRT moves the allocation line: everything renegotiates.
        assert_eq!(report.renegotiated.len(), 3);
        assert!(report.new_allocatable[0] > report.old_allocatable[0]);

        // Fresh engine built at the new parameters, fed the survivors in
        // admission order, must land on the same bits.
        let rings = vec![
            RingConfig {
                ttrt: Seconds::from_millis(12.0),
                ..RingConfig::standard()
            };
            3
        ];
        let net = HetNetwork::paper_topology()
            .with_ring_configs(rings)
            .unwrap();
        let mut fresh = NetworkState::new(net);
        for sp in &specs {
            assert!(fresh.admit(sp.clone(), &opts).unwrap().is_admitted());
        }
        for (a, b) in s.active().iter().zip(fresh.active()) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.h_s.per_rotation().value().to_bits(),
                b.h_s.per_rotation().value().to_bits()
            );
            assert_eq!(
                a.h_r.per_rotation().value().to_bits(),
                b.h_r.per_rotation().value().to_bits()
            );
            assert_eq!(
                a.delay_bound.value().to_bits(),
                b.delay_bound.value().to_bits()
            );
        }
        for ring in 0..3 {
            assert_eq!(
                s.available_on(ring).value().to_bits(),
                fresh.available_on(ring).value().to_bits()
            );
        }
        // And the next decision is bit-identical too (admitted or not).
        let next = spec((0, 2), (2, 1), 100.0);
        let (da, db) = (
            s.admit(next.clone(), &opts).unwrap(),
            fresh.admit(next, &opts).unwrap(),
        );
        assert_eq!(format!("{da:?}"), format!("{db:?}"));
    }

    #[test]
    fn reconfigure_shrink_drops_victims_and_reclaims_budget() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        let mut admitted = 0usize;
        for station in 0..4 {
            for (src, dst) in [(0, 1), (1, 2), (2, 0)] {
                if s.admit(spec((src, station), (dst, station), 60.0), &opts)
                    .unwrap()
                    .is_admitted()
                {
                    admitted += 1;
                }
            }
        }
        assert!(admitted >= 3, "load generator admitted only {admitted}");
        // Shrink TTRT and grow the overhead until the allocatable budget
        // `TTRT − Δ` is a sliver: victims must fall out.
        let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(6.0))
            .with_overhead(Seconds::from_millis(5.5));
        let report = s.reconfigure(&plan, &opts).unwrap();
        assert!(
            !report.dropped.is_empty(),
            "expected drops: {}",
            report.summary()
        );
        assert_eq!(report.survivors() + report.dropped.len(), admitted);
        assert!(report.reclaimed_s.value() > 0.0);
        // Surviving state is internally consistent: the active set and the
        // snapshot agree and every remaining allocation fits the new budget.
        let snap = s.snapshot();
        assert_eq!(snap.connections.len(), report.survivors());
        assert_eq!(snap.rings[0].ttrt, Seconds::from_millis(6.0));
        for ring in 0..3 {
            assert!(s.available_on(ring).value() >= 0.0);
        }
    }

    #[test]
    fn reconfigure_snapshot_restores_onto_retuned_rings() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(10.0))
            .with_overhead(Seconds::from_millis(1.0));
        s.reconfigure(&plan, &opts).unwrap();
        let snap = s.snapshot();
        // Restoring onto a *stock* topology adopts the snapshot's rings.
        let mut restored = NetworkState::new(HetNetwork::paper_topology());
        restored.restore(&snap).unwrap();
        assert_eq!(restored.snapshot().to_json(), snap.to_json());
        let next = spec((1, 2), (2, 2), 100.0);
        match (
            s.admit(next.clone(), &opts).unwrap(),
            restored.admit(next, &opts).unwrap(),
        ) {
            (Decision::Admitted { h_s: ha, .. }, Decision::Admitted { h_s: hb, .. }) => {
                assert_eq!(
                    ha.per_rotation().value().to_bits(),
                    hb.per_rotation().value().to_bits()
                );
            }
            (a, b) => panic!("diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn reconfigure_rejects_invalid_plans_without_side_effects() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        assert!(s
            .admit(spec((0, 0), (1, 0), 100.0), &opts)
            .unwrap()
            .is_admitted());
        let before = s.snapshot().to_json();
        let bad_beta = ReconfigPlan::default().with_beta(2.0);
        assert!(s.reconfigure(&bad_beta, &opts).is_err());
        // Overhead >= TTRT leaves no allocatable budget and is refused.
        let bad_overhead = ReconfigPlan::default().with_overhead(Seconds::from_millis(9.0));
        assert!(s.reconfigure(&bad_overhead, &opts).is_err());
        assert_eq!(s.snapshot().to_json(), before);
    }

    #[test]
    fn restore_rejects_ids_out_of_order() {
        let mut s = state();
        let opts: AdmissionOptions = CacConfig::fast().into();
        for (src, dst) in [((0, 0), (1, 0)), ((1, 1), (2, 1))] {
            assert!(s
                .admit(light(src, dst, 100.0), &opts)
                .unwrap()
                .is_admitted());
        }
        let mut snap = s.snapshot();
        snap.connections.swap(0, 1);
        let mut target = state();
        let before = target.snapshot().to_json();
        assert!(matches!(
            target.restore(&snap),
            Err(CacError::SnapshotMismatch(m)) if m.contains("ascending")
        ));
        assert_eq!(
            target.snapshot().to_json(),
            before,
            "a failed restore changes nothing"
        );
    }

    /// Reference closure, independent of the persistent index: a
    /// mux → members map rebuilt from the whole active set on every
    /// call, closed to a fixpoint from the candidate's multiplexers.
    fn transient_map_scope(s: &NetworkState, spec: &ConnectionSpec) -> Vec<usize> {
        let mut hops: Vec<MuxKey> = Vec::new();
        let mut ends: Vec<usize> = Vec::new();
        for c in &s.active {
            hops.extend(hops_for(&s.net, c.spec.source, c.spec.dest).unwrap());
            ends.push(hops.len());
        }
        let hops_of = |i: usize| &hops[if i == 0 { 0 } else { ends[i - 1] }..ends[i]];
        let mut memberships: Vec<(MuxKey, usize)> = (0..ends.len())
            .flat_map(|i| hops_of(i).iter().map(move |&key| (key, i)))
            .collect();
        memberships.sort_unstable();
        let (keys, members): (Vec<MuxKey>, Vec<usize>) = memberships.into_iter().unzip();
        let mut muxes: BTreeSet<MuxKey> = BTreeSet::new();
        let mut frontier: Vec<MuxKey> = hops_for(&s.net, spec.source, spec.dest)
            .unwrap()
            .into_iter()
            .filter(|&k| muxes.insert(k))
            .collect();
        let mut flows: BTreeSet<usize> = BTreeSet::new();
        while let Some(key) = frontier.pop() {
            let lo = keys.partition_point(|&k| k < key);
            let hi = keys.partition_point(|&k| k <= key);
            for &flow in &members[lo..hi] {
                if !flows.insert(flow) {
                    continue;
                }
                for &hop in hops_of(flow) {
                    if muxes.insert(hop) {
                        frontier.push(hop);
                    }
                }
            }
        }
        flows.into_iter().collect()
    }

    /// A light spec between two distinct rings of a `rings`-ring
    /// network, drawn from three raw numbers.
    fn drawn(rings: usize, a: usize, b: usize, station: usize) -> ConnectionSpec {
        let src = a % rings;
        let dst = (src + 1 + b % (rings - 1)) % rings;
        light((src, station % 3), (dst, (station + 1) % 3), 1000.0)
    }

    /// Every table entry, ring by ring, in key order.
    fn table_entries(s: &NetworkState) -> Vec<Vec<(AllocationKey, u64)>> {
        s.tables
            .iter()
            .map(|t| {
                t.iter()
                    .map(|(k, h)| (k, h.per_rotation().value().to_bits()))
                    .collect()
            })
            .collect()
    }

    /// The tables a from-scratch replay of `active` produces.
    fn rebuilt_tables(s: &NetworkState) -> Vec<Vec<(AllocationKey, u64)>> {
        let mut fresh = NetworkState::new_shared(Arc::clone(&s.net));
        for c in &s.active {
            let key = AllocationKey(c.id.0);
            let (rs, rr) = (c.spec.source.ring, c.spec.dest.ring);
            fresh.tables[rs]
                .allocate(key, c.h_s, s.net.ring(rs))
                .unwrap();
            fresh.tables[rr]
                .allocate(key, c.h_r, s.net.ring(rr))
                .unwrap();
        }
        table_entries(&fresh)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The membership index and the allocation tables move in step
        /// with `active` through every mutation: after each step of a
        /// random admit / release / down / up / restore / reconfigure
        /// sequence they equal a from-scratch rebuild, and ids ascend.
        #[test]
        fn membership_index_matches_rebuild(
            ops in proptest::collection::vec((0usize..8, 0usize..16, 0usize..16), 1..40),
        ) {
            let mut s = NetworkState::new(HetNetwork::grid(4, 3));
            s.set_fast_path(true).unwrap();
            let rings = s.net.rings().len();
            let links = s.net.backbone().link_count();
            let h = SyncBandwidth::new(Seconds::from_millis(0.4));
            let opts = AdmissionOptions::fixed(CacConfig::fast(), h, h);
            for (op, a, b) in ops {
                match op {
                    0..=2 => {
                        s.admit(drawn(rings, a, b, a + b), &opts).unwrap();
                    }
                    3 if !s.active.is_empty() => {
                        let id = s.active[(a * 7 + b) % s.active.len()].id;
                        s.release(id).unwrap();
                    }
                    4 => {
                        let c = if b % 2 == 0 {
                            Component::Ring(RingId(a % rings))
                        } else {
                            Component::Link(hetnet_atm::LinkId(a % links))
                        };
                        s.set_component_down(c).unwrap();
                    }
                    5 => {
                        for c in s.down_components() {
                            s.set_component_up(c).unwrap();
                        }
                    }
                    6 => {
                        let snap = s.snapshot();
                        s.restore(&snap).unwrap();
                    }
                    _ => {
                        let ttrt = Seconds::from_millis(if a % 2 == 0 { 6.0 } else { 8.0 });
                        s.reconfigure(&ReconfigPlan::uniform_ttrt(ttrt), &opts).unwrap();
                    }
                }
                proptest::prop_assert!(s.active.windows(2).all(|w| w[0].id < w[1].id));
                proptest::prop_assert_eq!(&s.index, &MuxIndex::rebuild(&s.net, &s.active).unwrap());
                proptest::prop_assert_eq!(table_entries(&s), rebuilt_tables(&s));
            }
        }

        /// The untraced scope read off the persistent index is exactly
        /// the closure a per-call map of the whole active set yields.
        #[test]
        fn scope_matches_transient_map_closure(
            flows in proptest::collection::vec((0usize..16, 0usize..16), 1..24),
            departures in proptest::collection::vec(0usize..64, 0..6),
            candidates in proptest::collection::vec((0usize..16, 0usize..16), 1..6),
        ) {
            let mut s = NetworkState::new(HetNetwork::grid(6, 3));
            let rings = s.net.rings().len();
            let h = SyncBandwidth::new(Seconds::from_millis(0.2));
            let opts = AdmissionOptions::fixed(CacConfig::fast(), h, h);
            for &(a, b) in &flows {
                s.admit(drawn(rings, a, b, a), &opts).unwrap();
            }
            for d in departures {
                if !s.active.is_empty() {
                    let id = s.active[d % s.active.len()].id;
                    s.release(id).unwrap();
                }
            }
            for (a, b) in candidates {
                let spec = drawn(rings, a, b, b);
                proptest::prop_assert_eq!(
                    s.scope(&spec, false).unwrap(),
                    transient_map_scope(&s, &spec)
                );
            }
        }
    }
}
