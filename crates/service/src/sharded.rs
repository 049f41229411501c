//! The sharded admission engine: a thread-per-shard front end over one
//! shared [`ShardedState`] — a [`NetworkState`] behind a conflict log.
//!
//! [`crate::engine::ServiceEngine`] decides every arrival in turn on
//! one [`NetworkState`]. This engine partitions the event stream
//! instead: arrivals are routed to a worker by source ring
//! (`ring % workers`), each worker *speculates* its decisions over the
//! candidate's dependency closure (a scoped state of typically a few
//! hundred connections, not the whole network), and a single
//! **committer** walks the merged event stream in global order,
//! validating each speculation against the conflict log and applying
//! it — or recomputing it inline when a conflicting commit landed since
//! the speculation was read (optimistic concurrency,
//! validate-then-commit). Departures and faults are applied by the
//! committer at their event slots, exactly where the sequential engine
//! applies them.
//!
//! Because commits happen strictly in event order and conflicted
//! speculations are recomputed sequentially, the committed decision
//! stream — ids, allocations, delay bounds, rejection classes, audit
//! sequence — is the sequential engine's stream (`DESIGN.md` §12 gives
//! the argument; `tests/sharded_replay.rs` holds it over random churn
//! and fault schedules, and [`runs_equivalent`] is the certifying
//! predicate). The audit log is appended only at commit time, so it
//! stays gap-free without any cross-thread ordering protocol.
//!
//! A run with one worker is the same algorithm minus parallelism —
//! useful both as the conflict-free baseline and for certifying that
//! worker count does not leak into decisions.

use crate::audit::{AuditEntry, AuditKind, AuditLog, AuditOutcome};
use crate::engine::{
    arrival_spec, departure, entries_equivalent, prepare, utilization, EngineCheckpoint, Prepared,
    ServiceConfig, ServiceRun,
};
use crate::metrics::{
    CacheGauges, DecisionCounters, DelayAttribution, FastPathGauges, LatencyHistogram,
    RecoveryMetrics, UtilizationSeries,
};
use crate::observability::{spans_to_json, EngineMetrics, SpanPhase, Telemetry, TelemetryFrame};
use crate::report::{LatencySummary, ServiceReport, StageDelaySummary};
use hetnet_cac::cac::{Decision, EvalCacheCaps, NetworkState, RejectReason};
use hetnet_cac::connection::{ConnectionId, ConnectionSpec};
use hetnet_cac::delay::CacheStats;
use hetnet_cac::error::CacError;
use hetnet_cac::incremental::FastPathStats;
use hetnet_cac::network::{Component, HetNetwork, LinkId, RingId};
use hetnet_cac::shard::{Footprint, ShardedState};
use hetnet_cac::snapshot::StateSnapshot;
use hetnet_cac::trace::DecisionTrace;
use hetnet_obs::registry::{Counter, Gauge};
use hetnet_obs::{FlightObservation, FlightRecorder, MetricsRegistry, SharedRing, Trace};
use hetnet_sim::churn::{ChurnArrival, ChurnSchedule};
use hetnet_sim::fault::{FaultEvent, FaultKind};
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::units::Seconds;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, RwLock};
use std::time::Instant;

/// Worker-side evaluator-cache caps: generous enough that one large
/// closure does not evict the whole working set every decision (the
/// flat engine's defaults are tuned for one small network). Cache
/// contents never affect decisions, only speed.
const WORKER_CACHE_CAPS: EvalCacheCaps = EvalCacheCaps {
    stage1: 1 << 16,
    mux: 1 << 18,
    receive: 1 << 18,
};

/// Concurrency and conflict statistics of one sharded run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardingStats {
    /// Worker threads the run was configured with.
    pub workers: usize,
    /// Decisions decided speculatively by workers.
    pub speculated: u64,
    /// Speculations invalidated at commit time and recomputed inline
    /// (their speculative work is discarded).
    pub conflicts: u64,
    /// Decisions computed inline by the committer (conflict retries
    /// plus fault-driven re-admissions, which never speculate).
    pub inline_decisions: u64,
    /// Largest dependency closure any decision ran over.
    pub peak_closure: usize,
    /// Sum of closure sizes across decisions (mean = sum / decisions).
    pub closure_sum: u64,
}

impl ShardingStats {
    /// Conflict-retry rate: conflicts per speculated decision.
    #[must_use]
    pub fn conflict_rate(&self) -> f64 {
        if self.speculated == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.speculated as f64
        }
    }
}

/// Everything a sharded run produces: the same aggregate report, audit
/// log, and series a [`ServiceRun`] carries, plus the final state as a
/// snapshot and the concurrency stats.
#[derive(Debug)]
pub struct ShardedRun {
    /// Aggregate metrics (same schema as the sequential engine's).
    pub report: ServiceReport,
    /// Decision-ordered, gap-free audit log.
    pub audit: AuditLog,
    /// Sampled ring-utilization time series.
    pub series: UtilizationSeries,
    /// The final admission state, merged across shards — equal, string
    /// for string, to the sequential engine's final
    /// `state.snapshot().to_json()`.
    pub final_snapshot: StateSnapshot,
    /// Concurrency and conflict statistics.
    pub sharding: ShardingStats,
    /// Telemetry frames retained at run end (empty unless
    /// [`crate::observability::ObsOptions::telemetry_period`] was set).
    pub telemetry: Vec<TelemetryFrame>,
}

impl ShardedRun {
    /// Materializes the final snapshot as a flat [`NetworkState`] over
    /// `net` (for callers that want to keep driving it).
    ///
    /// # Errors
    ///
    /// As for [`NetworkState::restore`].
    pub fn final_state(&self, net: Arc<HetNetwork>) -> Result<NetworkState, CacError> {
        let mut state = NetworkState::new_shared(net);
        state.restore(&self.final_snapshot)?;
        Ok(state)
    }
}

/// What a worker hands the committer for one speculated arrival.
struct SpecMsg {
    /// Index into the churn schedule's arrivals.
    idx: usize,
    decision: Decision,
    footprint: Footprint,
    latency: Seconds,
    cache: CacheStats,
    fast: FastPathStats,
    trace: Option<DecisionTrace>,
    /// Span timeline collected around the speculation (worker thread),
    /// when [`crate::observability::ObsOptions::spans`] is on.
    spans: Option<Trace>,
    closure: usize,
}

/// One decision's worth of measurement, wherever it was computed.
struct Measured {
    decision: Decision,
    latency: Seconds,
    cache: CacheStats,
    fast: FastPathStats,
    trace: Option<DecisionTrace>,
    closure: usize,
    /// Version the deciding evaluation speculated at.
    version: u64,
    /// Worker shard the request was routed to (`None` for committer-
    /// inline readmits).
    shard: Option<u32>,
    /// Whether the speculation was invalidated and recomputed.
    conflict: bool,
    /// The discarded speculation's span timeline (conflicts only).
    spec_spans: Option<Trace>,
    /// The committed decision's span timeline.
    spans: Option<Trace>,
}

/// Decides `spec` over its dependency closure of `shared`, carrying
/// `cache` across calls. This is the one decision procedure both
/// workers and the committer run — they differ only in *when* the
/// closure is read and whether the result must be validated.
fn decide_scoped(
    shared: &RwLock<ShardedState>,
    cfg: &ServiceConfig,
    spec: &ConnectionSpec,
    at: Seconds,
    cache: &mut Option<hetnet_cac::delay::EvalCache>,
) -> Result<SpecMsg, CacError> {
    let t0 = Instant::now();
    let (mut scoped, footprint) = ShardedState::speculate(shared, spec.source, spec.dest)?;
    let closure = scoped.active().len();
    scoped.set_cache_caps(WORKER_CACHE_CAPS);
    scoped.persist_eval_cache(cfg.persist_cache);
    if let Some(c) = cache.take() {
        scoped.inject_eval_cache(c);
    }
    scoped.set_fast_path(cfg.fast_path)?;
    scoped.set_decision_tracing(cfg.trace_decisions);
    scoped.set_clock(at);
    let (decision, spans) = if cfg.obs.spans && hetnet_obs::is_enabled() {
        let (decision, trace) = hetnet_obs::collect(cfg.obs.span_capacity, || {
            scoped.admit(spec.clone(), &cfg.options)
        });
        (decision?, Some(trace))
    } else {
        (scoped.admit(spec.clone(), &cfg.options)?, None)
    };
    let latency = Seconds::new(t0.elapsed().as_secs_f64());
    *cache = scoped.take_eval_cache();
    Ok(SpecMsg {
        idx: 0,
        decision,
        footprint,
        latency,
        cache: scoped.last_cache_stats().unwrap_or_default(),
        fast: scoped.last_fast_path_stats().unwrap_or_default(),
        trace: scoped.last_decision_trace().cloned(),
        spans,
        closure,
    })
}

/// A connection torn down by a fault, waiting for a repair.
#[derive(Clone, Copy, Debug)]
struct Parked {
    arrival: usize,
    departs_bits: u64,
}

/// The committer: owns every piece of sequential bookkeeping the flat
/// engine has, but decides arrivals by consuming worker speculations.
struct Committer<'a> {
    cfg: &'a ServiceConfig,
    shared: &'a RwLock<ShardedState>,
    schedule: &'a ChurnSchedule,
    faults: &'a [FaultEvent],
    envelope: SharedEnvelope,
    clock: Seconds,
    decision_seq: u64,
    departures: BinaryHeap<Reverse<(u64, u64)>>,
    live: BTreeMap<u64, (usize, u64)>,
    parked: Vec<Parked>,
    open_faults: BTreeMap<Component, u64>,
    next_arrival: usize,
    next_fault: usize,
    counters: DecisionCounters,
    latency: LatencyHistogram,
    series: UtilizationSeries,
    audit: AuditLog,
    recovery: RecoveryMetrics,
    gauges: CacheGauges,
    fast: FastPathGauges,
    attribution: DelayAttribution,
    peak_active: usize,
    ring_caps: Vec<f64>,
    stats: ShardingStats,
    /// The committer's own carried evaluator cache, for inline
    /// (conflict-retry and readmit) decisions.
    inline_cache: Option<hetnet_cac::delay::EvalCache>,
    /// Receivers of the per-worker speculation streams, indexed by
    /// worker; `None` when running without workers (recovery replay of
    /// fault-only tails).
    spec_rx: Vec<Receiver<Result<SpecMsg, CacError>>>,
    /// Per-worker acks: a worker may speculate its next arrival only
    /// after its previous one committed (without this, consecutive
    /// same-shard arrivals would conflict essentially always).
    ack_tx: Vec<SyncSender<()>>,
    /// Canonical metric families, registered into the run's shared
    /// registry (the same registry the workers register into).
    mx: EngineMetrics,
    /// Per-shard evaluator-cache gauges: one entry per worker (all work
    /// that worker's speculations did, kept or discarded), plus one
    /// final entry for committer-inline decisions (conflict recomputes
    /// and readmits).
    shard_gauges: Vec<CacheGauges>,
    conflicts_total: Counter,
    inline_total: Counter,
    /// Conflict-log version most recently validated by the committer.
    ledger_version: Gauge,
    flight: Arc<FlightRecorder>,
    telemetry: Telemetry,
}

impl Committer<'_> {
    fn worker_of(&self, idx: usize) -> usize {
        let workers = self.spec_rx.len();
        self.schedule.arrivals[idx].source.0 % workers.max(1)
    }

    /// Processes every departure and fault due at or before `t`
    /// (departures first on ties), mirroring the sequential engine.
    fn advance_to(&mut self, t: Seconds) -> Result<(), CacError> {
        loop {
            let dep_at = self
                .departures
                .peek()
                .map(|&Reverse((bits, _))| f64::from_bits(bits));
            let fault_at = self.faults.get(self.next_fault).map(|e| e.at.value());
            let dep_due = dep_at.is_some_and(|at| at <= t.value());
            let fault_due = fault_at.is_some_and(|at| at <= t.value());
            if dep_due && (!fault_due || dep_at <= fault_at) {
                self.pop_departure()?;
            } else if fault_due {
                let e = self.faults[self.next_fault];
                self.next_fault += 1;
                self.apply_fault(e)?;
            } else {
                return Ok(());
            }
        }
    }

    fn pop_departure(&mut self) -> Result<(), CacError> {
        let Reverse((at_bits, id)) = self.departures.pop().expect("caller peeked a departure");
        if self.live.remove(&id).is_none() {
            return Ok(());
        }
        let at = Seconds::new(f64::from_bits(at_bits));
        self.clock = at;
        self.shared
            .write()
            .expect("sharded state lock poisoned")
            .release(ConnectionId(id))?;
        self.offer_sample(at);
        Ok(())
    }

    fn apply_fault(&mut self, e: FaultEvent) -> Result<(), CacError> {
        self.clock = e.at;
        self.recovery.faults_injected += 1;
        match e.kind {
            FaultKind::LinkDown(i) => self.component_down(e.at, Component::Link(LinkId(i))),
            FaultKind::RingDown(i) => self.component_down(e.at, Component::Ring(RingId(i))),
            FaultKind::IfDevDown(i) => self.component_down(e.at, Component::IfDev(RingId(i))),
            FaultKind::LinkUp(i) => self.component_up(e.at, Component::Link(LinkId(i))),
            FaultKind::RingUp(i) => self.component_up(e.at, Component::Ring(RingId(i))),
            FaultKind::IfDevUp(i) => self.component_up(e.at, Component::IfDev(RingId(i))),
            FaultKind::DeadlineShrink { factor } => self.deadline_shrink(e.at, factor),
            _ => Ok(()),
        }
    }

    fn component_down(&mut self, at: Seconds, component: Component) -> Result<(), CacError> {
        let report = self
            .shared
            .write()
            .expect("sharded state lock poisoned")
            .set_component_down(component)?;
        if !report.already_down {
            self.recovery.components_downed += 1;
            self.open_faults.insert(component, at.value().to_bits());
        }
        self.recovery.connections_dropped += report.torn.len() as u64;
        self.recovery.reclaimed_s += report.reclaimed_s.value();
        self.recovery.reclaimed_r += report.reclaimed_r.value();
        for torn in &report.torn {
            if let Some((arrival, departs_bits)) = self.live.remove(&torn.id.0) {
                self.parked.push(Parked {
                    arrival,
                    departs_bits,
                });
            }
        }
        self.offer_sample(at);
        Ok(())
    }

    fn component_up(&mut self, at: Seconds, component: Component) -> Result<(), CacError> {
        let was_down = self
            .shared
            .write()
            .expect("sharded state lock poisoned")
            .set_component_up(component)?;
        if was_down {
            self.recovery.components_restored += 1;
            if let Some(bits) = self.open_faults.remove(&component) {
                let drain = at.value() - f64::from_bits(bits);
                if drain > self.recovery.max_time_to_drain {
                    self.recovery.max_time_to_drain = drain;
                }
            }
        }
        if self.cfg.readmit {
            self.readmit_parked(at)?;
        }
        Ok(())
    }

    fn deadline_shrink(&mut self, at: Seconds, factor: f64) -> Result<(), CacError> {
        let victims: Vec<ConnectionId> = self
            .shared
            .read()
            .expect("sharded state lock poisoned")
            .state()
            .active()
            .iter()
            .filter(|c| c.delay_bound.value() > c.spec.deadline.value() * factor)
            .map(|c| c.id)
            .collect();
        for id in victims {
            let conn = self
                .shared
                .write()
                .expect("sharded state lock poisoned")
                .release(id)?;
            self.recovery.connections_dropped += 1;
            self.recovery.reclaimed_s += conn.h_s.per_rotation().value();
            self.recovery.reclaimed_r += conn.h_r.per_rotation().value();
            if let Some((arrival, departs_bits)) = self.live.remove(&id.0) {
                self.parked.push(Parked {
                    arrival,
                    departs_bits,
                });
            }
        }
        self.offer_sample(at);
        if self.cfg.readmit {
            self.readmit_parked(at)?;
        }
        Ok(())
    }

    /// Re-admission attempts are inherently sequential (they follow a
    /// barrier-raising repair), so the committer decides them inline.
    fn readmit_parked(&mut self, now: Seconds) -> Result<(), CacError> {
        let parked = std::mem::take(&mut self.parked);
        for p in parked {
            let departs = f64::from_bits(p.departs_bits);
            if departs <= now.value() {
                self.recovery.expired_in_park += 1;
                continue;
            }
            let spec = arrival_spec(self.cfg, &self.envelope, &self.schedule.arrivals[p.arrival])?;
            self.recovery.readmit_attempts += 1;
            let measured = self.decide_inline(&spec, now)?;
            let decision = self.commit(
                now,
                AuditKind::Readmit,
                p.arrival,
                &spec,
                Seconds::new(departs),
                measured,
            )?;
            match &decision {
                Decision::Admitted { .. } => self.recovery.readmitted += 1,
                Decision::Rejected(RejectReason::ComponentUnavailable { .. }) => {
                    self.parked.push(p);
                }
                Decision::Rejected(_) => {}
            }
        }
        Ok(())
    }

    fn decide_inline(&mut self, spec: &ConnectionSpec, at: Seconds) -> Result<Measured, CacError> {
        let msg = decide_scoped(self.shared, self.cfg, spec, at, &mut self.inline_cache)?;
        self.stats.inline_decisions += 1;
        self.inline_total.inc();
        let last = self.shard_gauges.len() - 1;
        self.shard_gauges[last].absorb(msg.cache);
        Ok(Measured {
            decision: msg.decision,
            latency: msg.latency,
            cache: msg.cache,
            fast: msg.fast,
            trace: msg.trace,
            closure: msg.closure,
            version: msg.footprint.version(),
            shard: None,
            conflict: false,
            spec_spans: None,
            spans: msg.spans,
        })
    }

    /// Consumes one worker speculation for `idx`, validates it against
    /// the ledger, recomputing inline on conflict, and commits.
    fn commit_arrival(&mut self, idx: usize, a: ChurnArrival) -> Result<(), CacError> {
        let w = self.worker_of(idx);
        let msg = self.spec_rx[w]
            .recv()
            .expect("worker hung up mid-schedule")?;
        debug_assert_eq!(msg.idx, idx, "worker stream out of order");
        self.advance_to(a.at)?;
        self.stats.speculated += 1;
        self.shard_gauges[w].absorb(msg.cache);
        self.ledger_version.set(msg.footprint.version() as f64);
        let conflicted = self
            .shared
            .read()
            .expect("sharded state lock poisoned")
            .conflicts(&msg.footprint);
        let spec = arrival_spec(self.cfg, &self.envelope, &a)?;
        let measured = if conflicted {
            self.stats.conflicts += 1;
            self.conflicts_total.inc();
            let spec_spans = msg.spans;
            let mut measured = self.decide_inline(&spec, a.at)?;
            measured.shard = Some(w as u32);
            measured.conflict = true;
            measured.spec_spans = spec_spans;
            measured
        } else {
            Measured {
                decision: msg.decision,
                latency: msg.latency,
                cache: msg.cache,
                fast: msg.fast,
                trace: msg.trace,
                closure: msg.closure,
                version: msg.footprint.version(),
                shard: Some(w as u32),
                conflict: false,
                spec_spans: None,
                spans: msg.spans,
            }
        };
        self.commit(
            a.at,
            AuditKind::Arrival,
            idx,
            &spec,
            a.at + a.holding,
            measured,
        )?;
        let _ = self.ack_tx[w].send(());
        Ok(())
    }

    /// Applies one decided request: the shared state's commit (whose id
    /// counter is authoritative — it equals the sequential engine's),
    /// bookkeeping, and the audit append.
    fn commit(
        &mut self,
        at: Seconds,
        kind: AuditKind,
        arrival: usize,
        spec: &ConnectionSpec,
        departs: Seconds,
        measured: Measured,
    ) -> Result<Decision, CacError> {
        let Measured {
            decision: decided,
            latency,
            cache,
            fast,
            trace,
            closure,
            version,
            shard,
            conflict,
            spec_spans,
            spans,
        } = measured;
        self.clock = at;
        self.latency.record(latency);
        self.gauges.absorb(cache);
        self.fast.absorb(fast);
        if let Some(trace) = &trace {
            self.attribution.absorb(trace);
        }
        self.stats.peak_closure = self.stats.peak_closure.max(closure);
        self.stats.closure_sum += closure as u64;
        let decision = match decided {
            Decision::Admitted {
                h_s,
                h_r,
                delay_bound,
                ..
            } => {
                let id = self
                    .shared
                    .write()
                    .expect("sharded state lock poisoned")
                    .commit_admit(spec, h_s, h_r, delay_bound)?;
                self.counters.admitted += 1;
                self.departures.push(departure(departs, id));
                self.live.insert(id.0, (arrival, departs.value().to_bits()));
                Decision::Admitted {
                    id,
                    h_s,
                    h_r,
                    delay_bound,
                }
            }
            Decision::Rejected(reason) => {
                self.counters.count_rejection(&reason);
                Decision::Rejected(reason)
            }
        };
        let outcome = AuditOutcome::from_decision(&decision);
        self.mx.on_decision(
            matches!(decision, Decision::Admitted { .. }),
            latency.value(),
            &cache,
            &fast,
        );
        let reject_class = match &outcome {
            AuditOutcome::Rejected { class, .. } => Some(*class),
            _ => None,
        };
        let observation = FlightObservation {
            correlation: self.decision_seq,
            shard,
            at_seconds: at.value(),
            latency_seconds: latency.value(),
            conflict,
            reconfig: false,
            reject_class,
        };
        let captured = self.flight.observe(&observation, || {
            let trace_json = trace
                .as_ref()
                .map_or_else(|| "null".to_string(), DecisionTrace::to_json_line);
            let mut phases: Vec<SpanPhase<'_>> = Vec::new();
            if conflict {
                if let Some(t) = &spec_spans {
                    phases.push(("speculate", shard, t));
                }
                if let Some(t) = &spans {
                    phases.push(("recompute", None, t));
                }
            } else if let Some(t) = &spans {
                phases.push((
                    if shard.is_some() {
                        "speculate"
                    } else {
                        "inline"
                    },
                    shard,
                    t,
                ));
            }
            (trace_json, spans_to_json(&phases, Some(version)))
        });
        if captured.is_some() {
            self.mx.outlier_captured();
        }
        self.audit.append(AuditEntry {
            seq: self.decision_seq,
            at,
            kind,
            arrival,
            source: (spec.source.ring, spec.source.station),
            dest: (spec.dest.ring, spec.dest.station),
            deadline: spec.deadline.value(),
            outcome,
        });
        self.decision_seq += 1;
        self.offer_sample(at);
        Ok(decision)
    }

    fn offer_sample(&mut self, at: Seconds) {
        let shared = self.shared;
        let guard = shared.read().expect("sharded state lock poisoned");
        let state = guard.state();
        let active = state.active().len();
        self.peak_active = self.peak_active.max(active);
        self.mx.set_active(active);
        self.telemetry.offer(at.value());
        let caps = &self.ring_caps;
        self.series.offer(at, active, || utilization(state, caps));
    }
}

/// The sharded engine's one-shot driver. See [`run_sharded`].
#[derive(Debug)]
pub struct ShardedEngine {
    cfg: ServiceConfig,
    workers: usize,
    net: Arc<HetNetwork>,
    schedule: ChurnSchedule,
    faults: Vec<FaultEvent>,
    envelope: SharedEnvelope,
    /// Checkpoint to resume from, if recovering.
    resume: Option<EngineCheckpoint>,
    /// If set, capture a checkpoint after this many arrivals.
    checkpoint_after: Option<usize>,
    /// The run's shared metrics registry. Created at construction so a
    /// live viewer can hold a clone and poll while `run` is going.
    registry: Arc<MetricsRegistry>,
    /// Outlier flight recorder shared with the committer.
    flight: Arc<FlightRecorder>,
    /// Ring of periodic telemetry frames, pollable from any thread.
    telemetry_ring: Arc<SharedRing<TelemetryFrame>>,
}

impl ShardedEngine {
    /// Builds an engine over `network` with `workers` worker threads
    /// (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidRequest`] if the churn shape does not
    /// match the network, the scheduler or class count is invalid, or
    /// the config schedules reconfigurations.
    pub fn new(network: HetNetwork, cfg: &ServiceConfig, workers: usize) -> Result<Self, CacError> {
        let Prepared {
            network,
            schedule,
            envelope,
            faults,
        } = prepare(network, cfg)?;
        if !cfg.reconfigs.is_empty() {
            return Err(CacError::InvalidRequest(
                "the sharded engine does not support live reconfiguration; \
                 use the sequential engine for reconfig schedules"
                    .into(),
            ));
        }
        let registry = Arc::new(MetricsRegistry::new());
        let flight = Arc::new(FlightRecorder::new(
            cfg.obs.flight_capacity,
            cfg.obs.flight_min_samples,
        ));
        let telemetry_ring = Arc::new(SharedRing::new(cfg.obs.telemetry_capacity));
        Ok(Self {
            cfg: cfg.clone(),
            workers: workers.max(1),
            net: Arc::new(network),
            schedule,
            faults,
            envelope,
            resume: None,
            checkpoint_after: None,
            registry,
            flight,
            telemetry_ring,
        })
    }

    /// The run's shared metrics registry. Clone the `Arc` before
    /// calling [`ShardedEngine::run`] to watch the run from another
    /// thread (this is what `hetnet-top` does).
    #[must_use]
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The run's outlier flight recorder (see
    /// [`hetnet_obs::FlightRecorder`]).
    #[must_use]
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.flight)
    }

    /// The ring periodic telemetry frames are pushed into when
    /// [`ObsOptions::telemetry_period`](crate::ObsOptions) is set.
    #[must_use]
    pub fn telemetry_ring(&self) -> Arc<SharedRing<TelemetryFrame>> {
        Arc::clone(&self.telemetry_ring)
    }

    /// Resumes from a checkpoint taken by either engine (the formats
    /// are shared): the state is restored from the snapshot and the run
    /// continues from the checkpoint's cursors,
    /// producing the same remaining decisions.
    ///
    /// # Errors
    ///
    /// As for [`ShardedEngine::new`], plus
    /// [`CacError::SnapshotMismatch`] if the snapshot does not fit the
    /// network or the cursors exceed the regenerated schedules.
    pub fn recover(
        network: HetNetwork,
        cfg: &ServiceConfig,
        workers: usize,
        checkpoint: &EngineCheckpoint,
    ) -> Result<Self, CacError> {
        let mut engine = Self::new(network, cfg, workers)?;
        if checkpoint.next_arrival > engine.schedule.arrivals.len()
            || checkpoint.next_fault > engine.faults.len()
        {
            return Err(CacError::SnapshotMismatch(
                "checkpoint cursors exceed the regenerated schedules".into(),
            ));
        }
        engine.resume = Some(checkpoint.clone());
        Ok(engine)
    }

    /// Requests a checkpoint capture after `arrivals` more arrivals
    /// have committed; the checkpoint is returned by
    /// [`ShardedEngine::run`]. Workers keep speculating while the
    /// snapshot is taken — it is consistent because only the committer
    /// mutates.
    #[must_use]
    pub fn checkpoint_after(mut self, arrivals: usize) -> Self {
        self.checkpoint_after = Some(arrivals);
        self
    }

    /// Runs every event and assembles the run (and the requested
    /// checkpoint, if any).
    ///
    /// # Errors
    ///
    /// Propagates any [`CacError`] from the underlying admissions and
    /// releases (rejections are outcomes, not errors).
    #[allow(clippy::too_many_lines)]
    pub fn run(self) -> Result<(ShardedRun, Option<EngineCheckpoint>), CacError> {
        let started = Instant::now();
        let workers = self.workers;
        let mut state = NetworkState::new_shared(Arc::clone(&self.net));
        if let Some(ckpt) = &self.resume {
            state.restore(&ckpt.state)?;
        }
        // Measured against the state's budgets, which a restore may
        // have retuned.
        let ring_caps: Vec<f64> = state
            .network()
            .rings()
            .iter()
            .map(|r| r.allocatable().value())
            .collect();
        let shared = RwLock::new(ShardedState::new(state));
        let start_arrival = self.resume.as_ref().map_or(0, |c| c.next_arrival);
        let start_seq = self.resume.as_ref().map_or(0, |c| c.state.decision_seq);

        // Partition the remaining arrivals by worker (source ring mod
        // workers), preserving schedule order within each worker.
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (idx, a) in self
            .schedule
            .arrivals
            .iter()
            .enumerate()
            .skip(start_arrival)
        {
            owned[a.source.0 % workers].push(idx);
        }

        let mut spec_rx = Vec::with_capacity(workers);
        let mut ack_txs = Vec::with_capacity(workers);
        let mut worker_inputs = Vec::with_capacity(workers);
        for indices in owned {
            let (tx, rx) = mpsc::sync_channel::<Result<SpecMsg, CacError>>(1);
            let (ack_tx, ack_rx) = mpsc::sync_channel::<()>(1);
            spec_rx.push(rx);
            ack_txs.push(ack_tx);
            worker_inputs.push((indices, tx, ack_rx));
        }

        let mut committer = Committer {
            cfg: &self.cfg,
            shared: &shared,
            schedule: &self.schedule,
            faults: &self.faults,
            envelope: Arc::clone(&self.envelope),
            clock: Seconds::ZERO,
            decision_seq: start_seq,
            departures: self.resume.as_ref().map_or_else(BinaryHeap::new, |c| {
                c.departures.iter().map(|&p| Reverse(p)).collect()
            }),
            live: self.resume.as_ref().map_or_else(BTreeMap::new, |c| {
                c.live
                    .iter()
                    .map(|&(id, arrival, departs)| (id, (arrival, departs)))
                    .collect()
            }),
            parked: self.resume.as_ref().map_or_else(Vec::new, |c| {
                c.parked
                    .iter()
                    .map(|&(arrival, departs_bits)| Parked {
                        arrival,
                        departs_bits,
                    })
                    .collect()
            }),
            open_faults: self
                .resume
                .as_ref()
                .map_or_else(BTreeMap::new, |c| c.open_faults.iter().copied().collect()),
            next_arrival: start_arrival,
            next_fault: self.resume.as_ref().map_or(0, |c| c.next_fault),
            counters: DecisionCounters::default(),
            latency: LatencyHistogram::new(),
            series: UtilizationSeries::new(self.cfg.sample_period),
            audit: if start_seq == 0 {
                AuditLog::new()
            } else {
                AuditLog::starting_at(start_seq)
            },
            recovery: RecoveryMetrics::default(),
            gauges: CacheGauges::default(),
            fast: FastPathGauges::default(),
            attribution: DelayAttribution::default(),
            peak_active: 0,
            ring_caps,
            stats: ShardingStats {
                workers,
                ..ShardingStats::default()
            },
            inline_cache: None,
            spec_rx,
            ack_tx: ack_txs,
            mx: EngineMetrics::register(&self.registry),
            shard_gauges: vec![CacheGauges::default(); workers + 1],
            conflicts_total: self.registry.counter(
                "hetnet_commit_conflicts_total",
                "Speculations invalidated at commit and recomputed inline.",
                &[],
            ),
            inline_total: self.registry.counter(
                "hetnet_inline_decisions_total",
                "Decisions computed inline by the committer (conflicts and readmits).",
                &[],
            ),
            ledger_version: self.registry.gauge(
                "hetnet_ledger_version",
                "Ledger version most recently validated by the committer.",
                &[],
            ),
            flight: Arc::clone(&self.flight),
            telemetry: Telemetry::new(
                &self.cfg.obs,
                Arc::clone(&self.registry),
                Arc::clone(&self.telemetry_ring),
            ),
        };

        let mut checkpoint_out: Option<EngineCheckpoint> = None;
        let checkpoint_at = self.checkpoint_after.map(|n| start_arrival + n);
        let result: Result<(), CacError> = std::thread::scope(|scope| {
            for (w, (indices, tx, ack_rx)) in worker_inputs.into_iter().enumerate() {
                let cfg = &self.cfg;
                let schedule = &self.schedule;
                let envelope = Arc::clone(&self.envelope);
                let shared_ref = &shared;
                let registry = Arc::clone(&self.registry);
                scope.spawn(move || {
                    // Each worker registers its own shard-labelled
                    // families into the one shared registry, from its
                    // own thread.
                    let shard = w.to_string();
                    let speculations = registry.counter(
                        "hetnet_shard_speculations_total",
                        "Speculative admissions evaluated, per worker shard.",
                        &[("shard", &shard)],
                    );
                    let spec_latency = registry.histogram(
                        "hetnet_shard_speculation_latency_seconds",
                        "Worker-side speculation wall time, per shard.",
                        &[("shard", &shard)],
                    );
                    let mut cache: Option<hetnet_cac::delay::EvalCache> = None;
                    let mut first = true;
                    for idx in indices {
                        if !first && ack_rx.recv().is_err() {
                            return; // committer gone (error path)
                        }
                        first = false;
                        let a = &schedule.arrivals[idx];
                        let decided = arrival_spec(cfg, &envelope, a).and_then(|spec| {
                            decide_scoped(shared_ref, cfg, &spec, a.at, &mut cache)
                        });
                        match decided {
                            Ok(mut msg) => {
                                msg.idx = idx;
                                speculations.inc();
                                spec_latency.observe(msg.latency.value());
                                if tx.send(Ok(msg)).is_err() {
                                    return;
                                }
                            }
                            Err(e) => {
                                let _ = tx.send(Err(e));
                                return;
                            }
                        }
                    }
                });
            }

            while let Some(&a) = self.schedule.arrivals.get(committer.next_arrival) {
                if checkpoint_at == Some(committer.next_arrival) && checkpoint_out.is_none() {
                    checkpoint_out = Some(committer.take_checkpoint());
                }
                let idx = committer.next_arrival;
                committer.commit_arrival(idx, a)?;
                committer.next_arrival += 1;
            }
            if checkpoint_at == Some(committer.next_arrival) && checkpoint_out.is_none() {
                checkpoint_out = Some(committer.take_checkpoint());
            }
            while let Some(e) = committer.faults.get(committer.next_fault).copied() {
                committer.advance_to(e.at)?;
            }
            Ok(())
        });
        result?;

        committer.telemetry.finish(committer.clock.value());
        committer.recovery.undrained = committer.open_faults.len() as u64;
        let wall_seconds = started.elapsed().as_secs_f64();
        let final_snapshot = {
            let guard = shared.read().expect("sharded state lock poisoned");
            guard.snapshot(committer.clock, committer.decision_seq)
        };
        let ring_utilization = (0..committer.ring_caps.len())
            .map(|r| committer.series.ring_summary(r))
            .collect();
        let counters = committer.counters;
        let report = ServiceReport {
            requests: counters.total(),
            counters,
            latency: LatencySummary::from_histogram(&committer.latency),
            cache: committer.gauges,
            fast_path: committer.fast,
            blocking_probability: counters.blocking_probability(),
            requests_per_sec: if wall_seconds > 0.0 {
                counters.total() as f64 / wall_seconds
            } else {
                0.0
            },
            wall_seconds,
            span: self.schedule.span(),
            peak_active: committer.peak_active,
            final_active: final_snapshot.connections.len(),
            ring_utilization,
            audit_len: committer.audit.len(),
            topology: self.net.summary().to_string(),
            delay_attribution: StageDelaySummary::from_attribution(&committer.attribution),
            recovery: committer.recovery,
            reconfig: crate::metrics::ReconfigMetrics::default(),
            shard_cache: committer.shard_gauges,
            flight_recorder: self.flight.to_json(),
        };
        Ok((
            ShardedRun {
                report,
                audit: committer.audit,
                series: committer.series,
                final_snapshot,
                sharding: committer.stats,
                telemetry: self.telemetry_ring.drain(),
            },
            checkpoint_out,
        ))
    }
}

impl Committer<'_> {
    /// Captures a checkpoint between arrivals, in the sequential
    /// engine's format (the two engines' checkpoints interchange).
    fn take_checkpoint(&self) -> EngineCheckpoint {
        let mut departures: Vec<(u64, u64)> = self.departures.iter().map(|&Reverse(p)| p).collect();
        departures.sort_unstable();
        let state = self
            .shared
            .read()
            .expect("sharded state lock poisoned")
            .snapshot(self.clock, self.decision_seq);
        EngineCheckpoint {
            state,
            departures,
            live: self
                .live
                .iter()
                .map(|(&id, &(arrival, departs))| (id, arrival, departs))
                .collect(),
            parked: self
                .parked
                .iter()
                .map(|p| (p.arrival, p.departs_bits))
                .collect(),
            open_faults: self.open_faults.iter().map(|(&c, &b)| (c, b)).collect(),
            next_arrival: self.next_arrival,
            next_fault: self.next_fault,
            // The sharded engine refuses reconfig schedules, so a
            // checkpoint it takes always sits before the first one.
            next_reconfig: 0,
        }
    }
}

/// Runs the churn workload of `cfg` against `network` with the sharded
/// engine and `workers` worker threads.
///
/// # Errors
///
/// As for [`ShardedEngine::new`] and [`ShardedEngine::run`].
pub fn run_sharded(
    network: HetNetwork,
    cfg: &ServiceConfig,
    workers: usize,
) -> Result<ShardedRun, CacError> {
    let (run, _) = ShardedEngine::new(network, cfg, workers)?.run()?;
    Ok(run)
}

/// Certifies that a sharded run reproduced a sequential run's
/// decisions: audit logs equal in length and pairwise
/// [`entries_equivalent`] (admissions bitwise, rejections by class),
/// and final states bit-identical by snapshot JSON.
#[must_use]
pub fn runs_equivalent(sharded: &ShardedRun, sequential: &ServiceRun) -> bool {
    sharded.audit.len() == sequential.audit.len()
        && sharded
            .audit
            .entries()
            .iter()
            .zip(sequential.audit.entries())
            .all(|(a, b)| entries_equivalent(a, b))
        && sharded.final_snapshot.to_json() == sequential.state.snapshot().to_json()
}

/// [`runs_equivalent`] for two sharded runs (e.g. different worker
/// counts over the same config).
#[must_use]
pub fn sharded_runs_equivalent(a: &ShardedRun, b: &ShardedRun) -> bool {
    a.audit.len() == b.audit.len()
        && a.audit
            .entries()
            .iter()
            .zip(b.audit.entries())
            .all(|(x, y)| entries_equivalent(x, y))
        && a.final_snapshot.to_json() == b.final_snapshot.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, ServiceEngine};
    use hetnet_cac::cac::{AdmissionOptions, CacConfig};
    use hetnet_sim::fault::FaultConfig;

    fn smoke_cfg(requests: usize, seed: u64) -> ServiceConfig {
        let mut cfg = ServiceConfig::paper_style(2.0, requests, seed);
        cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
        cfg
    }

    fn faulted_cfg(requests: usize, seed: u64) -> ServiceConfig {
        let mut cfg = smoke_cfg(requests, seed);
        cfg.faults = Some(FaultConfig {
            mean_gap: Seconds::new(8.0),
            mean_outage: Seconds::new(4.0),
            max_outage: Seconds::new(8.0),
            shrink_factor: Some(0.85),
            seed: seed ^ 0x5eed,
        });
        cfg
    }

    #[test]
    fn sharded_run_matches_sequential_run() {
        let cfg = smoke_cfg(80, 17);
        let sequential = run(HetNetwork::paper_topology(), &cfg).unwrap();
        for workers in [1, 3] {
            let sharded = run_sharded(HetNetwork::paper_topology(), &cfg, workers).unwrap();
            assert!(
                runs_equivalent(&sharded, &sequential),
                "workers={workers} diverged"
            );
            assert_eq!(sharded.report.counters, sequential.report.counters);
            assert_eq!(sharded.report.peak_active, sequential.report.peak_active);
            assert!(sharded.sharding.speculated > 0);
            assert!(sharded.sharding.peak_closure > 0);
        }
    }

    #[test]
    fn sharded_run_matches_sequential_under_faults() {
        let cfg = faulted_cfg(150, 23);
        let sequential = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let sharded = run_sharded(HetNetwork::paper_topology(), &cfg, 2).unwrap();
        assert!(runs_equivalent(&sharded, &sequential));
        assert_eq!(sharded.report.recovery, sequential.report.recovery);
        assert!(
            sharded.sharding.inline_decisions > 0,
            "faulted runs readmit inline: {:?}",
            sharded.sharding
        );
        // Fault barriers force some conflicts under multiple workers…
        // but whatever the retry count, decisions already matched.
        assert!(sharded.report.audit_len as u64 >= 150);
    }

    #[test]
    fn scheduler_and_classes_are_validated_like_the_sequential_engine() {
        let cfg = smoke_cfg(10, 3).with_scheduler(
            hetnet_cac::network::Scheduler::Drr { quanta: vec![3, 2] },
            3,
        );
        let err = ShardedEngine::new(HetNetwork::paper_topology(), &cfg, 2).unwrap_err();
        assert!(err.to_string().contains("classes 3 exceed"), "{err}");
        assert!(ServiceEngine::new(HetNetwork::paper_topology(), &cfg).is_err());
    }

    #[test]
    fn worker_count_does_not_change_decisions() {
        let cfg = faulted_cfg(120, 31);
        let a = run_sharded(HetNetwork::paper_topology(), &cfg, 1).unwrap();
        let b = run_sharded(HetNetwork::paper_topology(), &cfg, 3).unwrap();
        assert!(sharded_runs_equivalent(&a, &b));
        assert_eq!(a.report.counters, b.report.counters);
    }

    #[test]
    fn checkpoint_interchanges_with_the_sequential_engine() {
        let cfg = faulted_cfg(120, 7);
        // Sharded run captures a mid-run checkpoint with workers live.
        let (full, ckpt) = ShardedEngine::new(HetNetwork::paper_topology(), &cfg, 2)
            .unwrap()
            .checkpoint_after(50)
            .run()
            .unwrap();
        let ckpt = ckpt.expect("checkpoint requested");
        // The sequential engine resumes from it…
        let seq_engine = ServiceEngine::recover(HetNetwork::paper_topology(), &cfg, &ckpt).unwrap();
        let seq_rest = seq_engine.finish().unwrap();
        assert_eq!(
            seq_rest.state.snapshot().to_json(),
            full.final_snapshot.to_json(),
            "sequential resume must land on the sharded run's final state"
        );
        // …and so does a fresh sharded engine.
        let (sharded_rest, _) =
            ShardedEngine::recover(HetNetwork::paper_topology(), &cfg, 2, &ckpt)
                .unwrap()
                .run()
                .unwrap();
        assert_eq!(
            sharded_rest.final_snapshot.to_json(),
            full.final_snapshot.to_json()
        );
        let tail_start = ckpt.state.decision_seq;
        assert_eq!(sharded_rest.audit.start(), tail_start);
        for (got, want) in sharded_rest
            .audit
            .entries()
            .iter()
            .zip(&full.audit.entries()[tail_start as usize..])
        {
            assert!(entries_equivalent(got, want), "{got:?} vs {want:?}");
        }
    }
}
