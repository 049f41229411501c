//! The sharded admission engine: the sequential engine's event loop
//! fed by speculating workers.
//!
//! [`crate::engine::ServiceEngine`] decides every arrival in place, in
//! turn. This engine runs the same event loop — departures, faults,
//! reconfigurations, re-admissions and every piece of bookkeeping at
//! the same event slots — over one [`ShardedState`] behind a lock, and
//! takes most arrival decisions off the loop's thread: arrivals are
//! routed to a worker by source ring (`ring % workers`), and each
//! worker *speculates* its decisions over the candidate's dependency
//! closure (a scoped state of typically a few hundred connections, not
//! the whole network), under the options in force read with it. The
//! loop — the **committer** — walks the merged event stream in global
//! order, validates each speculation against the conflict log and
//! commits it, or decides the arrival again in place when a
//! conflicting commit, a barrier (fault or repair) or a
//! reconfiguration landed since the speculation was read (optimistic
//! concurrency, validate-then-commit).
//!
//! Because commits happen strictly in event order and conflicted
//! speculations are decided again in place, the committed decision
//! stream — ids, allocations, delay bounds, rejection classes, audit
//! sequence — is the sequential engine's stream (`DESIGN.md` §12 gives
//! the argument; `tests/sharded_replay.rs` holds it over random churn,
//! fault and reconfiguration schedules, and [`runs_equivalent`] is the
//! certifying predicate). The audit log is appended only at commit
//! time, so it stays gap-free without any cross-thread ordering
//! protocol.
//!
//! A run with one worker is the same algorithm minus parallelism —
//! useful both as the conflict-free baseline and for certifying that
//! worker count does not leak into decisions.

use crate::audit::AuditLog;
use crate::engine::{
    arrival_spec, entries_equivalent, EngineCheckpoint, EventLoop, Measured, ServiceConfig,
    ServiceRun,
};
use crate::metrics::{CacheGauges, UtilizationSeries};
use crate::observability::{with_spans, TelemetryFrame};
use crate::report::ServiceReport;
use hetnet_cac::cac::{Decision, EvalCacheCaps, NetworkState};
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::delay::{CacheStats, EvalCache};
use hetnet_cac::error::CacError;
use hetnet_cac::network::HetNetwork;
use hetnet_cac::shard::{Footprint, ShardedState};
use hetnet_cac::snapshot::StateSnapshot;
use hetnet_cac::trace::DecisionTrace;
use hetnet_obs::registry::{Counter, Gauge};
use hetnet_obs::{FlightRecorder, MetricsRegistry, SharedRing};
use hetnet_traffic::units::Seconds;
use std::sync::{mpsc, Arc, RwLock};
use std::time::Instant;

/// Evaluator-cache caps of the workers' scoped states and of the shared
/// state the committer decides on in place: generous enough that one
/// large closure does not evict the whole working set every decision
/// (the sequential engine's defaults are tuned for one small network).
/// Cache contents never affect decisions, only speed.
const WORKER_CACHE_CAPS: EvalCacheCaps = EvalCacheCaps {
    stage1: 1 << 16,
    mux: 1 << 18,
    receive: 1 << 18,
};

const POISONED: &str = "sharded state lock poisoned";

/// Concurrency and conflict statistics of one sharded run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardingStats {
    /// Worker threads the run was configured with.
    pub workers: usize,
    /// Decisions decided speculatively by workers.
    pub speculated: u64,
    /// Speculations invalidated at commit time and decided again in
    /// place (their speculative work is discarded).
    pub conflicts: u64,
    /// Decisions computed in place by the committer (conflict retries
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
    /// The final admission state — equal, string for string, to the
    /// sequential engine's final `state.snapshot().to_json()`.
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

/// The sharded run's statistics and metric families, kept by the
/// event loop so its in-place decisions count too.
#[derive(Debug)]
pub(crate) struct ShardMetrics {
    stats: ShardingStats,
    /// Per-shard evaluator-cache gauges: one entry per worker (all work
    /// that worker's speculations did, kept or discarded), plus one
    /// final entry for the committer's in-place decisions (conflict
    /// recomputes and readmits).
    gauges: Vec<CacheGauges>,
    conflicts_total: Counter,
    inline_total: Counter,
    /// Conflict-log version most recently validated by the committer.
    ledger_version: Gauge,
}

impl ShardMetrics {
    fn register(registry: &MetricsRegistry, workers: usize) -> Self {
        Self {
            stats: ShardingStats {
                workers,
                ..ShardingStats::default()
            },
            gauges: vec![CacheGauges::default(); workers + 1],
            conflicts_total: registry.counter(
                "hetnet_commit_conflicts_total",
                "Speculations invalidated at commit and recomputed inline.",
                &[],
            ),
            inline_total: registry.counter(
                "hetnet_inline_decisions_total",
                "Decisions computed inline by the committer (conflicts and readmits).",
                &[],
            ),
            ledger_version: registry.gauge(
                "hetnet_ledger_version",
                "Ledger version most recently validated by the committer.",
                &[],
            ),
        }
    }

    /// Counts one decision the committer took in place.
    pub(crate) fn inline(&mut self, cache: CacheStats) {
        self.stats.inline_decisions += 1;
        self.inline_total.inc();
        self.gauges[self.stats.workers].absorb(cache);
    }

    /// Counts the closure a committed decision read.
    pub(crate) fn closure(&mut self, closure: usize) {
        self.stats.peak_closure = self.stats.peak_closure.max(closure);
        self.stats.closure_sum += closure as u64;
    }
}

/// What a worker hands the committer for one speculated arrival: the
/// decision, what it read, and what it cost (less the trace it owns).
struct SpecMsg {
    decision: Decision,
    footprint: Footprint,
    trace: Option<DecisionTrace>,
    measured: Measured<'static>,
}

/// A worker's carried evaluator cache, with the network whose ring
/// parameters it was filled under.
type WorkerCache = Option<(Arc<HetNetwork>, EvalCache)>;

/// Speculates `spec` over its dependency closure of `shared`, under the
/// options in force read with the closure, carrying `cache` across
/// calls.
fn speculate(
    shared: &RwLock<ShardedState>,
    cfg: &ServiceConfig,
    spec: ConnectionSpec,
    at: Seconds,
    cache: &mut WorkerCache,
) -> Result<SpecMsg, CacError> {
    let t0 = Instant::now();
    let (mut scoped, options, footprint) = ShardedState::speculate(shared, spec.source, spec.dest)?;
    let closure = scoped.active().len();
    scoped.set_cache_caps(WORKER_CACHE_CAPS);
    scoped.persist_eval_cache(cfg.persist_cache);
    // Cache keys do not span ring parameters: a cache filled before a
    // retune would hit on stale entries, so it is dropped, as
    // `NetworkState::reconfigure` drops the state's own.
    if let Some((net, carried)) = cache.take() {
        if Arc::ptr_eq(&net, scoped.shared_network()) {
            scoped.inject_eval_cache(carried);
        }
    }
    scoped.set_decision_tracing(cfg.trace_decisions);
    scoped.set_clock(at);
    let (decision, spans) = with_spans(&cfg.obs, || scoped.admit(spec, &options))?;
    let measured = Measured {
        latency: t0.elapsed().as_secs_f64(),
        cache: scoped.last_cache_stats().unwrap_or_default(),
        spans,
        version: Some(footprint.version()),
        closure,
        ..Measured::default()
    };
    *cache = scoped
        .take_eval_cache()
        .map(|c| (Arc::clone(scoped.shared_network()), c));
    Ok(SpecMsg {
        decision,
        footprint,
        trace: scoped.last_decision_trace().cloned(),
        measured,
    })
}

/// Commits worker `shard`'s speculation for arrival `idx` after the
/// events due before it — or, if anything it read changed since,
/// decides the arrival again in place.
fn commit_arrival(
    events: &mut EventLoop,
    state: &mut ShardedState,
    idx: usize,
    shard: usize,
    msg: SpecMsg,
) -> Result<(), CacError> {
    let (request, spec) = events.arrival(idx)?;
    events.advance_to(state, request.at)?;
    let shards = events.shards.as_mut().expect("sharded run");
    shards.stats.speculated += 1;
    shards.gauges[shard].absorb(msg.measured.cache);
    shards.ledger_version.set(msg.footprint.version() as f64);
    let shard = shard as u32;
    if state.conflicts(&msg.footprint) {
        shards.stats.conflicts += 1;
        shards.conflicts_total.inc();
        events.decide(state, request, spec, Some((shard, msg.measured.spans)))?;
        return Ok(());
    }
    state.set_clock(request.at);
    let decision = state.commit(&spec, msg.decision)?;
    let measured = Measured {
        trace: msg.trace.as_ref(),
        shard: Some(shard),
        ..msg.measured
    };
    events.record(state, &request, &decision, measured);
    Ok(())
}

/// The sharded engine's one-shot driver. See [`run_sharded`].
#[derive(Debug)]
pub struct ShardedEngine {
    events: EventLoop,
    state: ShardedState,
    workers: usize,
    /// If set, capture a checkpoint after this many arrivals.
    checkpoint_after: Option<usize>,
}

impl ShardedEngine {
    /// Builds an engine over `network` with `workers` worker threads
    /// (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidRequest`] if the churn shape does not
    /// match the network, or the scheduler, class count or
    /// reconfiguration schedule is invalid.
    pub fn new(network: HetNetwork, cfg: &ServiceConfig, workers: usize) -> Result<Self, CacError> {
        Self::start(network, cfg, workers, None)
    }

    /// Resumes from a checkpoint taken by either engine (the formats
    /// are shared): the state is restored from the snapshot and the run
    /// continues from the checkpoint's cursors, producing the same
    /// remaining decisions.
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
        Self::start(network, cfg, workers, Some(checkpoint))
    }

    fn start(
        network: HetNetwork,
        cfg: &ServiceConfig,
        workers: usize,
        checkpoint: Option<&EngineCheckpoint>,
    ) -> Result<Self, CacError> {
        let workers = workers.max(1);
        let (mut events, state) = EventLoop::start(network, cfg, checkpoint, WORKER_CACHE_CAPS)?;
        events.shards = Some(ShardMetrics::register(&events.registry, workers));
        Ok(Self {
            events,
            state,
            workers,
            checkpoint_after: None,
        })
    }

    /// The run's shared metrics registry. Clone the `Arc` before
    /// calling [`ShardedEngine::run`] to watch the run from another
    /// thread (this is what `hetnet-top` does).
    #[must_use]
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.events.registry)
    }

    /// The run's outlier flight recorder (see
    /// [`hetnet_obs::FlightRecorder`]).
    #[must_use]
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.events.flight)
    }

    /// The ring periodic telemetry frames are pushed into when
    /// [`ObsOptions::telemetry_period`](crate::ObsOptions) is set.
    #[must_use]
    pub fn telemetry_ring(&self) -> Arc<SharedRing<TelemetryFrame>> {
        Arc::clone(&self.events.telemetry_ring)
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
    pub fn run(self) -> Result<(ShardedRun, Option<EngineCheckpoint>), CacError> {
        let Self {
            mut events,
            state,
            workers,
            checkpoint_after,
        } = self;
        events.started = Instant::now();
        let shared = RwLock::new(state);
        // Partition the remaining arrivals by worker (source ring mod
        // workers), preserving schedule order within each worker.
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (idx, a) in events
            .schedule
            .arrivals
            .iter()
            .enumerate()
            .skip(events.pos.next_arrival)
        {
            owned[a.source.0 % workers].push(idx);
        }
        let checkpoint_at = checkpoint_after.map(|n| events.pos.next_arrival + n);
        let mut checkpoint = None;
        let cfg = events.cfg.clone();
        let schedule = Arc::clone(&events.schedule);
        let envelope = Arc::clone(&events.envelope);
        let registry = Arc::clone(&events.registry);
        std::thread::scope(|scope| {
            let mut spec_rx = Vec::with_capacity(workers);
            // Per-worker acks: a worker may speculate its next arrival
            // only after its previous one committed (without this,
            // consecutive same-shard arrivals would conflict
            // essentially always).
            let mut ack_tx = Vec::with_capacity(workers);
            for (w, indices) in owned.into_iter().enumerate() {
                let (tx, rx) = mpsc::sync_channel::<Result<SpecMsg, CacError>>(1);
                let (atx, ack_rx) = mpsc::sync_channel::<()>(1);
                spec_rx.push(rx);
                ack_tx.push(atx);
                let (shared, cfg, schedule, envelope, registry) =
                    (&shared, &cfg, &schedule, &envelope, &registry);
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
                    let mut cache: WorkerCache = None;
                    for (n, idx) in indices.into_iter().enumerate() {
                        if n > 0 && ack_rx.recv().is_err() {
                            return; // committer gone (error path)
                        }
                        let a = &schedule.arrivals[idx];
                        let msg = arrival_spec(cfg, envelope, a)
                            .and_then(|spec| speculate(shared, cfg, spec, a.at, &mut cache));
                        if let Ok(m) = &msg {
                            speculations.inc();
                            spec_latency.observe(m.measured.latency);
                        }
                        let failed = msg.is_err();
                        if tx.send(msg).is_err() || failed {
                            return;
                        }
                    }
                });
            }
            let committed = (|| {
                loop {
                    if checkpoint_at == Some(events.pos.next_arrival) {
                        checkpoint = Some(events.take_checkpoint(&shared.read().expect(POISONED)));
                    }
                    let idx = events.pos.next_arrival;
                    let Some(a) = events.schedule.arrivals.get(idx) else {
                        break;
                    };
                    let w = a.source.0 % workers;
                    let msg = spec_rx[w].recv().expect("worker hung up mid-schedule")?;
                    commit_arrival(
                        &mut events,
                        &mut shared.write().expect(POISONED),
                        idx,
                        w,
                        msg,
                    )?;
                    let _ = ack_tx[w].send(());
                    events.pos.next_arrival += 1;
                }
                events.drain(&mut shared.write().expect(POISONED))
            })();
            // Release workers still waiting for an ack (error path).
            drop(ack_tx);
            committed
        })?;

        let shards = events.shards.take().expect("sharded run");
        let mut run = events.into_run(shared.into_inner().expect(POISONED));
        run.report.shard_cache = shards.gauges;
        Ok((
            ShardedRun {
                report: run.report,
                audit: run.audit,
                series: run.series,
                final_snapshot: run.state.snapshot(),
                sharding: shards.stats,
                telemetry: run.telemetry,
            },
            checkpoint,
        ))
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
    audits_equivalent(&sharded.audit, &sequential.audit)
        && sharded.final_snapshot.to_json() == sequential.state.snapshot().to_json()
}

/// [`runs_equivalent`] for two sharded runs (e.g. different worker
/// counts over the same config).
#[must_use]
pub fn sharded_runs_equivalent(a: &ShardedRun, b: &ShardedRun) -> bool {
    audits_equivalent(&a.audit, &b.audit)
        && a.final_snapshot.to_json() == b.final_snapshot.to_json()
}

fn audits_equivalent(a: &AuditLog, b: &AuditLog) -> bool {
    a.len() == b.len()
        && a.entries()
            .iter()
            .zip(b.entries())
            .all(|(x, y)| entries_equivalent(x, y))
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
