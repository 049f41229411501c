//! The event-driven admission engine, with fault injection and
//! snapshot-based recovery.
//!
//! [`ServiceEngine`] consumes a churn schedule as a merged stream of
//! connect/disconnect/fault events in time order: before each arrival
//! is decided, every departure and fault due at or before it is
//! processed (ties resolve departure < fault < arrival, matching the
//! connection-level semantics that a released allocation is available
//! to a simultaneous request). Each arrival becomes one
//! [`NetworkState::admit`] call under the configured
//! [`AdmissionOptions`], so a service run is — by construction —
//! decision-for-decision identical to driving the bare state machine in
//! the same event order.
//!
//! Fault events come from the seeded [`hetnet_sim::fault`] schedule: a
//! component failure tears down every connection crossing it (the CAC
//! reclaims its synchronous bandwidth), a repair optionally re-admits
//! the torn-down connections greedily, and a deadline shrink evicts
//! connections whose admission-time bound no longer fits. Every
//! fault-driven decision lands in the same gap-free audit log as the
//! scheduled arrivals, tagged [`AuditKind::Readmit`].
//!
//! Because the churn and fault schedules are pure functions of the
//! config, the whole run is reproducible from `(config, seed)` — and,
//! with [`ServiceEngine::checkpoint`] / [`ServiceEngine::recover`],
//! from a [`StateSnapshot`]-based checkpoint plus the audit-log tail:
//! [`verify_recovery`] replays the remainder of a run from a checkpoint
//! and fails with [`CacError::SnapshotMismatch`] unless every replayed
//! decision is bit-identical to the recorded one.

use crate::audit::{AuditEntry, AuditKind, AuditLog, AuditOutcome};
use crate::metrics::{
    CacheGauges, DecisionCounters, DelayAttribution, FastPathGauges, LatencyHistogram,
    ReconfigMetrics, RecoveryMetrics, UtilizationSeries,
};
use crate::observability::{spans_to_json, EngineMetrics, ObsOptions, Telemetry, TelemetryFrame};
use crate::report::{LatencySummary, ServiceReport, StageDelaySummary};
use hetnet_cac::cac::{
    AdmissionOptions, Decision, DecisionObserver, DecisionRecord, NetworkState, RejectReason,
};
use hetnet_cac::connection::{ConnectionId, ConnectionSpec};
use hetnet_cac::error::CacError;
use hetnet_cac::network::{Component, HetNetwork, LinkId, RingId, Scheduler};
use hetnet_cac::reconfig::{ReconfigPlan, ReconfigReport};
use hetnet_cac::snapshot::StateSnapshot;
use hetnet_obs::{FlightObservation, FlightRecorder, MetricsRegistry, SharedRing};
use hetnet_sim::churn::{self, ChurnArrival, ChurnConfig, ChurnSchedule};
use hetnet_sim::fault::{generate_faults, FaultConfig, FaultEvent, FaultKind};
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::units::Seconds;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A scheduled live reconfiguration: at event-stream time `at`, apply
/// `plan` via [`NetworkState::reconfigure`], renegotiating the whole
/// admitted set and parking any victims for greedy re-admission.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReconfigEvent {
    /// Event-stream time the reconfiguration fires.
    pub at: Seconds,
    /// The parameter change to apply.
    pub plan: ReconfigPlan,
}

/// Configuration of one service run.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The churn workload to generate and consume.
    pub churn: ChurnConfig,
    /// Admission options applied to every request.
    pub options: AdmissionOptions,
    /// Ring-utilization sampling period, in processed events.
    pub sample_period: usize,
    /// Whether to carry the evaluator cache across decisions
    /// (admission-neutral; see the core crate's cache tests).
    pub persist_cache: bool,
    /// Whether to run the incremental fast-path decision ladder ahead
    /// of the dense evaluator (decision-neutral by construction; the
    /// core crate's `fast_path` certification tests pin bit-identical
    /// outcomes).
    pub fast_path: bool,
    /// Whether the state emits a [`hetnet_cac::trace::DecisionTrace`]
    /// per decision, feeding the report's delay attribution. Admission-
    /// neutral; costs one trace allocation per decision.
    pub trace_decisions: bool,
    /// Seeded fault schedule injected into the run; `None` disables
    /// fault injection entirely.
    pub faults: Option<FaultConfig>,
    /// Whether a component repair greedily re-admits the connections
    /// its failure tore down (ignored without fault injection).
    pub readmit: bool,
    /// Backbone scheduling discipline installed on the network before
    /// the run starts; `None` keeps whatever the supplied
    /// [`HetNetwork`] already uses (FIFO for
    /// [`HetNetwork::paper_topology`]).
    pub scheduler: Option<Scheduler>,
    /// Number of backbone traffic classes the churn connections spread
    /// over. The class is derived from the source host as
    /// `(ring + station) % classes`, so the churn schedule itself is
    /// bit-identical across settings; `0` or `1` keeps every
    /// connection in class 0 (the FIFO behavior).
    pub classes: u8,
    /// Observability knobs: span collection, periodic telemetry, and
    /// flight-recorder sizing. Decision-neutral by construction.
    pub obs: ObsOptions,
    /// Scheduled live reconfigurations, applied in time order between
    /// the surrounding events (ties: departure < fault < reconfig <
    /// arrival). A plan's β, once applied, governs every subsequent
    /// admission of the run.
    pub reconfigs: Vec<ReconfigEvent>,
}

impl ServiceConfig {
    /// A paper-style workload under default β-search options, without
    /// fault injection.
    #[must_use]
    pub fn paper_style(arrival_rate: f64, requests: usize, seed: u64) -> Self {
        Self {
            churn: ChurnConfig::paper_style(arrival_rate, requests, seed),
            options: AdmissionOptions::default(),
            sample_period: 16,
            persist_cache: true,
            fast_path: true,
            trace_decisions: true,
            faults: None,
            readmit: true,
            scheduler: None,
            classes: 1,
            obs: ObsOptions::default(),
            reconfigs: Vec::new(),
        }
    }

    /// Installs a backbone scheduler (and the number of traffic
    /// classes the churn connections spread over) for the run.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Scheduler, classes: u8) -> Self {
        self.scheduler = Some(scheduler);
        self.classes = classes;
        self
    }

    /// Adds a fault schedule to the run.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Adds a live-reconfiguration schedule to the run (the engine
    /// applies the events in time order regardless of the order given
    /// here).
    #[must_use]
    pub fn with_reconfigs(mut self, reconfigs: Vec<ReconfigEvent>) -> Self {
        self.reconfigs = reconfigs;
        self
    }
}

/// Everything a run produces: the aggregate report, the full audit
/// log, the utilization series, and the final network state.
#[derive(Debug)]
pub struct ServiceRun {
    /// Aggregate metrics.
    pub report: ServiceReport,
    /// Decision-ordered audit log (one entry per decision; for a
    /// recovered engine this is the post-checkpoint tail).
    pub audit: AuditLog,
    /// Sampled ring-utilization time series.
    pub series: UtilizationSeries,
    /// The state after the last event, still holding the connections
    /// whose departures lie beyond the final arrival.
    pub state: NetworkState,
    /// Telemetry frames retained at run end (empty unless
    /// [`ObsOptions::telemetry_period`] was set).
    pub telemetry: Vec<TelemetryFrame>,
}

/// Streaming metrics consumer installed as the state's
/// [`DecisionObserver`]: accumulates evaluator-cache gauges and the
/// delay-budget attribution, and checks the decision sequence stays
/// gap-free.
struct MetricsHook {
    gauges: Arc<Mutex<CacheGauges>>,
    fast: Arc<Mutex<FastPathGauges>>,
    attribution: Arc<Mutex<DelayAttribution>>,
    next_seq: u64,
}

impl DecisionObserver for MetricsHook {
    fn on_decision(&mut self, record: &DecisionRecord<'_>) {
        assert_eq!(record.seq, self.next_seq, "decision stream skipped a seq");
        self.next_seq += 1;
        self.gauges
            .lock()
            .expect("gauges mutex poisoned")
            .absorb(record.cache);
        self.fast
            .lock()
            .expect("fast-path mutex poisoned")
            .absorb(record.fast_path);
        if let Some(trace) = record.trace {
            self.attribution
                .lock()
                .expect("attribution mutex poisoned")
                .absorb(trace);
        }
    }

    fn on_reconfig(&mut self, seq: u64, _report: &ReconfigReport) {
        assert_eq!(seq, self.next_seq, "decision stream skipped a seq");
        self.next_seq += 1;
    }
}

/// A pending departure, min-ordered by `(time, connection id)`. Times
/// are non-negative, so the IEEE-754 bit pattern orders like the value
/// and gives the heap a total, deterministic order.
pub(crate) type Departure = Reverse<(u64, u64)>;

pub(crate) fn departure(at: Seconds, id: ConnectionId) -> Departure {
    Reverse((at.value().to_bits(), id.0))
}

/// A connection torn down by a fault, waiting for a repair to attempt
/// re-admission. The spec is re-derived from the churn schedule by
/// arrival index, so parking carries no envelope state.
#[derive(Clone, Copy, Debug)]
struct Parked {
    arrival: usize,
    departs_bits: u64,
}

/// What both engines derive from a config before their first event.
pub(crate) struct Prepared {
    /// The network, with the configured backbone scheduler installed.
    pub(crate) network: HetNetwork,
    pub(crate) schedule: ChurnSchedule,
    /// The schedule's source model, shared by every request.
    pub(crate) envelope: SharedEnvelope,
    pub(crate) faults: Vec<FaultEvent>,
}

/// Checks `cfg` against `network` — churn shape, scheduler, and class
/// count — installs the scheduler, and generates the churn and fault
/// schedules.
///
/// # Errors
///
/// Returns [`CacError::InvalidRequest`] on a churn-shape mismatch, an
/// invalid scheduler, or more classes than the scheduler maps.
pub(crate) fn prepare(network: HetNetwork, cfg: &ServiceConfig) -> Result<Prepared, CacError> {
    let shape = cfg.churn.shape;
    if shape.rings != network.rings().len() || shape.hosts_per_ring != network.hosts_per_ring() {
        return Err(CacError::InvalidRequest(format!(
            "churn shape {}x{} does not match network {}x{}",
            shape.rings,
            shape.hosts_per_ring,
            network.rings().len(),
            network.hosts_per_ring()
        )));
    }
    let network = match &cfg.scheduler {
        Some(s) => {
            s.validate()
                .map_err(|e| CacError::InvalidRequest(format!("scheduler: {e}")))?;
            if let Some(map) = s.weight_map() {
                if usize::from(cfg.classes.max(1)) > map.len() {
                    return Err(CacError::InvalidRequest(format!(
                        "classes {} exceed the {} classes mapped by scheduler {s}",
                        cfg.classes,
                        map.len()
                    )));
                }
            }
            network.with_scheduler(s.clone())
        }
        None => network,
    };
    let schedule = churn::generate(&cfg.churn);
    let envelope: SharedEnvelope = Arc::new(schedule.source);
    let faults = match &cfg.faults {
        Some(f) if !schedule.arrivals.is_empty() => generate_faults(
            f,
            network.rings().len(),
            network.backbone().link_count(),
            schedule.span(),
        ),
        _ => Vec::new(),
    };
    Ok(Prepared {
        network,
        schedule,
        envelope,
        faults,
    })
}

/// The request of scheduled arrival `a`. Its backbone traffic class is
/// derived from the source host (`(ring + station) % classes`), so the
/// class mix is deterministic without perturbing the churn RNG stream.
///
/// # Errors
///
/// Propagates spec validation errors.
pub(crate) fn arrival_spec(
    cfg: &ServiceConfig,
    envelope: &SharedEnvelope,
    a: &ChurnArrival,
) -> Result<ConnectionSpec, CacError> {
    let class = if cfg.classes > 1 {
        ((a.source.0 + a.source.1) % usize::from(cfg.classes)) as u8
    } else {
        0
    };
    ConnectionSpec::builder()
        .source(a.source)
        .dest(a.dest)
        .envelope(Arc::clone(envelope))
        .deadline(a.deadline)
        .class(class)
        .build()
}

/// A resumable engine position: the [`StateSnapshot`] of the network
/// plus the engine's scheduling state (pending departures, parked
/// connections, open faults, and stream cursors). Everything else —
/// the churn and fault schedules — is regenerated from the config, so
/// a checkpoint is small and fully deterministic.
#[derive(Clone, Debug)]
pub struct EngineCheckpoint {
    pub(crate) state: StateSnapshot,
    pub(crate) departures: Vec<(u64, u64)>,
    pub(crate) live: Vec<(u64, usize, u64)>,
    pub(crate) parked: Vec<(usize, u64)>,
    pub(crate) open_faults: Vec<(Component, u64)>,
    pub(crate) next_arrival: usize,
    pub(crate) next_fault: usize,
    pub(crate) next_reconfig: usize,
}

impl EngineCheckpoint {
    /// The network snapshot the checkpoint carries.
    #[must_use]
    pub fn state(&self) -> &StateSnapshot {
        &self.state
    }

    /// Decisions made before the checkpoint — the audit-log offset a
    /// recovered engine resumes at.
    #[must_use]
    pub fn decision_seq(&self) -> u64 {
        self.state.decision_seq
    }
}

/// The stepwise admission engine: [`ServiceEngine::new`] positions it
/// at the start of the schedule, [`ServiceEngine::step_arrival`]
/// processes one arrival (plus every departure and fault due before
/// it), and [`ServiceEngine::finish`] runs to completion and assembles
/// the [`ServiceRun`]. The free function [`run`] does all three.
#[derive(Debug)]
pub struct ServiceEngine {
    cfg: ServiceConfig,
    state: NetworkState,
    schedule: ChurnSchedule,
    faults: Vec<FaultEvent>,
    /// The reconfiguration schedule, sorted by time (stable, so equal
    /// times keep the config order).
    reconfigs: Vec<ReconfigEvent>,
    envelope: SharedEnvelope,
    departures: BinaryHeap<Departure>,
    /// Live connection id → (schedule arrival index, departure bits).
    live: BTreeMap<u64, (usize, u64)>,
    parked: Vec<Parked>,
    /// Component → down-time bits, for time-to-drain accounting.
    open_faults: BTreeMap<Component, u64>,
    next_arrival: usize,
    next_fault: usize,
    next_reconfig: usize,
    counters: DecisionCounters,
    latency: LatencyHistogram,
    series: UtilizationSeries,
    audit: AuditLog,
    recovery: RecoveryMetrics,
    reconfig_metrics: ReconfigMetrics,
    gauges: Arc<Mutex<CacheGauges>>,
    fast: Arc<Mutex<FastPathGauges>>,
    attribution: Arc<Mutex<DelayAttribution>>,
    registry: Arc<MetricsRegistry>,
    mx: EngineMetrics,
    flight: Arc<FlightRecorder>,
    telemetry_ring: Arc<SharedRing<TelemetryFrame>>,
    telemetry: Telemetry,
    /// Simulated time of the last processed event, for the final
    /// telemetry frame.
    last_event: f64,
    peak_active: usize,
    ring_caps: Vec<f64>,
    topology: String,
    started: Instant,
}

impl ServiceEngine {
    /// Builds an engine positioned before the first event of `cfg`'s
    /// schedules.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidRequest`] if the churn shape does not
    /// match the network.
    pub fn new(network: HetNetwork, cfg: &ServiceConfig) -> Result<Self, CacError> {
        let Prepared {
            network,
            schedule,
            envelope,
            faults,
        } = prepare(network, cfg)?;
        for e in &cfg.reconfigs {
            e.plan
                .validate(network.rings().len())
                .map_err(|err| CacError::InvalidRequest(format!("reconfig schedule: {err}")))?;
        }
        let mut reconfigs = cfg.reconfigs.clone();
        reconfigs.sort_by_key(|e| e.at.value().to_bits());

        let topology = network.summary().to_string();
        let mut state = NetworkState::new(network);
        state.persist_eval_cache(cfg.persist_cache);
        state.set_fast_path(cfg.fast_path)?;
        state.set_decision_tracing(cfg.trace_decisions);
        let gauges = Arc::new(Mutex::new(CacheGauges::default()));
        let fast = Arc::new(Mutex::new(FastPathGauges::default()));
        let attribution = Arc::new(Mutex::new(DelayAttribution::default()));
        state.set_observer(Some(Box::new(MetricsHook {
            gauges: Arc::clone(&gauges),
            fast: Arc::clone(&fast),
            attribution: Arc::clone(&attribution),
            next_seq: 0,
        })));
        let ring_caps: Vec<f64> = state
            .network()
            .rings()
            .iter()
            .map(|r| r.allocatable().value())
            .collect();
        let sample_period = cfg.sample_period;
        let registry = Arc::new(MetricsRegistry::new());
        let mx = EngineMetrics::register(&registry);
        let flight = Arc::new(FlightRecorder::new(
            cfg.obs.flight_capacity,
            cfg.obs.flight_min_samples,
        ));
        let telemetry_ring = Arc::new(SharedRing::new(cfg.obs.telemetry_capacity));
        let telemetry =
            Telemetry::new(&cfg.obs, Arc::clone(&registry), Arc::clone(&telemetry_ring));
        Ok(Self {
            cfg: cfg.clone(),
            state,
            schedule,
            faults,
            reconfigs,
            envelope,
            departures: BinaryHeap::new(),
            live: BTreeMap::new(),
            parked: Vec::new(),
            open_faults: BTreeMap::new(),
            next_arrival: 0,
            next_fault: 0,
            next_reconfig: 0,
            counters: DecisionCounters::default(),
            latency: LatencyHistogram::new(),
            series: UtilizationSeries::new(sample_period),
            audit: AuditLog::new(),
            recovery: RecoveryMetrics::default(),
            reconfig_metrics: ReconfigMetrics::default(),
            gauges,
            fast,
            attribution,
            registry,
            mx,
            flight,
            telemetry_ring,
            telemetry,
            last_event: 0.0,
            peak_active: 0,
            ring_caps,
            topology,
            started: Instant::now(),
        })
    }

    /// Rebuilds an engine mid-run from a checkpoint: the network state
    /// is restored bit-for-bit from the snapshot, the churn and fault
    /// schedules are regenerated from `cfg`, and the scheduling state
    /// (departures, parked connections, cursors) comes from the
    /// checkpoint. Stepping the result reproduces the original run's
    /// remaining decisions exactly.
    ///
    /// Metrics (counters, latency, utilization, recovery) restart at
    /// zero and cover only the post-checkpoint segment; the audit log
    /// resumes at the checkpoint's decision sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::SnapshotMismatch`] if the snapshot does not
    /// fit the network or the cursors exceed the regenerated schedules,
    /// and [`CacError::InvalidRequest`] on a churn-shape mismatch.
    pub fn recover(
        network: HetNetwork,
        cfg: &ServiceConfig,
        checkpoint: &EngineCheckpoint,
    ) -> Result<Self, CacError> {
        let mut engine = Self::new(network, cfg)?;
        if checkpoint.next_arrival > engine.schedule.arrivals.len()
            || checkpoint.next_fault > engine.faults.len()
            || checkpoint.next_reconfig > engine.reconfigs.len()
        {
            return Err(CacError::SnapshotMismatch(
                "checkpoint cursors exceed the regenerated schedules".into(),
            ));
        }
        engine.state.restore(&checkpoint.state)?;
        // The snapshot's ring parameters were adopted by the restore;
        // utilization must be measured against the *restored* budgets.
        engine.ring_caps = engine
            .state
            .network()
            .rings()
            .iter()
            .map(|r| r.allocatable().value())
            .collect();
        // A reconfiguration's β outlives it via the admission options;
        // replay the pre-checkpoint prefix so post-recovery admissions
        // run under the same β as the original run's.
        for e in &engine.reconfigs[..checkpoint.next_reconfig] {
            if let Some(beta) = e.plan.beta {
                engine.cfg.options.cac.beta = beta;
            }
        }
        // Reinstall the observer so the gap-free sequence check resumes
        // at the snapshot's decision count.
        engine.state.set_observer(Some(Box::new(MetricsHook {
            gauges: Arc::clone(&engine.gauges),
            fast: Arc::clone(&engine.fast),
            attribution: Arc::clone(&engine.attribution),
            next_seq: checkpoint.state.decision_seq,
        })));
        engine.audit = AuditLog::starting_at(checkpoint.state.decision_seq);
        engine.departures = checkpoint.departures.iter().map(|&p| Reverse(p)).collect();
        engine.live = checkpoint
            .live
            .iter()
            .map(|&(id, arrival, departs)| (id, (arrival, departs)))
            .collect();
        engine.parked = checkpoint
            .parked
            .iter()
            .map(|&(arrival, departs_bits)| Parked {
                arrival,
                departs_bits,
            })
            .collect();
        engine.open_faults = checkpoint.open_faults.iter().copied().collect();
        engine.next_arrival = checkpoint.next_arrival;
        engine.next_fault = checkpoint.next_fault;
        engine.next_reconfig = checkpoint.next_reconfig;
        Ok(engine)
    }

    /// Captures the engine's position between arrivals.
    #[must_use]
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let mut departures: Vec<(u64, u64)> = self.departures.iter().map(|&Reverse(p)| p).collect();
        departures.sort_unstable();
        EngineCheckpoint {
            state: self.state.snapshot(),
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
            next_reconfig: self.next_reconfig,
        }
    }

    /// The network state as of the last processed event.
    #[must_use]
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// The audit log so far.
    #[must_use]
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Arrivals not yet processed.
    #[must_use]
    pub fn pending_arrivals(&self) -> usize {
        self.schedule.arrivals.len() - self.next_arrival
    }

    /// The shared metrics registry this engine updates. Snapshot it
    /// from any thread to watch the run live.
    #[must_use]
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The always-on outlier flight recorder.
    #[must_use]
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.flight)
    }

    /// The shared ring periodic telemetry frames land in (empty unless
    /// [`ObsOptions::telemetry_period`] is set). Poll it from another
    /// thread for a `hetnet-top`-style live view.
    #[must_use]
    pub fn telemetry_ring(&self) -> Arc<SharedRing<TelemetryFrame>> {
        Arc::clone(&self.telemetry_ring)
    }

    /// Processes the next scheduled arrival, after every departure and
    /// fault due at or before it (ties: departure < fault < arrival).
    /// Returns `false` when the schedule is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates any [`CacError`] from the underlying admissions and
    /// releases (rejections are outcomes, not errors).
    pub fn step_arrival(&mut self) -> Result<bool, CacError> {
        let Some(&a) = self.schedule.arrivals.get(self.next_arrival) else {
            return Ok(false);
        };
        self.advance_to(a.at)?;
        let spec = arrival_spec(&self.cfg, &self.envelope, &a)?;
        let idx = self.next_arrival;
        self.decide(a.at, AuditKind::Arrival, idx, spec, a.at + a.holding)?;
        self.next_arrival += 1;
        Ok(true)
    }

    /// Runs every remaining event and assembles the [`ServiceRun`].
    ///
    /// # Errors
    ///
    /// Propagates any [`CacError`] from the remaining events.
    pub fn finish(mut self) -> Result<ServiceRun, CacError> {
        while self.step_arrival()? {}
        // Drain faults and reconfigurations scheduled past the last
        // arrival. The generated fault schedules end well inside the
        // horizon, so the first loop is normally a no-op, but it keeps
        // `undrained` honest for hand-built ones; reconfig schedules
        // are hand-built and routinely outlive the arrivals.
        while let Some(e) = self.faults.get(self.next_fault).copied() {
            self.advance_to(e.at)?;
        }
        while let Some(at) = self.reconfigs.get(self.next_reconfig).map(|e| e.at) {
            self.advance_to(at)?;
        }
        Ok(self.into_run())
    }

    /// Processes every departure, fault, and reconfiguration due at or
    /// before `t`, in time order (ties: departure < fault <
    /// reconfig).
    fn advance_to(&mut self, t: Seconds) -> Result<(), CacError> {
        loop {
            let dep_at = self
                .departures
                .peek()
                .map(|&Reverse((bits, _))| f64::from_bits(bits));
            let fault_at = self.faults.get(self.next_fault).map(|e| e.at.value());
            let rec_at = self.reconfigs.get(self.next_reconfig).map(|e| e.at.value());
            let dep_due = dep_at.is_some_and(|at| at <= t.value());
            let fault_due = fault_at.is_some_and(|at| at <= t.value());
            let rec_due = rec_at.is_some_and(|at| at <= t.value());
            if dep_due && (!fault_due || dep_at <= fault_at) && (!rec_due || dep_at <= rec_at) {
                self.pop_departure()?;
            } else if fault_due && (!rec_due || fault_at <= rec_at) {
                let e = self.faults[self.next_fault];
                self.next_fault += 1;
                self.apply_fault(e)?;
            } else if rec_due {
                let e = self.reconfigs[self.next_reconfig].clone();
                self.next_reconfig += 1;
                self.apply_reconfig(&e)?;
            } else {
                return Ok(());
            }
        }
    }

    /// Applies one scheduled reconfiguration: renegotiates the admitted
    /// set at the new parameters, parks victims for greedy
    /// re-admission, persists the plan's β into the run's admission
    /// options, and records the event in the audit log (one decision
    /// sequence number, kind [`AuditKind::Reconfig`]).
    fn apply_reconfig(&mut self, e: &ReconfigEvent) -> Result<(), CacError> {
        self.state.set_clock(e.at);
        let t0 = Instant::now();
        let report = self.state.reconfigure(&e.plan, &self.cfg.options)?;
        let latency_seconds = t0.elapsed().as_secs_f64();
        if let Some(beta) = e.plan.beta {
            self.cfg.options.cac.beta = beta;
        }
        // The allocatable budgets changed: utilization is measured
        // against the new ones from here on.
        self.ring_caps = self
            .state
            .network()
            .rings()
            .iter()
            .map(|r| r.allocatable().value())
            .collect();
        for conn in &report.dropped {
            if let Some((arrival, departs_bits)) = self.live.remove(&conn.id.0) {
                self.parked.push(Parked {
                    arrival,
                    departs_bits,
                });
            }
        }
        self.reconfig_metrics.absorb(&report);
        let seq = self.state.decisions() - 1;
        let observation = FlightObservation {
            correlation: seq,
            shard: None,
            at_seconds: e.at.value(),
            latency_seconds,
            conflict: false,
            reconfig: true,
            reject_class: None,
        };
        if self
            .flight
            .observe(&observation, || ("null".into(), "[]".into()))
            .is_some()
        {
            self.mx.outlier_captured();
        }
        self.audit.append(AuditEntry {
            seq,
            at: e.at,
            kind: AuditKind::Reconfig,
            arrival: self.next_reconfig - 1,
            source: (0, 0),
            dest: (0, 0),
            deadline: 0.0,
            outcome: AuditOutcome::Reconfigured {
                renegotiated: report.renegotiated.len() as u64,
                dropped: report.dropped.len() as u64,
                unchanged: report.unchanged.len() as u64,
            },
        });
        self.offer_sample(e.at);
        if self.cfg.readmit {
            self.readmit_parked(e.at)?;
        }
        Ok(())
    }

    /// Pops one departure. Connections already torn down by a fault
    /// left their heap entry behind; popping it is a no-op.
    fn pop_departure(&mut self) -> Result<(), CacError> {
        let Reverse((at_bits, id)) = self.departures.pop().expect("caller peeked a departure");
        if self.live.remove(&id).is_none() {
            return Ok(());
        }
        let at = Seconds::new(f64::from_bits(at_bits));
        self.state.set_clock(at);
        self.state.release(ConnectionId(id))?;
        self.offer_sample(at);
        Ok(())
    }

    /// Applies one fault event at its scheduled time.
    fn apply_fault(&mut self, e: FaultEvent) -> Result<(), CacError> {
        self.state.set_clock(e.at);
        self.recovery.faults_injected += 1;
        match e.kind {
            FaultKind::LinkDown(i) => self.component_down(e.at, Component::Link(LinkId(i))),
            FaultKind::RingDown(i) => self.component_down(e.at, Component::Ring(RingId(i))),
            FaultKind::IfDevDown(i) => self.component_down(e.at, Component::IfDev(RingId(i))),
            FaultKind::LinkUp(i) => self.component_up(e.at, Component::Link(LinkId(i))),
            FaultKind::RingUp(i) => self.component_up(e.at, Component::Ring(RingId(i))),
            FaultKind::IfDevUp(i) => self.component_up(e.at, Component::IfDev(RingId(i))),
            FaultKind::DeadlineShrink { factor } => self.deadline_shrink(e.at, factor),
            // `FaultKind` is non_exhaustive; unknown events are inert.
            _ => Ok(()),
        }
    }

    /// A component fails: the CAC tears down every connection crossing
    /// it and reclaims their synchronous bandwidth; the engine parks
    /// the victims for re-admission at repair time.
    fn component_down(&mut self, at: Seconds, component: Component) -> Result<(), CacError> {
        let report = self.state.set_component_down(component)?;
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

    /// A component is repaired: record the drain time and (when
    /// configured) greedily re-admit the parked connections.
    fn component_up(&mut self, at: Seconds, component: Component) -> Result<(), CacError> {
        let was_down = self.state.set_component_up(component)?;
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

    /// The network shrinks every admitted connection's effective
    /// deadline to `deadline * factor` for this instant: connections
    /// whose admission-time bound exceeds it are evicted and (when
    /// configured) immediately re-admitted at a fresh allocation.
    fn deadline_shrink(&mut self, at: Seconds, factor: f64) -> Result<(), CacError> {
        let victims: Vec<(ConnectionId, f64, f64)> = self
            .state
            .active()
            .iter()
            .filter(|c| c.delay_bound.value() > c.spec.deadline.value() * factor)
            .map(|c| {
                (
                    c.id,
                    c.h_s.per_rotation().value(),
                    c.h_r.per_rotation().value(),
                )
            })
            .collect();
        for (id, h_s, h_r) in victims {
            self.state.release(id)?;
            self.recovery.connections_dropped += 1;
            self.recovery.reclaimed_s += h_s;
            self.recovery.reclaimed_r += h_r;
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

    /// Attempts to re-admit every parked connection whose holding time
    /// has not yet expired. Successes rejoin the departure heap at
    /// their original departure time; connections still blocked by a
    /// down component stay parked for the next repair; all other
    /// rejections abandon the connection.
    fn readmit_parked(&mut self, now: Seconds) -> Result<(), CacError> {
        let parked = std::mem::take(&mut self.parked);
        for p in parked {
            let departs = f64::from_bits(p.departs_bits);
            if departs <= now.value() {
                self.recovery.expired_in_park += 1;
                continue;
            }
            let spec = arrival_spec(
                &self.cfg,
                &self.envelope,
                &self.schedule.arrivals[p.arrival],
            )?;
            self.recovery.readmit_attempts += 1;
            let decision = self.decide(
                now,
                AuditKind::Readmit,
                p.arrival,
                spec,
                Seconds::new(departs),
            )?;
            match &decision {
                Decision::Admitted { .. } => self.recovery.readmitted += 1,
                Decision::Rejected(RejectReason::ComponentUnavailable { .. }) => {
                    // The path is still blocked: wait for the next repair.
                    self.parked.push(p);
                }
                Decision::Rejected(_) => {}
            }
        }
        Ok(())
    }

    /// One admission decision, with all its bookkeeping: latency,
    /// counters, the departure heap, the live map, the audit log, and
    /// the utilization series.
    fn decide(
        &mut self,
        at: Seconds,
        kind: AuditKind,
        arrival: usize,
        spec: ConnectionSpec,
        departs: Seconds,
    ) -> Result<Decision, CacError> {
        let source = (spec.source.ring, spec.source.station);
        let dest = (spec.dest.ring, spec.dest.station);
        let deadline = spec.deadline.value();
        self.state.set_clock(at);
        let t0 = Instant::now();
        let (decision, spans) = if self.cfg.obs.spans && hetnet_obs::is_enabled() {
            let state = &mut self.state;
            let options = &self.cfg.options;
            let (decision, trace) =
                hetnet_obs::collect(self.cfg.obs.span_capacity, || state.admit(spec, options));
            (decision?, Some(trace))
        } else {
            (self.state.admit(spec, &self.cfg.options)?, None)
        };
        let latency_seconds = t0.elapsed().as_secs_f64();
        self.latency.record(Seconds::new(latency_seconds));
        self.mx.on_decision(
            matches!(decision, Decision::Admitted { .. }),
            latency_seconds,
            &self.state.last_cache_stats().unwrap_or_default(),
            &self.state.last_fast_path_stats().unwrap_or_default(),
        );
        let outcome = AuditOutcome::from_decision(&decision);
        let correlation = self.state.decisions() - 1;
        let reject_class = match &outcome {
            AuditOutcome::Rejected { class, .. } => Some(*class),
            _ => None,
        };
        let observation = FlightObservation {
            correlation,
            shard: None,
            at_seconds: at.value(),
            latency_seconds,
            conflict: false,
            reconfig: false,
            reject_class,
        };
        let state = &self.state;
        let captured = self.flight.observe(&observation, || {
            let trace_json = state
                .last_decision_trace()
                .map_or_else(|| "null".to_string(), |t| t.to_json_line());
            let spans_json = spans.as_ref().map_or_else(
                || "[]".to_string(),
                |t| spans_to_json(&[("decide", None, t)], None),
            );
            (trace_json, spans_json)
        });
        if captured.is_some() {
            self.mx.outlier_captured();
        }
        match &decision {
            Decision::Admitted { id, .. } => {
                self.counters.admitted += 1;
                self.departures.push(departure(departs, *id));
                self.live.insert(id.0, (arrival, departs.value().to_bits()));
            }
            Decision::Rejected(reason) => self.counters.count_rejection(reason),
        }
        self.audit.append(AuditEntry {
            seq: correlation,
            at,
            kind,
            arrival,
            source,
            dest,
            deadline,
            outcome,
        });
        self.offer_sample(at);
        Ok(decision)
    }

    /// Offers a post-event utilization sample, tracks the peak, and
    /// cuts any telemetry frames due at or before `at`.
    fn offer_sample(&mut self, at: Seconds) {
        let active = self.state.active().len();
        self.peak_active = self.peak_active.max(active);
        let state = &self.state;
        let caps = &self.ring_caps;
        self.series.offer(at, active, || utilization(state, caps));
        self.mx.set_active(active);
        self.last_event = self.last_event.max(at.value());
        self.telemetry.offer(at.value());
    }

    /// Assembles the final [`ServiceRun`].
    fn into_run(mut self) -> ServiceRun {
        self.recovery.undrained = self.open_faults.len() as u64;
        let wall_seconds = self.started.elapsed().as_secs_f64();
        self.state.set_observer(None);
        self.telemetry.finish(self.last_event);
        let cache = *self.gauges.lock().expect("gauges mutex poisoned");
        let fast_path = *self.fast.lock().expect("fast-path mutex poisoned");
        let delay_attribution = StageDelaySummary::from_attribution(
            &self.attribution.lock().expect("attribution mutex poisoned"),
        );
        let ring_utilization = (0..self.ring_caps.len())
            .map(|r| self.series.ring_summary(r))
            .collect();
        let counters = self.counters;
        let report = ServiceReport {
            requests: counters.total(),
            counters,
            latency: LatencySummary::from_histogram(&self.latency),
            cache,
            fast_path,
            blocking_probability: counters.blocking_probability(),
            requests_per_sec: if wall_seconds > 0.0 {
                counters.total() as f64 / wall_seconds
            } else {
                0.0
            },
            wall_seconds,
            span: self.schedule.span(),
            peak_active: self.peak_active,
            final_active: self.state.active().len(),
            ring_utilization,
            audit_len: self.audit.len(),
            topology: self.topology,
            delay_attribution,
            recovery: self.recovery,
            reconfig: self.reconfig_metrics,
            shard_cache: Vec::new(),
            flight_recorder: self.flight.to_json(),
        };
        ServiceRun {
            report,
            audit: self.audit,
            series: self.series,
            state: self.state,
            telemetry: self.telemetry_ring.drain(),
        }
    }
}

/// Runs the churn workload of `cfg` against `network` to completion.
///
/// # Errors
///
/// Returns [`CacError::InvalidRequest`] if the churn shape does not
/// match the network, and propagates any [`CacError`] from the
/// underlying admissions (rejections are outcomes, not errors).
pub fn run(network: HetNetwork, cfg: &ServiceConfig) -> Result<ServiceRun, CacError> {
    ServiceEngine::new(network, cfg)?.finish()
}

/// Recovers an engine from `checkpoint`, replays the remainder of the
/// run, and verifies every replayed decision matches the recorded
/// audit-log tail (`tail` must be the original run's entries from the
/// checkpoint's decision sequence onwards): admissions bit-identical
/// in id, allocations, and delay bound; rejections identical in reason
/// class. A rejection's free-text *detail* may name a different
/// infeasible component — it is evaluator-cache sensitive, and the
/// recovered engine's cache has a different warm-up history (the
/// engine's persistent-cache test pins the same tolerance).
///
/// # Errors
///
/// Returns [`CacError::SnapshotMismatch`] if the replay diverges from
/// the recorded log in length or in any entry, plus anything
/// [`ServiceEngine::recover`] can return.
pub fn verify_recovery(
    network: HetNetwork,
    cfg: &ServiceConfig,
    checkpoint: &EngineCheckpoint,
    tail: &[AuditEntry],
) -> Result<ServiceRun, CacError> {
    let engine = ServiceEngine::recover(network, cfg, checkpoint)?;
    let run = engine.finish()?;
    if run.audit.len() != tail.len() {
        return Err(CacError::SnapshotMismatch(format!(
            "recovered run produced {} decisions, the audit tail records {}",
            run.audit.len(),
            tail.len()
        )));
    }
    for (got, want) in run.audit.entries().iter().zip(tail) {
        if !entries_equivalent(got, want) {
            return Err(CacError::SnapshotMismatch(format!(
                "recovered decision {} diverged from the audit log: \
                 replayed {got:?}, recorded {want:?}",
                got.seq
            )));
        }
    }
    Ok(run)
}

/// Bit-level equivalence of two audit entries, modulo the rejection
/// diagnostic string (see [`verify_recovery`]): context fields and
/// admissions compare bitwise, rejections by reason class. This is the
/// certification predicate both recovery and the sharded engine's
/// decision-equivalence checks use.
#[must_use]
pub fn entries_equivalent(a: &AuditEntry, b: &AuditEntry) -> bool {
    use crate::audit::AuditOutcome;
    let context_matches = a.seq == b.seq
        && a.at.value().to_bits() == b.at.value().to_bits()
        && a.kind == b.kind
        && a.arrival == b.arrival
        && a.source == b.source
        && a.dest == b.dest
        && a.deadline.to_bits() == b.deadline.to_bits();
    if !context_matches {
        return false;
    }
    match (&a.outcome, &b.outcome) {
        (
            AuditOutcome::Admitted {
                id,
                h_s,
                h_r,
                delay_bound,
            },
            AuditOutcome::Admitted {
                id: id2,
                h_s: h_s2,
                h_r: h_r2,
                delay_bound: delay_bound2,
            },
        ) => {
            id == id2
                && h_s.to_bits() == h_s2.to_bits()
                && h_r.to_bits() == h_r2.to_bits()
                && delay_bound.to_bits() == delay_bound2.to_bits()
        }
        (AuditOutcome::Rejected { class, .. }, AuditOutcome::Rejected { class: class2, .. }) => {
            class == class2
        }
        (
            AuditOutcome::Reconfigured {
                renegotiated,
                dropped,
                unchanged,
            },
            AuditOutcome::Reconfigured {
                renegotiated: renegotiated2,
                dropped: dropped2,
                unchanged: unchanged2,
            },
        ) => renegotiated == renegotiated2 && dropped == dropped2 && unchanged == unchanged2,
        _ => false,
    }
}

/// Per-ring utilization: allocated fraction of allocatable time.
pub(crate) fn utilization(state: &NetworkState, caps: &[f64]) -> Vec<f64> {
    caps.iter()
        .enumerate()
        .map(|(r, &cap)| {
            let available = state.available_on(r).value();
            if cap > 0.0 {
                ((cap - available) / cap).clamp(0.0, 1.0)
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetnet_cac::cac::CacConfig;

    fn smoke_cfg() -> ServiceConfig {
        // High enough rate to saturate the rings and force rejections.
        let mut cfg = ServiceConfig::paper_style(2.0, 60, 17);
        cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
        cfg
    }

    /// A churn workload with a dense fault schedule: incidents every
    /// ~8 s over a ~`requests / 2.0` s run.
    fn faulted_cfg(requests: usize, seed: u64) -> ServiceConfig {
        let mut cfg = ServiceConfig::paper_style(2.0, requests, seed);
        cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
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
    fn scheduler_config_threads_through_the_run() {
        let cfg = smoke_cfg().with_scheduler(
            Scheduler::Iwrr {
                weights: vec![2, 1],
            },
            2,
        );
        let run = run(HetNetwork::paper_topology(), &cfg).unwrap();
        assert_eq!(
            run.state.network().scheduler(),
            &Scheduler::Iwrr {
                weights: vec![2, 1]
            }
        );
        assert!(run.report.counters.admitted > 0, "no admissions under IWRR");
        // Both classes actually occur in the admitted set: the class is
        // (ring + station) % 2, and the paper-style workload spreads
        // sources over every host.
        let classes: std::collections::BTreeSet<u8> =
            run.state.active().iter().map(|c| c.spec.class).collect();
        assert!(
            classes.len() == 2 || run.state.active().len() < 2,
            "expected both classes in the admitted set, got {classes:?}"
        );
        // Non-FIFO bounds come from the dense evaluator: no ladder
        // probe ever ran, and the skips carry the dedicated cause.
        let fp = &run.report.fast_path;
        assert_eq!(fp.probes(), 0, "fast path must sit out non-FIFO runs");
        let idx = hetnet_cac::incremental::SKIP_CAUSES
            .iter()
            .position(|&c| c == "non-fifo-scheduler")
            .expect("cause registered");
        assert!(fp.skip_causes[idx] > 0, "non-FIFO skip cause never fired");
    }

    #[test]
    fn invalid_scheduler_config_is_rejected_up_front() {
        let cfg = smoke_cfg().with_scheduler(Scheduler::Iwrr { weights: vec![] }, 1);
        let err = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap_err();
        assert!(matches!(err, CacError::InvalidRequest(ref m) if m.contains("scheduler")));

        let cfg = smoke_cfg().with_scheduler(Scheduler::Drr { quanta: vec![3, 2] }, 3);
        let err = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap_err();
        assert!(
            matches!(err, CacError::InvalidRequest(ref m) if m.contains("classes")),
            "3 classes over a 2-entry quantum map must be rejected"
        );
    }

    #[test]
    fn run_produces_admits_and_rejects() {
        let run = run(HetNetwork::paper_topology(), &smoke_cfg()).unwrap();
        let r = &run.report;
        assert_eq!(r.requests, 60);
        // Every decision was traced, and every rejection's trace named
        // the binding constraint that decided it.
        let d = &r.delay_attribution;
        assert_eq!(d.traced, 60);
        assert_eq!(d.rejects_with_binding, r.counters.rejected());
        assert_eq!(d.bindings.total(), r.counters.rejected());
        // Every admit (and every reject that got past the bandwidth
        // pre-checks) evaluated a path decomposition.
        assert!(d.total.count >= r.counters.admitted && d.total.count <= 60);
        assert_eq!(d.slack.count, r.counters.admitted);
        assert_eq!(d.atm.count, d.fddi_s.count);
        assert!(d.total.max >= d.atm.max);
        assert_eq!(r.topology, "3 rings x 4 hosts, 3 switches, 6 links");
        assert!(r.counters.admitted > 0, "no admissions: {r:?}");
        assert!(r.counters.rejected() > 0, "no rejections: {r:?}");
        assert_eq!(r.counters.total(), 60);
        assert_eq!(r.audit_len, 60);
        assert_eq!(r.latency.count, 60);
        assert!(r.latency.p99 >= r.latency.p50);
        assert!(r.blocking_probability > 0.0 && r.blocking_probability < 1.0);
        assert!(r.cache.evals() > 0);
        assert_eq!(r.ring_utilization.len(), 3);
        assert!(r.peak_active >= r.final_active);
        assert_eq!(r.final_active, run.state.active().len());
        // No faults configured: the recovery section is all-zero.
        assert_eq!(r.recovery, RecoveryMetrics::default());
    }

    #[test]
    fn audit_is_gap_free_and_matches_counters() {
        let run = run(HetNetwork::paper_topology(), &smoke_cfg()).unwrap();
        let admitted = run
            .audit
            .entries()
            .iter()
            .filter(|e| e.outcome.is_admitted())
            .count() as u64;
        assert_eq!(admitted, run.report.counters.admitted);
        for (i, e) in run.audit.entries().iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.arrival, i);
            assert_eq!(e.kind, AuditKind::Arrival);
        }
        // Times never decrease along the log.
        for w in run.audit.entries().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn runs_are_deterministic_in_decisions() {
        let a = run(HetNetwork::paper_topology(), &smoke_cfg()).unwrap();
        let b = run(HetNetwork::paper_topology(), &smoke_cfg()).unwrap();
        assert_eq!(a.audit.entries(), b.audit.entries());
        assert_eq!(a.report.counters, b.report.counters);
    }

    #[test]
    fn tracing_is_admission_neutral_and_off_means_empty_attribution() {
        let traced = run(HetNetwork::paper_topology(), &smoke_cfg()).unwrap();
        let mut cfg = smoke_cfg();
        cfg.trace_decisions = false;
        let untraced = run(HetNetwork::paper_topology(), &cfg).unwrap();
        assert_eq!(traced.audit.entries(), untraced.audit.entries());
        assert_eq!(traced.report.counters, untraced.report.counters);
        let d = &untraced.report.delay_attribution;
        assert_eq!(d.traced, 0);
        assert_eq!(d.rejects_with_binding, 0);
        assert_eq!(d.bindings.total(), 0);
        assert_eq!(d.total.count, 0);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut cfg = smoke_cfg();
        cfg.churn.shape.rings = 5;
        let err = run(HetNetwork::paper_topology(), &cfg).unwrap_err();
        assert!(matches!(err, CacError::InvalidRequest(_)), "{err}");
    }

    #[test]
    fn persistent_cache_does_not_change_outcomes() {
        let mut warm = smoke_cfg();
        warm.persist_cache = true;
        let mut cold = smoke_cfg();
        cold.persist_cache = false;
        let a = run(HetNetwork::paper_topology(), &warm).unwrap();
        let b = run(HetNetwork::paper_topology(), &cold).unwrap();
        // Admissions (ids, allocations, delay bounds) must be
        // bit-identical; a rejection's *class* must match too, but its
        // diagnostic detail may name a different failing constraint —
        // cache hits change which infeasible component the evaluator
        // reaches first, not whether the point is infeasible.
        for (w, c) in a.audit.entries().iter().zip(b.audit.entries()) {
            match (&w.outcome, &c.outcome) {
                (
                    crate::audit::AuditOutcome::Rejected { class: wc, .. },
                    crate::audit::AuditOutcome::Rejected { class: cc, .. },
                ) => assert_eq!(wc, cc, "seq {}", w.seq),
                (wo, co) => assert_eq!(wo, co, "seq {}", w.seq),
            }
        }
        assert_eq!(a.report.counters, b.report.counters);
    }

    #[test]
    fn fast_path_is_decision_neutral_and_reports_probes() {
        let mut on = faulted_cfg(120, 13);
        on.fast_path = true;
        let mut off = faulted_cfg(120, 13);
        off.fast_path = false;
        let a = run(HetNetwork::paper_topology(), &on).unwrap();
        let b = run(HetNetwork::paper_topology(), &off).unwrap();
        // Unlike the cache-persistence tolerance, the fast path must be
        // *fully* decision-neutral: it substitutes probe booleans, not
        // evaluation order, so even rejection details agree.
        assert_eq!(a.audit.entries(), b.audit.entries());
        assert_eq!(a.report.counters, b.report.counters);
        let f = &a.report.fast_path;
        assert!(f.probes() > 0, "ladder never ran: {f:?}");
        assert!(
            f.fast_accepts + f.fast_rejects > 0,
            "ladder decided nothing: {f:?}"
        );
        assert_eq!(b.report.fast_path, FastPathGauges::default());
    }

    #[test]
    fn faulted_run_drains_and_reclaims() {
        let cfg = faulted_cfg(200, 11);
        let run = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let rec = &run.report.recovery;
        assert!(rec.faults_injected > 0, "no faults fired: {rec:?}");
        assert_eq!(rec.undrained, 0, "faults left components down: {rec:?}");
        assert_eq!(rec.components_downed, rec.components_restored);
        assert!(rec.connections_dropped > 0, "no teardowns: {rec:?}");
        assert!(rec.reclaimed_s > 0.0 && rec.reclaimed_r > 0.0);
        assert!(rec.max_time_to_drain > 0.0);
        assert!(rec.readmit_attempts >= rec.readmitted);
        assert_eq!(run.state.down_components(), vec![]);
        // Every decision — scheduled or fault-driven — is audited.
        assert_eq!(run.report.audit_len as u64, run.report.requests);
        assert!(run.report.requests >= 200, "readmits add decisions");
        for (i, e) in run.audit.entries().iter().enumerate() {
            assert_eq!(e.seq, i as u64, "audit log must stay gap-free");
        }
        let readmits = run
            .audit
            .entries()
            .iter()
            .filter(|e| e.kind == AuditKind::Readmit)
            .count() as u64;
        assert_eq!(readmits, rec.readmit_attempts);
        assert!(readmits > 0, "expected re-admission attempts: {rec:?}");
        // Reclaimed bandwidth is really back: per ring, available ==
        // allocatable - sum of held allocations (to float tolerance;
        // the core's snapshot tests pin the bit-exact version).
        let mut held_s = [0.0f64; 3];
        let mut held_r = [0.0f64; 3];
        for c in run.state.active() {
            held_s[c.spec.source.ring] += c.h_s.per_rotation().value();
            held_r[c.spec.dest.ring] += c.h_r.per_rotation().value();
        }
        for ring in 0..3 {
            let cap = run.state.network().rings()[ring].allocatable().value();
            let available = run.state.available_on(ring).value();
            let held = held_s[ring] + held_r[ring];
            assert!(
                (cap - available - held).abs() < 1e-12,
                "ring {ring}: cap {cap} - available {available} != held {held}"
            );
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let cfg = faulted_cfg(120, 29);
        let a = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let b = run(HetNetwork::paper_topology(), &cfg).unwrap();
        assert_eq!(a.audit.entries(), b.audit.entries());
        assert_eq!(a.report.counters, b.report.counters);
        assert_eq!(a.report.recovery, b.report.recovery);
        assert_eq!(
            a.state.snapshot().to_json(),
            b.state.snapshot().to_json(),
            "final states must be bit-identical"
        );
    }

    #[test]
    fn readmit_can_be_disabled() {
        let mut cfg = faulted_cfg(150, 11);
        cfg.readmit = false;
        let run = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let rec = &run.report.recovery;
        assert_eq!(rec.readmit_attempts, 0);
        assert_eq!(rec.readmitted, 0);
        assert!(rec.connections_dropped > 0);
        assert_eq!(run.report.requests, 150, "only scheduled arrivals decide");
        assert!(run
            .audit
            .entries()
            .iter()
            .all(|e| e.kind == AuditKind::Arrival));
    }

    #[test]
    fn checkpoint_recovery_replays_the_audit_tail() {
        let cfg = faulted_cfg(150, 23);
        let mut engine = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap();
        for _ in 0..60 {
            assert!(engine.step_arrival().unwrap());
        }
        let checkpoint = engine.checkpoint();
        let seq0 = checkpoint.decision_seq() as usize;
        assert_eq!(seq0, engine.audit().len());
        let full = engine.finish().unwrap();
        let tail = &full.audit.entries()[seq0..];
        assert!(!tail.is_empty());
        let recovered =
            verify_recovery(HetNetwork::paper_topology(), &cfg, &checkpoint, tail).unwrap();
        assert_eq!(
            recovered.state.snapshot().to_json(),
            full.state.snapshot().to_json(),
            "recovered final state must be bit-identical"
        );
        assert_eq!(recovered.audit.start(), seq0 as u64);
        assert_eq!(recovered.audit.len(), tail.len());
    }

    /// A smoke config with one mid-run reconfiguration: retune TTRT to
    /// 12 ms, grow the overhead a little, and move β to 0.3.
    fn reconfigured_cfg(requests: usize, seed: u64) -> ServiceConfig {
        let mut cfg = ServiceConfig::paper_style(2.0, requests, seed);
        cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
        cfg.reconfigs = vec![ReconfigEvent {
            at: Seconds::new(requests as f64 / 4.0),
            plan: ReconfigPlan::uniform_ttrt(Seconds::from_millis(12.0))
                .with_overhead(Seconds::from_millis(1.0))
                .with_beta(0.3),
        }];
        cfg
    }

    #[test]
    fn reconfig_fires_renegotiates_and_audits() {
        let cfg = reconfigured_cfg(120, 19);
        let run = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let rc = &run.report.reconfig;
        assert_eq!(rc.reconfigs, 1, "the scheduled reconfig must fire");
        assert!(
            rc.renegotiated >= 1,
            "a TTRT retune renegotiates allocations: {rc:?}"
        );
        assert_eq!(
            run.state.network().rings()[0].ttrt,
            Seconds::from_millis(12.0)
        );
        // One audit entry of kind Reconfig, in a still gap-free log.
        let reconfig_entries: Vec<_> = run
            .audit
            .entries()
            .iter()
            .filter(|e| e.kind == AuditKind::Reconfig)
            .collect();
        assert_eq!(reconfig_entries.len(), 1);
        assert!(matches!(
            reconfig_entries[0].outcome,
            AuditOutcome::Reconfigured { .. }
        ));
        for (i, e) in run.audit.entries().iter().enumerate() {
            assert_eq!(e.seq, i as u64, "audit log must stay gap-free");
        }
        // The reconfig consumed a decision seq without being a request.
        assert_eq!(run.audit.len() as u64, run.report.requests + 1);
        // The flight recorder captured it.
        assert!(run
            .report
            .flight_recorder
            .contains("\"cause\":\"reconfig\""));
    }

    #[test]
    fn reconfigured_runs_are_deterministic() {
        let cfg = reconfigured_cfg(100, 37);
        let a = run(HetNetwork::paper_topology(), &cfg).unwrap();
        let b = run(HetNetwork::paper_topology(), &cfg).unwrap();
        assert_eq!(a.audit.entries(), b.audit.entries());
        assert_eq!(a.report.counters, b.report.counters);
        assert_eq!(a.report.reconfig, b.report.reconfig);
        assert_eq!(
            a.state.snapshot().to_json(),
            b.state.snapshot().to_json(),
            "final states must be bit-identical"
        );
    }

    #[test]
    fn checkpoint_before_a_reconfig_replays_through_it() {
        let cfg = reconfigured_cfg(140, 41);
        let mut engine = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap();
        // Stop well before t = 35 s (the reconfig instant): 20 arrivals
        // at rate 2.0 land around t = 10 s.
        for _ in 0..20 {
            assert!(engine.step_arrival().unwrap());
        }
        let checkpoint = engine.checkpoint();
        assert_eq!(checkpoint.next_reconfig, 0, "reconfig must still be ahead");
        let seq0 = checkpoint.decision_seq() as usize;
        let full = engine.finish().unwrap();
        let tail = &full.audit.entries()[seq0..];
        assert!(
            tail.iter().any(|e| e.kind == AuditKind::Reconfig),
            "the tail must contain the reconfiguration"
        );
        let recovered =
            verify_recovery(HetNetwork::paper_topology(), &cfg, &checkpoint, tail).unwrap();
        assert_eq!(
            recovered.state.snapshot().to_json(),
            full.state.snapshot().to_json(),
            "recovered final state must be bit-identical"
        );
        assert_eq!(recovered.report.reconfig, full.report.reconfig);
    }

    #[test]
    fn checkpoint_after_a_reconfig_resumes_at_the_new_parameters() {
        let cfg = reconfigured_cfg(140, 43);
        let mut engine = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap();
        while engine.next_reconfig == 0 {
            assert!(engine.step_arrival().unwrap(), "reconfig never fired");
        }
        let checkpoint = engine.checkpoint();
        assert_eq!(checkpoint.next_reconfig, 1);
        let seq0 = checkpoint.decision_seq() as usize;
        let full = engine.finish().unwrap();
        let tail = &full.audit.entries()[seq0..];
        let recovered =
            verify_recovery(HetNetwork::paper_topology(), &cfg, &checkpoint, tail).unwrap();
        // The recovered engine restored onto the retuned rings and the
        // replayed β: bit-identical end state.
        assert_eq!(
            recovered.state.network().rings()[0].ttrt,
            Seconds::from_millis(12.0)
        );
        assert_eq!(
            recovered.state.snapshot().to_json(),
            full.state.snapshot().to_json()
        );
    }

    #[test]
    fn invalid_reconfig_schedule_is_rejected_up_front() {
        let mut cfg = smoke_cfg();
        cfg.reconfigs = vec![ReconfigEvent {
            at: Seconds::new(1.0),
            plan: ReconfigPlan::default().with_beta(7.0),
        }];
        let err = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap_err();
        assert!(matches!(err, CacError::InvalidRequest(ref m) if m.contains("reconfig")));
    }

    #[test]
    fn recovery_flags_divergence_from_the_log() {
        let cfg = faulted_cfg(100, 31);
        let mut engine = ServiceEngine::new(HetNetwork::paper_topology(), &cfg).unwrap();
        for _ in 0..40 {
            assert!(engine.step_arrival().unwrap());
        }
        let checkpoint = engine.checkpoint();
        let seq0 = checkpoint.decision_seq() as usize;
        let full = engine.finish().unwrap();
        let mut tail = full.audit.entries()[seq0..].to_vec();
        tail[0].deadline += 1.0; // corrupt one recorded field
        let err =
            verify_recovery(HetNetwork::paper_topology(), &cfg, &checkpoint, &tail).unwrap_err();
        assert!(matches!(err, CacError::SnapshotMismatch(_)), "{err}");
    }
}
