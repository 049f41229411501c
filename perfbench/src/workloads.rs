//! The seeded workloads: `grid_sharded` (the sharded engine on a
//! 64-ring grid) and `grid_retune` (the sequential engine on a 16-ring
//! grid under faults and live TTRT retunes). Each is closed-loop from
//! this one process: the next request is issued only when the previous
//! decision has returned, and the engines replay a pre-drawn
//! simulated-time schedule, so simulated time never paces the wall
//! clock.
//!
//! Every workload's size is a pure function of `(seed, seconds)`, so a
//! seed always yields the same decisions — and therefore the same
//! admission probability and decision digest — whatever the speed.

use crate::check::{check_state, Digest, StateCheck};
use crate::layers::{self, ratio, set, TraceFold, CHUNK_CAPACITY, STEP};
use crate::stats::{beyond, chunked_quantile, chunked_rate, chunked_tail, median, Sorted, CHUNKS};
use hetnet_cac::cac::{AdmissionOptions, CacConfig};
use hetnet_cac::incremental::FastPathStats;
use hetnet_cac::network::{HetNetwork, Scheduler};
use hetnet_cac::reconfig::ReconfigPlan;
use hetnet_obs::OutlierCause;
use hetnet_service::{
    AuditKind, AuditLog, CacheGauges, FastPathGauges, ObsOptions, ReconfigEvent, ServiceConfig,
    ServiceEngine, ShardedEngine, ShardingStats,
};
use hetnet_sim::churn::{self, ChurnConfig, TopologyShape, TrafficPattern};
use hetnet_sim::fault::FaultConfig;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["grid_sharded", "grid_retune"];

/// Set-up repeats at least this often and for at least
/// [`SETUP_MIN_S`] seconds; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;

/// Calls per collector install in a traced run.
const CHUNK_CALLS: usize = 64;

/// Work per second of `--seconds`, calibrated so a timed phase lasts
/// about `--seconds` on a 2-thread x86-64 box at the commit that
/// introduced the benchmark.
const RETUNE_PER_S: f64 = 550.0;
const GRID_PER_S: f64 = 400.0;

const GRID_HOSTS: usize = 3;
const GRID_RINGS: usize = 64;
const GRID_RATE: f64 = 120.0;
const RETUNE_RINGS: usize = 16;
const RETUNE_RATE: f64 = 0.75;

/// What one run measured, before formatting.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// `(name, value)` for every end-to-end or every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra `"key": <json>` pairs for the detail line.
    pub details: Vec<(String, String)>,
}

/// Run parameters shared by all workloads.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workers: usize,
}

pub fn run(name: &str, p: Params) -> Result<Measured, String> {
    match name {
        "grid_retune" => grid_retune(p),
        "grid_sharded" => grid_sharded(p),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {NAMES:?}"
        )),
    }
}

fn scaled(per_s: f64, seconds: f64, min: usize) -> usize {
    ((per_s * seconds).round() as usize).max(min)
}

/// Runs `setup` repeatedly, timing each, and keeps the last result.
fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let value = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= SETUP_MIN_REPS && times.iter().sum::<f64>() >= SETUP_MIN_S {
            return Ok((value, times));
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn json_str(s: &str) -> String {
    format!("{s:?}")
}

/// Arrivals decided and admitted, from an audit log (readmits and
/// reconfigurations are not requests).
fn arrivals(audit: &AuditLog) -> (u64, u64) {
    let mut requested = 0;
    let mut admitted = 0;
    for e in audit.entries() {
        if e.kind == AuditKind::Arrival {
            requested += 1;
            admitted += u64::from(e.outcome.is_admitted());
        }
    }
    (requested, admitted)
}

/// How a timed phase was observed.
enum Timing {
    /// One latency per decision, in seconds.
    PerCall(Vec<f64>),
    /// One wall time per pass of `usize` decisions, each pass a single
    /// opaque call (the sharded engine): only the amortized time per
    /// decision is observable, and it is reported as such.
    Passes(Vec<f64>, usize),
}

/// The end-to-end metrics from one untraced timed phase.
struct EndToEnd {
    decided: u64,
    admitted: u64,
    wall: f64,
    timing: Timing,
    setup: Vec<f64>,
}

impl EndToEnd {
    fn into_measured(self, m: &mut Measured) -> Result<(), String> {
        let (rate, p50, tail, tail_q, chunks, basis) = match &self.timing {
            Timing::PerCall(lat) => {
                let (q, tail) = chunked_tail(lat);
                let p50 = chunked_quantile(lat, 0.5);
                (chunked_rate(lat), p50, tail, q, CHUNKS, "chunk_quartiles")
            }
            // The passes are the chunks; their quartiles, as above.
            Timing::Passes(walls, per_pass) => {
                let per: Vec<f64> = walls.iter().map(|w| w / *per_pass as f64).collect();
                let amortized = Sorted::new(per).quantile(0.25);
                let n = walls.len();
                (
                    1.0 / amortized,
                    amortized,
                    amortized,
                    0.5,
                    n,
                    "amortized_pass_quartiles",
                )
            }
        };
        m.metrics = vec![
            ("decisions_per_s", rate),
            ("decision_p50_us", p50 * 1e6),
            ("decision_tail_us", tail * 1e6),
            (
                "admission_probability",
                self.admitted as f64 / self.decided as f64,
            ),
            ("setup_s", median(&self.setup)),
            ("peak_rss_mb", peak_rss_mb()?),
        ];
        let per_chunk = self.decided as usize / chunks;
        m.details.push((
            "samples".into(),
            format!(
                concat!(
                    "{{\"basis\": \"{}\", \"decisions\": {}, \"wall_s\": {:.6}, ",
                    "\"chunks\": {}, \"per_chunk\": {}, ",
                    "\"tail_percentile\": {}, \"tail_beyond_per_chunk\": {}, ",
                    "\"admitted\": {}, \"setups\": {}}}"
                ),
                basis,
                self.decided,
                self.wall,
                chunks,
                per_chunk,
                tail_q * 100.0,
                beyond(tail_q, per_chunk),
                self.admitted,
                self.setup.len(),
            ),
        ));
        Ok(())
    }
}

/// The process's peak resident set (Linux `VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Folds the common checks into `m`: failed operations, correctness.
fn conclude(m: &mut Measured, errors: u64, check: &StateCheck, digest: Digest) {
    m.failed = errors + check.failures();
    m.correct = m.failed == 0;
    m.details.push(("check".into(), check.to_json()));
    m.details.push(("digest".into(), json_str(&digest.hex())));
}

/// Traced-run bookkeeping shared by every workload.
fn trace_summary(m: &mut Measured, untraced: (f64, Digest), traced: (f64, Digest)) {
    let same = untraced.1.hex() == traced.1.hex();
    if !same {
        m.correct = false;
        m.failed += 1;
    }
    m.details.push((
        "trace".into(),
        format!(
            "{{\"untraced_wall_s\": {:.6}, \"traced_wall_s\": {:.6}, \"untraced_digest\": {}, \
             \"traced_digest\": {}, \"digests_equal\": {same}}}",
            untraced.0,
            traced.0,
            json_str(&untraced.1.hex()),
            json_str(&traced.1.hex()),
        ),
    ));
}

/// Collects every per-layer metric in table order, defaulting to 0.
fn per_layer(values: &BTreeMap<String, f64>) -> Vec<(&'static str, f64)> {
    layers::PER_LAYER
        .iter()
        .map(|(n, _)| (*n, values.get(*n).copied().unwrap_or(0.0)))
        .collect()
}

/// Evaluator-cache and fast-ladder gauges, common to every workload.
fn gauge_layers(out: &mut BTreeMap<String, f64>, c: &CacheGauges, f: &FastPathGauges) {
    set(out, "delay.stage1.misses", c.stage1_misses as f64);
    set(
        out,
        "delay.stage1.hit_ratio",
        ratio(c.stage1_hits, c.stage1_hits + c.stage1_misses),
    );
    set(out, "delay.mux.misses", c.mux_misses as f64);
    set(
        out,
        "delay.mux.hit_ratio",
        ratio(c.mux_hits, c.mux_hits + c.mux_misses),
    );
    set(out, "delay.receive.misses", c.receive_misses as f64);
    set(
        out,
        "delay.receive.hit_ratio",
        ratio(c.receive_hits, c.receive_hits + c.receive_misses),
    );
    set(out, "incremental.probes", f.probes() as f64);
    set(out, "incremental.fast_accepts", f.fast_accepts as f64);
    set(out, "incremental.fast_rejects", f.fast_rejects as f64);
    set(out, "incremental.fallbacks", f.fallbacks as f64);
    set(out, "incremental.hit_ratio", f.hit_rate());
    for (cause, n) in hetnet_cac::incremental::FALLBACK_CAUSES
        .iter()
        .zip(f.fallback_causes)
    {
        set(out, &format!("incremental.fallback.{cause}"), n as f64);
    }
}

// ---------------------------------------------------------------------
// grid_retune: the sequential engine under faults and live retuning.

/// Reconfigurations every 100 s of the schedule's span, alternating the
/// rings' TTRT between 6 ms and 10 ms.
fn ttrt_cycle(span: f64) -> Vec<ReconfigEvent> {
    (1..)
        .map(|k| (k, 100.0 * f64::from(k)))
        .take_while(|&(_, at)| at < span)
        .map(|(k, at)| ReconfigEvent {
            at: Seconds::new(at),
            plan: ReconfigPlan::uniform_ttrt(Seconds::from_millis(if k % 2 == 1 {
                6.0
            } else {
                10.0
            })),
        })
        .collect()
}

/// A 16-ring grid on a DRR `[3,2]` backbone with two classes, seeded
/// faults, and a TTRT retune every 100 s. Generating the schedule (its
/// span places the reconfigurations) is part of set-up.
fn retune_config(seed: u64, requests: usize) -> Result<ServiceConfig, String> {
    let cfg = grid_config(RETUNE_RINGS, RETUNE_RATE, seed, requests)?;
    let span = churn::generate(&cfg.churn).span().value();
    Ok(cfg
        .with_scheduler(Scheduler::Drr { quanta: vec![3, 2] }, 2)
        .with_faults(FaultConfig {
            mean_gap: Seconds::new(60.0),
            ..FaultConfig::paper_style(seed ^ 0x5eed_fa17)
        })
        .with_reconfigs(ttrt_cycle(span)))
}

/// One pass of the engine over its whole schedule.
struct EnginePass {
    latencies: Vec<f64>,
    errors: u64,
    run: Option<hetnet_service::ServiceRun>,
    steps: u64,
}

impl EnginePass {
    fn timed(&self) -> f64 {
        self.latencies.iter().sum()
    }
}

fn drive_engine(mut engine: ServiceEngine, fold: Option<&mut TraceFold>) -> EnginePass {
    let mut latencies = Vec::with_capacity(engine.pending_arrivals());
    let mut errors = 0;
    let mut step = |engine: &mut ServiceEngine, traced: bool| -> Option<bool> {
        let _g = traced.then(|| hetnet_obs::span(STEP));
        let t0 = Instant::now();
        let r = engine.step_arrival();
        let dt = t0.elapsed().as_secs_f64();
        match r {
            Ok(true) => {
                latencies.push(dt);
                Some(true)
            }
            Ok(false) => Some(false),
            Err(_) => {
                errors += 1;
                None
            }
        }
    };
    match fold {
        None => while step(&mut engine, false) == Some(true) {},
        Some(fold) => 'outer: loop {
            hetnet_obs::install(CHUNK_CAPACITY);
            let mut more = true;
            for _ in 0..CHUNK_CALLS {
                if step(&mut engine, true) != Some(true) {
                    more = false;
                    break;
                }
            }
            fold.absorb(&hetnet_obs::uninstall().unwrap_or_default());
            if !more {
                break 'outer;
            }
        },
    }
    let steps = latencies.len() as u64;
    let run = if errors == 0 {
        match engine.finish() {
            Ok(run) => Some(run),
            Err(_) => {
                errors += 1;
                None
            }
        }
    } else {
        None
    };
    EnginePass {
        latencies,
        errors,
        run,
        steps,
    }
}

fn grid_retune(p: Params) -> Result<Measured, String> {
    let requests = scaled(RETUNE_PER_S, p.seconds, 20);
    let setup = || {
        let cfg = retune_config(p.seed, requests)?;
        ServiceEngine::new(HetNetwork::grid(RETUNE_RINGS, GRID_HOSTS), &cfg).map_err(err)
    };
    let (engine, setup_times) = repeat_setup(setup)?;
    let cfg = retune_config(p.seed, requests)?;
    let pass = drive_engine(engine, None);
    let mut m = Measured {
        attempted: requests as u64,
        ..Measured::default()
    };
    let mut digest = Digest::default();
    let check = match &pass.run {
        Some(run) => {
            digest.audit(&run.audit);
            check_state(&run.state, &cfg.options.cac)
        }
        None => StateCheck::default(),
    };
    conclude(&mut m, pass.errors, &check, digest);
    let (decided, admitted) = pass.run.as_ref().map_or((0, 0), |r| arrivals(&r.audit));
    if decided == 0 {
        return Err("no arrival was decided".into());
    }
    if decided != requests as u64 {
        m.correct = false;
    }
    if !p.trace {
        EndToEnd {
            decided,
            admitted,
            wall: pass.timed(),
            timing: Timing::PerCall(pass.latencies.clone()),
            setup: setup_times,
        }
        .into_measured(&mut m)?;
        return Ok(m);
    }

    // Traced twin: a fresh engine over the same schedule.
    let mut values = BTreeMap::new();
    let t0 = Instant::now();
    let schedule = churn::generate(&cfg.churn);
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(schedule);
    set(&mut values, "churn.generate_ms", gen_ms);
    let mut fold = TraceFold::default();
    let traced = drive_engine(setup()?, Some(&mut fold));
    let mut traced_digest = Digest::default();
    if let Some(run) = &traced.run {
        traced_digest.audit(&run.audit);
        gauge_layers(&mut values, &run.report.cache, &run.report.fast_path);
        let r = &run.report.recovery;
        set(&mut values, "faults.teardowns", r.components_downed as f64);
        set(&mut values, "faults.dropped", r.connections_dropped as f64);
        set(&mut values, "readmit.attempts", r.readmit_attempts as f64);
        set(&mut values, "readmit.admitted", r.readmitted as f64);
        let c = &run.report.reconfig;
        set(&mut values, "reconfig.renegotiated", c.renegotiated as f64);
        set(&mut values, "reconfig.dropped", c.dropped as f64);
        set(
            &mut values,
            "engine.events_per_step",
            run.audit.len() as f64 / traced.steps.max(1) as f64,
        );
    }
    m.failed += traced.errors;
    fold.emit(&mut values);
    let (untraced_wall, traced_wall) = (pass.timed(), traced.timed());
    set(
        &mut values,
        "trace.overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    );
    if fold.dropped > 0 || traced.errors > 0 {
        m.correct = false;
    }
    trace_summary(
        &mut m,
        (untraced_wall, digest),
        (traced_wall, traced_digest),
    );
    m.metrics = per_layer(&values);
    Ok(m)
}

/// Paired churn of tiny dual-periodic sources (2 kbit per 100 ms) on a
/// `rings`-ring grid, 80 s mean holding, 40–240 ms deadlines, β = 0.
fn grid_config(
    rings: usize,
    rate: f64,
    seed: u64,
    requests: usize,
) -> Result<ServiceConfig, String> {
    let mut cfg = ServiceConfig::paper_style(1.0, requests, seed);
    cfg.churn = ChurnConfig {
        shape: TopologyShape {
            rings,
            hosts_per_ring: GRID_HOSTS,
        },
        pattern: TrafficPattern::Paired,
        source_weights: None,
        arrival_rate: rate,
        mean_holding: Seconds::new(80.0),
        max_holding: Seconds::new(240.0),
        deadline: (Seconds::from_millis(40.0), Seconds::from_millis(240.0)),
        source: DualPeriodicEnvelope::new(
            Bits::from_mbits(0.002),
            Seconds::from_millis(100.0),
            Bits::from_mbits(0.0005),
            Seconds::from_millis(25.0),
            BitsPerSec::from_mbps(100.0),
        )
        .map_err(err)?,
        requests,
        seed,
    };
    let mut cac = CacConfig::fast().with_beta(0.0);
    cac.min_frame_efficiency = 0.8;
    cfg.options = AdmissionOptions::beta_search(cac);
    cfg.sample_period = 64;
    cfg.trace_decisions = false;
    Ok(cfg)
}

// ---------------------------------------------------------------------
// grid_sharded: the sharded engine on a 64-ring grid.

/// Requests per sharded pass. A run makes several passes over
/// independent schedules, so no single draw of the grid decides it.
const GRID_PASS: usize = 2000;

fn grid_engine(cfg: &ServiceConfig, workers: usize) -> Result<ShardedEngine, String> {
    ShardedEngine::new(HetNetwork::grid(GRID_RINGS, GRID_HOSTS), cfg, workers).map_err(err)
}

/// The passes' configs, each seeded from the run seed and its index.
fn grid_passes(p: Params) -> Result<Vec<ServiceConfig>, String> {
    let passes = (scaled(GRID_PER_S, p.seconds, GRID_PASS) as f64 / GRID_PASS as f64).round();
    (0..passes as u64)
        .map(|k| {
            let seed = p.seed.wrapping_mul(1000).wrapping_add(k);
            grid_config(GRID_RINGS, GRID_RATE, seed, GRID_PASS)
        })
        .collect()
}

/// Totals over a run's sharded passes.
#[derive(Default)]
struct GridRun {
    /// Summed wall time of the `ShardedEngine::run` calls.
    wall: f64,
    pass_walls: Vec<f64>,
    decided: u64,
    admitted: u64,
    errors: u64,
    audit_len: u64,
    check: StateCheck,
    digest: Digest,
    // Gauges, read in the traced run.
    cache: CacheGauges,
    fast: FastPathGauges,
    sharding: ShardingStats,
    speculate_s: f64,
    recompute_s: f64,
    inline_s: f64,
    captured: u64,
    evicted: u64,
}

fn drive_grid(cfgs: &[ServiceConfig], workers: usize, traced: bool) -> Result<GridRun, String> {
    let mut g = GridRun::default();
    for cfg in cfgs {
        let mut cfg = cfg.clone();
        if traced {
            // Phase spans on, and a flight recorder large enough to keep
            // every conflict recompute.
            cfg.obs = ObsOptions {
                spans: true,
                flight_capacity: cfg.churn.requests + 64,
                ..ObsOptions::default()
            };
        }
        let engine = grid_engine(&cfg, workers)?;
        let registry = engine.registry();
        let flight = engine.flight_recorder();
        let t0 = Instant::now();
        let result = engine.run();
        let wall = t0.elapsed().as_secs_f64();
        g.wall += wall;
        g.pass_walls.push(wall);
        let Ok((run, _)) = result else {
            g.errors += 1;
            continue;
        };
        g.digest.audit(&run.audit);
        let (decided, admitted) = arrivals(&run.audit);
        g.decided += decided;
        g.admitted += admitted;
        g.audit_len += run.audit.len() as u64;
        let net = Arc::new(HetNetwork::grid(GRID_RINGS, GRID_HOSTS));
        g.check.merge(match run.final_state(net) {
            Ok(state) => check_state(&state, &cfg.options.cac),
            Err(e) => StateCheck {
                error: Some(e.to_string()),
                ..StateCheck::default()
            },
        });
        if !traced {
            continue;
        }
        g.cache.merge(&run.report.cache);
        let f = &run.report.fast_path;
        g.fast.absorb(FastPathStats {
            fast_accepts: f.fast_accepts,
            fast_rejects: f.fast_rejects,
            fallbacks: f.fallbacks,
            fallback_causes: f.fallback_causes,
            no_context: f.no_context,
            skip_causes: f.skip_causes,
        });
        let s = &run.sharding;
        g.sharding.speculated += s.speculated;
        g.sharding.conflicts += s.conflicts;
        g.sharding.inline_decisions += s.inline_decisions;
        g.sharding.closure_sum += s.closure_sum;
        g.sharding.peak_closure = g.sharding.peak_closure.max(s.peak_closure);
        g.speculate_s += registry
            .snapshot()
            .families
            .iter()
            .filter(|f| f.name == "hetnet_shard_speculation_latency_seconds")
            .flat_map(|f| &f.series)
            .map(|s| match &s.value {
                hetnet_obs::registry::SeriesValue::Histogram(h) => h.sum(),
                _ => 0.0,
            })
            .sum::<f64>();
        let outliers = flight.retained();
        g.captured += flight.captured();
        g.evicted += flight.captured() - outliers.len() as u64;
        for o in &outliers {
            let conflict = o.cause == OutlierCause::ConflictRecompute;
            if conflict {
                g.recompute_s += o.latency_seconds;
            }
            if conflict || o.shard.is_none() {
                g.inline_s += o.latency_seconds;
            }
        }
    }
    Ok(g)
}

fn grid_sharded(p: Params) -> Result<Measured, String> {
    let cfgs = grid_passes(p)?;
    let requests = (cfgs.len() * GRID_PASS) as u64;
    let (_, setup_times) = repeat_setup(|| {
        let cfg = grid_config(GRID_RINGS, GRID_RATE, p.seed.wrapping_mul(1000), GRID_PASS)?;
        grid_engine(&cfg, p.workers)
    })?;
    let g = drive_grid(&cfgs, p.workers, false)?;
    let mut m = Measured {
        attempted: requests,
        ..Measured::default()
    };
    conclude(&mut m, g.errors, &g.check, g.digest);
    if g.decided == 0 {
        return Err("no arrival was decided".into());
    }
    if g.decided != requests {
        m.correct = false;
    }
    if !p.trace {
        EndToEnd {
            decided: g.decided,
            admitted: g.admitted,
            wall: g.wall,
            timing: Timing::Passes(g.pass_walls.clone(), GRID_PASS),
            setup: setup_times,
        }
        .into_measured(&mut m)?;
        return Ok(m);
    }

    let mut values = BTreeMap::new();
    let t0 = Instant::now();
    drop(churn::generate(&cfgs[0].churn));
    set(
        &mut values,
        "churn.generate_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    let t = drive_grid(&cfgs, p.workers, true)?;
    gauge_layers(&mut values, &t.cache, &t.fast);
    let s = &t.sharding;
    set(&mut values, "shard.speculated", s.speculated as f64);
    set(&mut values, "shard.conflicts", s.conflicts as f64);
    set(
        &mut values,
        "shard.conflict_ratio",
        ratio(s.conflicts, s.speculated),
    );
    set(&mut values, "shard.inline", s.inline_decisions as f64);
    // One closure per committed decision: every speculation, plus the
    // inline decisions that were not conflict recomputes.
    let commits = s.speculated + s.inline_decisions - s.conflicts;
    set(
        &mut values,
        "shard.closure_mean",
        ratio(s.closure_sum, commits),
    );
    set(&mut values, "shard.closure_peak", s.peak_closure as f64);
    set(
        &mut values,
        "shard.screen.hit_ratio",
        ratio(
            t.cache.screen_hits,
            t.cache.screen_hits + t.cache.screen_misses,
        ),
    );
    set(&mut values, "shard.speculate_ms", t.speculate_s * 1e3);
    set(&mut values, "shard.recompute_ms", t.recompute_s * 1e3);
    set(&mut values, "shard.inline_ms", t.inline_s * 1e3);
    set(
        &mut values,
        "engine.events_per_step",
        t.audit_len as f64 / requests as f64,
    );
    set(
        &mut values,
        "trace.overhead_pct",
        (t.wall - g.wall) / g.wall * 100.0,
    );
    m.failed += t.errors + t.check.failures();
    if t.evicted > 0 || t.errors > 0 || t.check.failures() > 0 {
        m.correct = false;
    }
    m.details.push((
        "flight".into(),
        format!(
            "{{\"captured\": {}, \"evicted\": {}}}",
            t.captured, t.evicted
        ),
    ));
    trace_summary(&mut m, (g.wall, g.digest), (t.wall, t.digest));
    m.metrics = per_layer(&values);
    Ok(m)
}
