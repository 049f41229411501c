//! Machine-readable benchmark of the feasible-region solvers and the
//! churn-driven admission service. The region part times the
//! sequential dense baseline, the parallel dense sweep, and the
//! frontier tracer on a 17×17 grid with 8 active background
//! connections, verifying all three produce bit-identical maps; the
//! churn part runs a seeded Poisson connect/disconnect workload
//! through the service layer and reports throughput, decision-latency
//! percentiles, and blocking probability. Everything lands in one
//! JSON file (cells/sec, evals per cell, speedups, cache hit rates,
//! a `churn` section, a `scheduler_compare` section re-running the
//! churn workload under FIFO/IWRR/DRR with a cell-level DES soundness
//! certificate per discipline, an `obs` section measuring the
//! decision-tracing layer's cost with tracing disabled and enabled,
//! a `reconfig` section driving a live TTRT shrink/grow schedule
//! through the service engine with a recovery-replay certificate, and
//! an `autotune` section sweeping TTRT×β against seeded offered
//! loads).
//!
//! ```text
//! cargo run --release -p hetnet-bench --bin bench_json            # full run -> BENCH_region.json
//! cargo run --release -p hetnet-bench --bin bench_json -- \
//!     --quick --out target/BENCH_region.quick.json                # CI smoke run
//! ```

use hetnet_atm::topology::Backbone;
use hetnet_atm::{LinkConfig, SwitchConfig};
use hetnet_bench::retune::{campaign, campaign_json};
use hetnet_cac::cac::{AdmissionOptions, CacConfig, Decision, NetworkState};
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::delay::{CacheStats, PathInput};
use hetnet_cac::network::{HetNetwork, HostId, Scheduler};
use hetnet_cac::reconfig::ReconfigPlan;
use hetnet_cac::region::{sample_region_frontier, sample_region_threads, RegionSample};
use hetnet_fddi::ring::{RingConfig, SyncBandwidth};
use hetnet_ifdev::IfDevConfig;
use hetnet_service::{
    entries_equivalent, run as run_service, run_sharded, sharded_runs_equivalent, verify_recovery,
    FastPathGauges, LatencyHistogram, ObsOptions, ReconfigEvent, ServiceConfig, ServiceEngine,
    ShardedEngine,
};
use hetnet_sim::autotune::SweepGrid;
use hetnet_sim::churn::{ChurnConfig, TopologyShape, TrafficPattern};
use hetnet_sim::fault::FaultConfig;
use hetnet_sim::netsim::{run as run_netsim, E2eScenario, SimConnection};
use hetnet_sim::source::GreedyDualPeriodic;
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::sync::Arc;
use std::time::Instant;

fn envelope(c1_mbit: f64, bursts: usize) -> SharedEnvelope {
    Arc::new(
        DualPeriodicEnvelope::new(
            Bits::from_mbits(c1_mbit),
            Seconds::from_millis(100.0),
            Bits::from_mbits(c1_mbit / bursts as f64),
            Seconds::from_millis(100.0 / bursts as f64),
            BitsPerSec::from_mbps(100.0),
        )
        .expect("valid"),
    )
}

fn background(k: usize) -> PathInput {
    let h = SyncBandwidth::new(Seconds::from_millis(2.2));
    PathInput {
        source: HostId {
            ring: k % 3,
            station: k % 4,
        },
        dest: HostId {
            ring: (k + 1) % 3,
            station: (k + 2) % 4,
        },
        envelope: envelope(0.9 + 0.1 * k as f64, 5),
        h_s: h,
        h_r: h,
        class: 0,
    }
}

/// One timed configuration: best-of-`reps` wall clock plus the cache
/// statistics and evaluation count of a single representative run.
struct Measured {
    seconds: f64,
    cells_per_sec: f64,
    stats: CacheStats,
    sample: RegionSample,
}

/// Times each arm best-of-`reps`, rotating which arm runs first every
/// rep (as the `obs` section does): on a machine that slows down over
/// the run, a fixed order would systematically penalize the arm that
/// always runs last.
fn measure_rotated<const N: usize>(
    arms: [&dyn Fn() -> RegionSample; N],
    grid: usize,
    reps: usize,
) -> [Measured; N] {
    let mut best = [f64::INFINITY; N];
    let mut samples: [Option<RegionSample>; N] = std::array::from_fn(|_| None);
    for rep in 0..reps.max(1) {
        for pos in 0..N {
            let arm = (pos + rep) % N;
            let start = Instant::now();
            let s = arms[arm]();
            best[arm] = best[arm].min(start.elapsed().as_secs_f64());
            samples[arm] = Some(s);
        }
    }
    std::array::from_fn(|arm| {
        let sample = samples[arm].take().expect("at least one rep");
        Measured {
            seconds: best[arm],
            cells_per_sec: (grid * grid) as f64 / best[arm],
            stats: sample.stats,
            sample,
        }
    })
}

fn json_measured(m: &Measured, grid: usize, threads: usize) -> String {
    format!(
        concat!(
            "{{\"threads\": {}, \"seconds\": {:.6}, \"cells_per_sec\": {:.2}, ",
            "\"evals\": {}, \"evals_per_cell\": {:.4}, ",
            "\"stage1_hits\": {}, \"stage1_misses\": {}, \"stage1_hit_rate\": {:.4}, ",
            "\"mux_hits\": {}, \"mux_misses\": {}, \"mux_hit_rate\": {:.4}}}"
        ),
        threads,
        m.seconds,
        m.cells_per_sec,
        m.sample.evals,
        m.sample.evals as f64 / (grid * grid) as f64,
        m.stats.stage1_hits,
        m.stats.stage1_misses,
        m.stats.stage1_hit_rate(),
        m.stats.mux_hits,
        m.stats.mux_misses,
        m.stats.mux_hit_rate(),
    )
}

/// Admits a small paper-style mix under `scheduler` and replays the
/// admitted configuration in the cell-level simulator with greedy
/// (envelope-maximal) sources: returns whether every observed delay
/// stayed at or below its analytic bound. This is the soundness
/// certificate the bench gate pins for every discipline in the
/// `scheduler_compare` section.
fn scheduler_des_validated(scheduler: &Scheduler, quick: bool) -> bool {
    let model = DualPeriodicEnvelope::new(
        Bits::from_mbits(2.0),
        Seconds::from_millis(100.0),
        Bits::from_mbits(0.25),
        Seconds::from_millis(10.0),
        BitsPerSec::from_mbps(100.0),
    )
    .expect("valid paper-style source");
    let net = HetNetwork::paper_topology().with_scheduler(scheduler.clone());
    let mut state = NetworkState::new(net);
    let opts = AdmissionOptions::beta_search(CacConfig::default());
    let classes = scheduler.weight_map().map_or(1, <[u32]>::len);
    let pairs = [
        ((0, 0), (1, 0)),
        ((1, 0), (2, 0)),
        ((2, 0), (0, 0)),
        ((0, 1), (2, 1)),
    ];
    let mut admitted = Vec::new();
    for (i, (src, dst)) in pairs.iter().enumerate() {
        let class = (i % classes) as u8;
        let spec = ConnectionSpec {
            source: HostId {
                ring: src.0,
                station: src.1,
            },
            dest: HostId {
                ring: dst.0,
                station: dst.1,
            },
            envelope: Arc::new(model),
            deadline: Seconds::from_millis(140.0),
            class,
        };
        if let Decision::Admitted { id, h_s, h_r, .. } =
            state.admit(spec, &opts).expect("well-formed request")
        {
            admitted.push((id.0, *src, dst.0, h_s, h_r, class));
        }
    }
    if admitted.len() < 2 {
        return false;
    }
    let Ok(bounds) = state.current_delays(&opts.cac) else {
        return false;
    };
    let link = LinkConfig::oc3(Seconds::from_micros(5.0));
    let phases: &[f64] = if quick { &[0.0] } else { &[0.0, 1.7] };
    for &phase_step_ms in phases {
        let scenario = E2eScenario {
            rings: vec![RingConfig::standard(); 3],
            hosts_per_ring: 4,
            ifdev: IfDevConfig::typical(),
            backbone: Backbone::fully_meshed(3, SwitchConfig::typical(), link),
            access_link: link,
            connections: admitted
                .iter()
                .enumerate()
                .map(|(k, (id, src, dest_ring, h_s, h_r, class))| SimConnection {
                    id: *id,
                    source_ring: src.0,
                    source_station: src.1,
                    dest_ring: *dest_ring,
                    h_s: *h_s,
                    h_r: *h_r,
                    source: GreedyDualPeriodic::new(model, Bits::from_kbits(8.0)),
                    phase: Seconds::from_millis(k as f64 * phase_step_ms),
                    class: *class,
                })
                .collect(),
            duration: Seconds::from_millis(if quick { 250.0 } else { 400.0 }),
            drain: Seconds::from_millis(300.0),
            scheduler: scheduler.clone(),
        };
        let report = run_netsim(&scenario);
        for obs in &report.connections {
            let Some(bound) = bounds
                .iter()
                .find(|(cid, _)| cid.0 == obs.id)
                .map(|(_, d)| *d)
            else {
                return false;
            };
            if obs.chunks_sent != obs.chunks_delivered || obs.max_delay > bound {
                return false;
            }
        }
    }
    true
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_region.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other:?} (expected --quick / --out <path>)"),
        }
    }

    let net = HetNetwork::paper_topology();
    let cfg = CacConfig::fast();
    let spec = ConnectionSpec {
        source: HostId {
            ring: 0,
            station: 0,
        },
        dest: HostId {
            ring: 1,
            station: 0,
        },
        envelope: envelope(1.8, 6),
        deadline: Seconds::from_millis(80.0),
        class: 0,
    };
    let active: Vec<PathInput> = (0..8).map(background).collect();
    let avail = Seconds::from_millis(7.2);
    // Quick mode's 9x9 sweeps take milliseconds, so one rep per arm left
    // the threaded-beats-sequential gate at the mercy of scheduler noise.
    let (grid, reps) = if quick { (9, 5) } else { (17, 3) };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    let dense = |threads: usize| {
        sample_region_threads(&net, &active, &spec, avail, avail, grid, &cfg, threads)
            .expect("well-formed request")
    };
    let frontier = || {
        sample_region_frontier(&net, &active, &spec, avail, avail, grid, &cfg)
            .expect("well-formed request")
    };

    eprintln!(
        "region sweep: grid {grid}x{grid}, {} active, {threads} hw threads",
        active.len()
    );
    let [seq, par] = measure_rotated([&|| dense(1), &|| dense(threads)], grid, reps);
    eprintln!(
        "  dense sequential: {:.3} s ({:.1} cells/s, {} evals)",
        seq.seconds, seq.cells_per_sec, seq.sample.evals
    );
    eprintln!(
        "  dense parallel:   {:.3} s ({:.1} cells/s, {} evals)",
        par.seconds, par.cells_per_sec, par.sample.evals
    );
    let [fro] = measure_rotated([&frontier], grid, reps);
    eprintln!(
        "  frontier:         {:.3} s ({:.1} cells/s, {} evals, fell_back: {})",
        fro.seconds, fro.cells_per_sec, fro.sample.evals, fro.sample.fell_back
    );

    let identical = seq.sample.map.cells() == par.sample.map.cells()
        && seq.sample.map.cells() == fro.sample.map.cells();
    assert!(identical, "solvers diverged from the sequential baseline");
    let speedup = seq.seconds / par.seconds;
    let frontier_speedup = seq.seconds / fro.seconds;
    let eval_reduction = seq.sample.evals as f64 / fro.sample.evals.max(1) as f64;
    eprintln!(
        "  parallel speedup: {speedup:.2}x, frontier speedup: {frontier_speedup:.2}x \
         ({eval_reduction:.1}x fewer evals), maps identical: {identical}"
    );

    // Churn workload through the service layer: a seeded Poisson
    // connect/disconnect stream on the paper topology. The seed is
    // fixed so decisions (and thus blocking probability) are exactly
    // reproducible; only wall-clock numbers vary between machines.
    // 0.1 req/s against ~100 s mean holding offers ~10 concurrent
    // connections to a network that fits ~4: enough pressure for a
    // meaningful blocking probability, enough departures for real
    // connect/disconnect churn.
    let churn_requests = if quick { 80 } else { 400 };
    let mut service_cfg = ServiceConfig::paper_style(0.1, churn_requests, 42);
    service_cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    eprintln!("churn service: {churn_requests} requests at 0.1/s (seed 42, beta-search fast)");
    let churn = run_service(HetNetwork::paper_topology(), &service_cfg)
        .expect("churn run is well-formed")
        .report;
    eprintln!(
        "  {:.0} req/s, p99 {:.1} us, blocking {:.3} ({} admitted / {} rejected)",
        churn.requests_per_sec,
        churn.latency.p99.value() * 1e6,
        churn.blocking_probability,
        churn.counters.admitted,
        churn.counters.rejected(),
    );

    // Scheduler comparison campaign: the identical fixed-seed churn
    // workload re-run under each backbone discipline, plus a greedy
    // cell-level DES replay per discipline certifying the analytic
    // bounds stay sound. FIFO is the baseline — its decisions must
    // match the plain churn run above exactly (the scheduler plumbing
    // is the identity for FIFO) — while the weighted disciplines trade
    // FIFO's aggregate coupling for a per-class rate share plus a
    // round-robin latency term, which can move admission probability
    // in either direction depending on the class mix.
    let sched_arms: [(&str, Scheduler, u8); 3] = [
        ("fifo", Scheduler::Fifo, 1),
        (
            "iwrr",
            Scheduler::Iwrr {
                weights: vec![2, 1],
            },
            2,
        ),
        ("drr", Scheduler::Drr { quanta: vec![3, 2] }, 2),
    ];
    eprintln!("scheduler compare: {churn_requests} requests at 0.1/s (seed 42) per discipline");
    let mut sched_jsons = Vec::new();
    for (name, scheduler, classes) in sched_arms {
        let mut arm_cfg = ServiceConfig::paper_style(0.1, churn_requests, 42);
        arm_cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
        let arm_cfg = arm_cfg.with_scheduler(scheduler.clone(), classes);
        let arm = run_service(HetNetwork::paper_topology(), &arm_cfg)
            .expect("scheduler arm run is well-formed")
            .report;
        let des_validated = scheduler_des_validated(&scheduler, quick);
        let p99_us = arm.latency.p99.value() * 1e6;
        let admission_probability = arm.counters.admitted as f64 / arm.requests as f64;
        eprintln!(
            "  {name:>4}: admission probability {admission_probability:.3} \
             ({} admitted / {} rejected), p99 {p99_us:.1} us, DES validated: {des_validated}",
            arm.counters.admitted,
            arm.counters.rejected(),
        );
        let fifo_cert = if name == "fifo" {
            let matches = arm.counters.admitted == churn.counters.admitted
                && arm.counters.rejected() == churn.counters.rejected();
            format!(", \"matches_default_engine\": {matches}")
        } else {
            String::new()
        };
        sched_jsons.push(format!(
            concat!(
                "\"{}\": {{\"scheduler\": \"{}\", \"classes\": {}, \"requests\": {}, ",
                "\"admitted\": {}, \"rejected\": {}, \"admission_probability\": {:.6}, ",
                "\"p50_us\": {:.3}, \"p99_us\": {:.3}, \"des_validated\": {}{}}}"
            ),
            name,
            scheduler,
            classes,
            arm.requests,
            arm.counters.admitted,
            arm.counters.rejected(),
            admission_probability,
            arm.latency.p50.value() * 1e6,
            p99_us,
            des_validated,
            fifo_cert,
        ));
    }
    let scheduler_compare_json = format!(
        "{{\"requests\": {churn_requests}, {}}}",
        sched_jsons.join(", ")
    );

    // Single-decision latency in steady state: the paper's operating
    // point is a controller answering one request at a time against a
    // loaded network, so this measures exactly that — a warm
    // admit/release cycle on a bare `NetworkState` with the persistent
    // evaluator cache and the incremental fast path on. Three
    // background connections stay admitted throughout; the candidate
    // specs are built once (the stage-1 cache is keyed by envelope
    // identity) and alternate between a feasible request and a
    // deadline-infeasible one so both fast-accept and fast-reject
    // rungs are exercised. The p99 here is the headline number the
    // bench gate holds under 1 ms.
    let lat_decisions = if quick { 300 } else { 2000 };
    let mut lat_state = NetworkState::new(HetNetwork::paper_topology());
    lat_state.persist_eval_cache(true);
    lat_state.set_fast_path(true).expect("empty state");
    let lat_opts = AdmissionOptions::beta_search(CacConfig::fast());
    for k in 0..3 {
        let bg = ConnectionSpec {
            source: HostId {
                ring: k % 3,
                station: k % 4,
            },
            dest: HostId {
                ring: (k + 1) % 3,
                station: (k + 2) % 4,
            },
            envelope: envelope(0.9 + 0.1 * k as f64, 5),
            deadline: Seconds::from_millis(100.0),
            class: 0,
        };
        assert!(
            matches!(
                lat_state.admit(bg, &lat_opts).expect("background admit"),
                Decision::Admitted { .. }
            ),
            "background connection {k} must be admissible"
        );
    }
    let admit_spec = ConnectionSpec {
        source: HostId {
            ring: 0,
            station: 1,
        },
        dest: HostId {
            ring: 1,
            station: 2,
        },
        envelope: envelope(1.2, 5),
        deadline: Seconds::from_millis(120.0),
        class: 0,
    };
    let reject_spec = ConnectionSpec {
        source: HostId {
            ring: 2,
            station: 1,
        },
        dest: HostId {
            ring: 0,
            station: 2,
        },
        envelope: envelope(1.2, 5),
        deadline: Seconds::from_millis(1.0),
        class: 0,
    };
    // Untimed warmup settles the caches and the incremental state.
    for i in 0..16 {
        let spec = if i % 4 == 3 {
            reject_spec.clone()
        } else {
            admit_spec.clone()
        };
        if let Decision::Admitted { id, .. } = lat_state.admit(spec, &lat_opts).expect("warmup") {
            lat_state.release(id).expect("warmup release");
        }
    }
    let mut lat_hist = LatencyHistogram::new();
    let mut lat_fast = FastPathGauges::default();
    let mut lat_admits = 0u64;
    let mut lat_rejects = 0u64;
    for i in 0..lat_decisions {
        let spec = if i % 4 == 3 {
            reject_spec.clone()
        } else {
            admit_spec.clone()
        };
        let start = Instant::now();
        let decision = lat_state.admit(spec, &lat_opts).expect("latency admit");
        lat_hist.record(Seconds::new(start.elapsed().as_secs_f64()));
        if let Some(stats) = lat_state.last_fast_path_stats() {
            lat_fast.absorb(stats);
        }
        match decision {
            Decision::Admitted { id, .. } => {
                lat_admits += 1;
                lat_state.release(id).expect("latency release");
            }
            Decision::Rejected(_) => lat_rejects += 1,
        }
    }
    assert!(lat_admits > 0 && lat_rejects > 0, "latency mix degenerated");
    let (lat_p50, lat_p95, lat_p99) = lat_hist.percentiles();
    eprintln!(
        "decision latency: {lat_decisions} warm decisions, p50 {:.1} us, p99 {:.1} us, \
         fast-path hit rate {:.3}",
        lat_p50.value() * 1e6,
        lat_p99.value() * 1e6,
        lat_fast.hit_rate(),
    );
    let decision_latency_json = format!(
        concat!(
            "{{\"decisions\": {}, \"admits\": {}, \"rejects\": {}, ",
            "\"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3}, ",
            "\"mean_us\": {:.3}, \"max_us\": {:.3}, ",
            "\"fast_accepts\": {}, \"fast_rejects\": {}, \"fallbacks\": {}, ",
            "\"fast_hit_rate\": {:.6}}}"
        ),
        lat_decisions,
        lat_admits,
        lat_rejects,
        lat_p50.value() * 1e6,
        lat_p95.value() * 1e6,
        lat_p99.value() * 1e6,
        lat_hist.mean().value() * 1e6,
        lat_hist.max().value() * 1e6,
        lat_fast.fast_accepts,
        lat_fast.fast_rejects,
        lat_fast.fallbacks,
        lat_fast.hit_rate(),
    );

    // Observability cost: the same fixed-seed service workload run with
    // decision tracing disabled (twice — an A/A pair that bounds the
    // measurement noise), then with tracing enabled under an installed
    // `hetnet-obs` collector. Disabled runs never build a trace and the
    // event hooks early-return, so `disabled_delta_pct` is pure timing
    // noise; `enabled_overhead_pct` is the real cost of turning the
    // layer on. Best-of-reps, with the arm order rotated every rep:
    // on throttled single-core machines each rep slows down monotonically
    // (burst-credit exhaustion), so a fixed order would systematically
    // penalize whichever arm runs last. Rotation gives every arm one run
    // in every position, and taking the min then compares like with like.
    let obs_requests = if quick { 120 } else { 200 };
    let obs_reps = if quick { 2 } else { 5 };
    let mut obs_cfg = ServiceConfig::paper_style(0.1, obs_requests, 7);
    obs_cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    obs_cfg.trace_decisions = false;
    let mut traced_cfg = obs_cfg.clone();
    traced_cfg.trace_decisions = true;
    let timed = |cfg: &ServiceConfig| {
        run_service(HetNetwork::paper_topology(), cfg)
            .expect("obs workload is well-formed")
            .report
    };
    eprintln!("obs overhead: {obs_requests} requests x {obs_reps} reps (seed 7)");
    // One untimed pass absorbs cold-start effects (page faults, branch
    // predictors, allocator growth) that would otherwise land entirely
    // on the first measured arm and masquerade as an A/A difference.
    let _ = timed(&obs_cfg);
    let mut disabled = f64::INFINITY;
    let mut disabled_repeat = f64::INFINITY;
    let mut enabled = f64::INFINITY;
    let mut trace_records = 0u64;
    let mut traced_report = None;
    for rep in 0..obs_reps {
        for pos in 0..3 {
            match (pos + rep) % 3 {
                0 => disabled = disabled.min(timed(&obs_cfg).wall_seconds),
                1 => disabled_repeat = disabled_repeat.min(timed(&obs_cfg).wall_seconds),
                _ => {
                    let (report, trace) = hetnet_obs::collect(1 << 16, || timed(&traced_cfg));
                    enabled = enabled.min(report.wall_seconds);
                    trace_records = trace.records().len() as u64 + trace.dropped();
                    traced_report = Some(report);
                }
            }
        }
    }
    let traced_report = traced_report.expect("at least one traced rep");
    let attribution = &traced_report.delay_attribution;
    let disabled_delta_pct = (disabled_repeat - disabled) / disabled * 100.0;
    let enabled_overhead_pct = (enabled - disabled) / disabled * 100.0;
    eprintln!(
        "  disabled {disabled:.6} s (repeat delta {disabled_delta_pct:+.2}%), \
         enabled {enabled:.6} s ({enabled_overhead_pct:+.2}%), \
         {trace_records} obs records, {} decision traces",
        attribution.traced
    );
    let obs_json = format!(
        concat!(
            "{{\"workload_decisions\": {}, \"reps\": {}, ",
            "\"disabled_seconds\": {:.6}, \"disabled_repeat_seconds\": {:.6}, ",
            "\"disabled_delta_pct\": {:.3}, ",
            "\"enabled_seconds\": {:.6}, \"enabled_overhead_pct\": {:.3}, ",
            "\"trace_records\": {}, \"decision_traces\": {}, ",
            "\"admitted\": {}, \"rejected\": {}, \"rejects_with_binding\": {}}}"
        ),
        obs_requests,
        obs_reps,
        disabled,
        disabled_repeat,
        disabled_delta_pct,
        enabled,
        enabled_overhead_pct,
        trace_records,
        attribution.traced,
        traced_report.counters.admitted,
        traced_report.counters.rejected(),
        attribution.rejects_with_binding,
    );

    // Sharded observability cost: one fixed-seed shard workload run
    // with the cross-shard observability stack off (twice — an A/A
    // pair that measures the noise floor) and on (span timelines,
    // periodic telemetry, aggressive flight capture). Decision tracing
    // stays off in every arm: enabling it moves the CAC off the
    // screened evaluation path, which changes the computation being
    // measured, not the observability cost. The registry and flight
    // recorder are always live; the "on" arm adds the knobs with real
    // per-decision cost. The off and on runs must also stay decision-
    // identical — observability reads, it never decides.
    let (so_rings, so_rate, so_requests, so_reps) = if quick {
        (24usize, 30.0f64, 400usize, 1usize)
    } else {
        (64, 120.0, 4000, 2)
    };
    let so_workers = 4;
    let so_seed = 424_242;
    let mut so_cfg = ServiceConfig::paper_style(1.0, so_requests, so_seed);
    so_cfg.churn = ChurnConfig {
        shape: TopologyShape {
            rings: so_rings,
            hosts_per_ring: 3,
        },
        pattern: TrafficPattern::Paired,
        source_weights: None,
        arrival_rate: so_rate,
        mean_holding: Seconds::new(80.0),
        max_holding: Seconds::new(240.0),
        deadline: (Seconds::from_millis(300.0), Seconds::from_millis(500.0)),
        source: DualPeriodicEnvelope::new(
            Bits::from_mbits(0.002),
            Seconds::from_millis(100.0),
            Bits::from_mbits(0.0005),
            Seconds::from_millis(25.0),
            BitsPerSec::from_mbps(100.0),
        )
        .expect("valid obs_sharded envelope"),
        requests: so_requests,
        seed: so_seed,
    };
    let mut so_cac = CacConfig::fast().with_beta(0.0);
    so_cac.min_frame_efficiency = 0.8;
    so_cfg.options = AdmissionOptions::beta_search(so_cac);
    so_cfg.sample_period = 64;
    so_cfg.trace_decisions = false;
    let mut so_on_cfg = so_cfg.clone();
    so_on_cfg.obs = ObsOptions {
        spans: true,
        telemetry_period: Some(Seconds::new(10.0)),
        flight_capacity: 64,
        flight_min_samples: 32,
        ..ObsOptions::default()
    };
    let timed_sharded = |cfg: &ServiceConfig| {
        let engine = ShardedEngine::new(HetNetwork::grid(so_rings, 3), cfg, so_workers)
            .expect("obs_sharded engine");
        let flight = engine.flight_recorder();
        let start = Instant::now();
        let (run, _) = engine.run().expect("obs_sharded run");
        (start.elapsed().as_secs_f64(), run, flight)
    };
    eprintln!(
        "obs sharded: {so_rings} rings, {so_requests} requests at {so_rate}/s x {so_reps} reps \
         (seed {so_seed})"
    );
    let _ = timed_sharded(&so_cfg); // untimed warmup, as for `obs`
    let mut so_off = f64::INFINITY;
    let mut so_off_repeat = f64::INFINITY;
    let mut so_on = f64::INFINITY;
    let mut so_off_run = None;
    let mut so_on_run = None;
    let mut so_outliers = 0u64;
    for rep in 0..so_reps {
        for pos in 0..3 {
            match (pos + rep) % 3 {
                0 => {
                    let (s, r, _) = timed_sharded(&so_cfg);
                    so_off = so_off.min(s);
                    so_off_run = Some(r);
                }
                1 => so_off_repeat = so_off_repeat.min(timed_sharded(&so_cfg).0),
                _ => {
                    let (s, r, flight) = timed_sharded(&so_on_cfg);
                    so_on = so_on.min(s);
                    so_outliers = flight.captured();
                    so_on_run = Some(r);
                }
            }
        }
    }
    let so_off_run = so_off_run.expect("at least one off rep");
    let so_on_run = so_on_run.expect("at least one on rep");
    let so_identical = sharded_runs_equivalent(&so_on_run, &so_off_run);
    let so_frames = so_on_run.telemetry.len();
    let so_aa_pct = (so_off_repeat - so_off) / so_off * 100.0;
    let so_overhead_pct = (so_on - so_off) / so_off * 100.0;
    eprintln!(
        "  off {so_off:.3} s (repeat delta {so_aa_pct:+.2}%), on {so_on:.3} s \
         ({so_overhead_pct:+.2}%), {so_outliers} flight outliers, {so_frames} telemetry \
         frames, decisions identical: {so_identical}"
    );
    let obs_sharded_json = format!(
        concat!(
            "{{\"rings\": {}, \"workers\": {}, \"requests\": {}, \"reps\": {}, ",
            "\"off_seconds\": {:.6}, \"off_repeat_seconds\": {:.6}, \"aa_delta_pct\": {:.3}, ",
            "\"on_seconds\": {:.6}, \"overhead_pct\": {:.3}, ",
            "\"flight_outliers\": {}, \"telemetry_frames\": {}, \"decisions_identical\": {}}}"
        ),
        so_rings,
        so_workers,
        so_requests,
        so_reps,
        so_off,
        so_off_repeat,
        so_aa_pct,
        so_on,
        so_overhead_pct,
        so_outliers,
        so_frames,
        so_identical,
    );

    // Sharded admission at scale: a seeded Poisson churn workload on a
    // grid topology far beyond the paper's three rings, run through the
    // ring-partitioned engine. Three arms over the same schedule:
    //
    //   1. the sharded engine at `ss_workers` workers (the headline
    //      throughput and peak-active numbers),
    //   2. the sharded engine at one worker — same committer, same
    //      event order — whose audit must match bit for bit
    //      (full-scale determinism certificate),
    //   3. the monolithic single-thread `ServiceEngine` on a prefix of
    //      the schedule at the same offered load, giving the equal-load
    //      throughput baseline and a true sequential-replay decision
    //      check over the prefix.
    //
    // The monolith's per-decision cost grows with the *global* active
    // set (it re-resolves every admitted connection on each decision)
    // while the sharded engine touches only the dependency closure of
    // the candidate's rings. The prefix must therefore be long enough
    // for the monolith to reach a meaningful occupancy — a few hundred
    // requests measure it against a near-empty network and say nothing
    // — yet short enough to finish: 3000 requests put it at ~1500 mean
    // active (roughly ten wall-clock minutes), still two orders of
    // magnitude below the occupancy the sharded arm sustains, so the
    // comparison if anything understates the sharded advantage.
    let (ss_rings, ss_rate, ss_requests, ss_prefix) = if quick {
        (64usize, 120.0f64, 4_000usize, 300usize)
    } else {
        (4096, 2000.0, 220_000, 3_000)
    };
    let ss_workers = 4;
    let ss_seed = 424_242;
    let mut shard_cfg = ServiceConfig::paper_style(1.0, ss_requests, ss_seed);
    shard_cfg.churn = ChurnConfig {
        shape: TopologyShape {
            rings: ss_rings,
            hosts_per_ring: 3,
        },
        pattern: TrafficPattern::Paired,
        source_weights: None,
        arrival_rate: ss_rate,
        mean_holding: Seconds::new(80.0),
        max_holding: Seconds::new(240.0),
        deadline: (Seconds::from_millis(300.0), Seconds::from_millis(500.0)),
        source: DualPeriodicEnvelope::new(
            Bits::from_mbits(0.002),
            Seconds::from_millis(100.0),
            Bits::from_mbits(0.0005),
            Seconds::from_millis(25.0),
            BitsPerSec::from_mbps(100.0),
        )
        .expect("valid shard-scale envelope"),
        requests: ss_requests,
        seed: ss_seed,
    };
    let mut ss_cac = CacConfig::fast().with_beta(0.0);
    ss_cac.min_frame_efficiency = 0.8;
    shard_cfg.options = AdmissionOptions::beta_search(ss_cac);
    shard_cfg.sample_period = 64;
    // Tracing off: the screened evaluation path is the one this bench
    // claims numbers for, and every arm must run the same mode anyway
    // for the decision streams to be comparable.
    shard_cfg.trace_decisions = false;
    eprintln!(
        "shard scale: {ss_rings} rings, {ss_requests} requests at {ss_rate}/s, \
         {ss_workers} workers (seed {ss_seed})"
    );
    let start = Instant::now();
    let sharded = run_sharded(HetNetwork::grid(ss_rings, 3), &shard_cfg, ss_workers)
        .expect("sharded run is well-formed");
    let sharded_seconds = start.elapsed().as_secs_f64();
    let sharded_dps = ss_requests as f64 / sharded_seconds;
    eprintln!(
        "  sharded {ss_workers}w: {sharded_seconds:.1} s ({sharded_dps:.0} dec/s), \
         peak_active {}, {} admitted / {} rejected, conflict rate {:.4}",
        sharded.report.peak_active,
        sharded.report.counters.admitted,
        sharded.report.counters.rejected(),
        sharded.sharding.conflict_rate(),
    );
    let replay = run_sharded(HetNetwork::grid(ss_rings, 3), &shard_cfg, 1)
        .expect("single-worker replay is well-formed");
    let full_identical = sharded_runs_equivalent(&sharded, &replay);
    let mut mono_cfg = shard_cfg.clone();
    mono_cfg.churn.requests = ss_prefix;
    let start = Instant::now();
    let mono = run_service(HetNetwork::grid(ss_rings, 3), &mono_cfg)
        .expect("monolith prefix run is well-formed");
    let mono_seconds = start.elapsed().as_secs_f64();
    let mono_dps = ss_prefix as f64 / mono_seconds;
    let prefix_identical = mono.audit.len() == ss_prefix
        && sharded.audit.entries()[..ss_prefix]
            .iter()
            .zip(mono.audit.entries())
            .all(|(a, b)| entries_equivalent(a, b));
    let audits_identical = full_identical && prefix_identical;
    let shard_speedup = sharded_dps / mono_dps;
    let decisions = (sharded.sharding.speculated + sharded.sharding.inline_decisions).max(1);
    eprintln!(
        "  replay identical: {full_identical}, monolith prefix {ss_prefix}: \
         {mono_seconds:.1} s ({mono_dps:.0} dec/s, prefix identical: {prefix_identical}), \
         speedup {shard_speedup:.1}x"
    );
    let shard_scale_json = format!(
        concat!(
            "{{\"rings\": {}, \"workers\": {}, \"hw_threads\": {}, \"requests\": {}, ",
            "\"offered_rate_per_sec\": {:.1}, \"sharded_seconds\": {:.3}, ",
            "\"sharded_decisions_per_sec\": {:.2}, \"monolith_prefix\": {}, ",
            "\"monolith_seconds\": {:.3}, \"monolith_decisions_per_sec\": {:.2}, ",
            "\"speedup\": {:.3}, \"peak_active\": {}, \"admitted\": {}, \"rejected\": {}, ",
            "\"blocking_probability\": {:.6}, \"p99_us\": {:.1}, ",
            "\"speculated\": {}, \"conflicts\": {}, \"conflict_rate\": {:.6}, ",
            "\"inline_decisions\": {}, \"peak_closure\": {}, \"mean_closure\": {:.2}, ",
            "\"audits_identical\": {}}}"
        ),
        ss_rings,
        ss_workers,
        threads,
        ss_requests,
        ss_rate,
        sharded_seconds,
        sharded_dps,
        ss_prefix,
        mono_seconds,
        mono_dps,
        shard_speedup,
        sharded.report.peak_active,
        sharded.report.counters.admitted,
        sharded.report.counters.rejected(),
        sharded.report.blocking_probability,
        sharded.report.latency.p99.value() * 1e6,
        sharded.sharding.speculated,
        sharded.sharding.conflicts,
        sharded.sharding.conflict_rate(),
        sharded.sharding.inline_decisions,
        sharded.sharding.peak_closure,
        sharded.sharding.closure_sum as f64 / decisions as f64,
        audits_identical,
    );

    // Fault injection and recovery: a fixed-seed faulted churn run
    // (component failures, repairs, deadline shrinks), checkpointed
    // mid-stream and recovered. The gate checks every fault drained,
    // torn-down bandwidth was reclaimed (the engine's own tests pin the
    // per-ring accounting), the audit log stayed gap-free through the
    // fault-driven re-admissions, and the recovered run reproduced the
    // original's final state bit for bit.
    let fault_requests = if quick { 120 } else { 300 };
    let mut fault_cfg = ServiceConfig::paper_style(2.0, fault_requests, 42);
    fault_cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    fault_cfg.faults = Some(FaultConfig {
        mean_gap: Seconds::new(8.0),
        mean_outage: Seconds::new(4.0),
        max_outage: Seconds::new(8.0),
        shrink_factor: Some(0.85),
        seed: 4242,
    });
    eprintln!("fault injection: {fault_requests} requests at 2.0/s (seed 42, faults seed 4242)");
    let faulted =
        run_service(HetNetwork::paper_topology(), &fault_cfg).expect("faulted run is well-formed");
    let split = fault_requests / 3;
    let mut engine =
        ServiceEngine::new(HetNetwork::paper_topology(), &fault_cfg).expect("faulted engine");
    for _ in 0..split {
        assert!(
            engine.step_arrival().expect("step"),
            "split exceeds schedule"
        );
    }
    let checkpoint = engine.checkpoint();
    let tail = &faulted.audit.entries()[checkpoint.decision_seq() as usize..];
    drop(engine);
    let recovered = verify_recovery(HetNetwork::paper_topology(), &fault_cfg, &checkpoint, tail)
        .expect("recovery must replay the recorded audit tail");
    let recovery_bit_identical =
        recovered.state.snapshot().to_json() == faulted.state.snapshot().to_json();
    let audit_gap_free = faulted
        .audit
        .entries()
        .iter()
        .enumerate()
        .all(|(i, e)| e.seq == i as u64);
    let rec = &faulted.report.recovery;
    eprintln!(
        "  {} faults, {} dropped, {} readmitted, undrained {}, \
         recovered bit-identical: {recovery_bit_identical}",
        rec.faults_injected, rec.connections_dropped, rec.readmitted, rec.undrained,
    );
    let faults_json = format!(
        concat!(
            "{{\"requests\": {}, \"checkpoint_at\": {}, \"tail_decisions\": {}, ",
            "\"recovery_bit_identical\": {}, \"audit_gap_free\": {}, \"report\": {}}}"
        ),
        fault_requests,
        checkpoint.decision_seq(),
        tail.len(),
        recovery_bit_identical,
        audit_gap_free,
        faulted.report.to_json(),
    );

    // Live reconfiguration: the fixed-seed churn workload re-run with
    // a two-event reconfig schedule — a mid-run TTRT shrink that
    // renegotiates every survivor under the tightened budget (parking
    // victims when the shrunk budget no longer fits them), then a grow
    // back past the default with a β change. As for faults, the run is
    // checkpointed before the first event and recovered against the
    // audit tail, which must replay both reconfigurations and land on
    // a bit-identical final state.
    let rc_requests = if quick { 100 } else { 300 };
    let rc_span = rc_requests as f64 / 2.0;
    let mut rc_cfg = ServiceConfig::paper_style(2.0, rc_requests, 42);
    rc_cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    rc_cfg = rc_cfg.with_reconfigs(vec![
        ReconfigEvent {
            at: Seconds::new(0.3 * rc_span),
            plan: ReconfigPlan::uniform_ttrt(Seconds::from_millis(5.0)),
        },
        ReconfigEvent {
            at: Seconds::new(0.65 * rc_span),
            plan: ReconfigPlan::uniform_ttrt(Seconds::from_millis(12.0)).with_beta(0.3),
        },
    ]);
    eprintln!(
        "reconfig: {rc_requests} requests at 2.0/s (seed 42), shrink at {:.0} s, grow at {:.0} s",
        0.3 * rc_span,
        0.65 * rc_span
    );
    let reconfigured = run_service(HetNetwork::paper_topology(), &rc_cfg)
        .expect("reconfigured run is well-formed");
    let rc_split = rc_requests / 6;
    let mut rc_engine =
        ServiceEngine::new(HetNetwork::paper_topology(), &rc_cfg).expect("reconfigured engine");
    for _ in 0..rc_split {
        assert!(
            rc_engine.step_arrival().expect("step"),
            "split exceeds schedule"
        );
    }
    let rc_checkpoint = rc_engine.checkpoint();
    let rc_tail = &reconfigured.audit.entries()[rc_checkpoint.decision_seq() as usize..];
    drop(rc_engine);
    let rc_recovered = verify_recovery(
        HetNetwork::paper_topology(),
        &rc_cfg,
        &rc_checkpoint,
        rc_tail,
    )
    .expect("recovery must replay the recorded audit tail through both reconfigs");
    let rc_bit_identical =
        rc_recovered.state.snapshot().to_json() == reconfigured.state.snapshot().to_json();
    let rc_gap_free = reconfigured
        .audit
        .entries()
        .iter()
        .enumerate()
        .all(|(i, e)| e.seq == i as u64);
    let rc = &reconfigured.report.reconfig;
    eprintln!(
        "  {} reconfigs: {} renegotiated, {} dropped, {} unchanged, audit len {}, \
         recovered bit-identical: {rc_bit_identical}",
        rc.reconfigs,
        rc.renegotiated,
        rc.dropped,
        rc.unchanged,
        reconfigured.audit.len(),
    );
    let reconfig_json = format!(
        concat!(
            "{{\"requests\": {}, \"events\": 2, \"audit_len\": {}, \"checkpoint_at\": {}, ",
            "\"tail_decisions\": {}, \"replay_bit_identical\": {}, \"audit_gap_free\": {}, ",
            "\"report\": {}}}"
        ),
        rc_requests,
        reconfigured.audit.len(),
        rc_checkpoint.decision_seq(),
        rc_tail.len(),
        rc_bit_identical,
        rc_gap_free,
        reconfigured.report.to_json(),
    );

    // TTRT/β autotune: the in-bench slice of the campaign the
    // standalone `autotune` binary runs at full size. Two offered
    // loads straddling the knee, each swept over a TTRT×β grid that
    // contains the frozen 8 ms default; the gate requires the sweep to
    // find a non-default TTRT beating the default's admission
    // probability on at least one load.
    let (at_grid, at_requests) = if quick {
        (
            SweepGrid {
                ttrts_ms: vec![6.0, 8.0, 12.0],
                betas: vec![0.25, 0.5, 0.75],
            },
            60,
        )
    } else {
        (
            SweepGrid {
                ttrts_ms: vec![6.0, 8.0, 10.0, 12.0],
                betas: vec![0.25, 0.5, 0.75],
            },
            150,
        )
    };
    let at_loads = [0.1, 0.3];
    eprintln!(
        "autotune: {} loads x {} grid points, {at_requests} requests each (seed 42)",
        at_loads.len(),
        at_grid.len(),
    );
    let at_sweeps = campaign(&at_loads, &at_grid, at_requests, 42);
    let loads_beating_default = at_sweeps
        .iter()
        .filter(|ls| ls.retuned_gain() > 0.0)
        .count();
    let autotune_json = format!(
        "{{\"loads_beating_default\": {}, \"campaign\": {}}}",
        loads_beating_default,
        campaign_json(&at_grid, &at_sweeps, at_requests, 42),
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"region_sweep\",\n",
            "  \"grid\": {},\n",
            "  \"active_connections\": {},\n",
            "  \"reps\": {},\n",
            "  \"hw_threads\": {},\n",
            "  \"sequential\": {},\n",
            "  \"parallel\": {},\n",
            "  \"frontier\": {},\n",
            "  \"speedup\": {:.3},\n",
            "  \"frontier_speedup\": {:.3},\n",
            "  \"dense_evals\": {},\n",
            "  \"frontier_evals\": {},\n",
            "  \"frontier_fell_back\": {},\n",
            "  \"maps_identical\": {},\n",
            "  \"churn\": {},\n",
            "  \"scheduler_compare\": {},\n",
            "  \"decision_latency\": {},\n",
            "  \"obs\": {},\n",
            "  \"obs_sharded\": {},\n",
            "  \"shard_scale\": {},\n",
            "  \"faults\": {},\n",
            "  \"reconfig\": {},\n",
            "  \"autotune\": {}\n",
            "}}\n"
        ),
        grid,
        active.len(),
        reps,
        threads,
        json_measured(&seq, grid, 1),
        json_measured(&par, grid, threads),
        json_measured(&fro, grid, 1),
        speedup,
        frontier_speedup,
        seq.sample.evals,
        fro.sample.evals,
        fro.sample.fell_back,
        identical,
        churn.to_json(),
        scheduler_compare_json,
        decision_latency_json,
        obs_json,
        obs_sharded_json,
        shard_scale_json,
        faults_json,
        reconfig_json,
        autotune_json,
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&out, &json).expect("write benchmark json");
    println!("wrote {out}");
}
