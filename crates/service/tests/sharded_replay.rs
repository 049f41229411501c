//! The sharded engine's defining property: over randomized churn —
//! seeds, loads, topologies, traffic patterns, worker counts, fault
//! schedules — the committed decision stream is bit-identical to the
//! sequential [`hetnet_service::ServiceEngine`]'s. Audit logs must
//! agree entry for entry ([`hetnet_service::entries_equivalent`]:
//! admissions bitwise, rejections by class) and the final states must
//! agree as snapshot JSON, which pins ids, allocations, delay bounds,
//! down-sets, and admission order all at once.
//!
//! The second half covers the consistent-cut checkpoint: a sharded run
//! captures a checkpoint mid-stream *while its workers hold in-flight
//! speculations against the pre-cut ledger*, and both engines —
//! sequential and sharded — must resume from that cut onto the same
//! final state, replaying the same audit tail.

use hetnet_cac::cac::{AdmissionOptions, CacConfig};
use hetnet_cac::network::{HetNetwork, Scheduler};
use hetnet_service::{
    entries_equivalent, run, runs_equivalent, sharded_runs_equivalent, ServiceConfig,
    ServiceEngine, ShardedEngine,
};
use hetnet_sim::churn::{ChurnConfig, TopologyShape, TrafficPattern};
use hetnet_sim::fault::FaultConfig;
use hetnet_traffic::units::Seconds;
use proptest::prelude::*;

/// Debug builds (the workspace test stage runs unoptimized) get a
/// scaled-down suite; release runs the full sizes.
const CASES: u32 = if cfg!(debug_assertions) { 2 } else { 6 };

fn sized(requests: usize) -> usize {
    if cfg!(debug_assertions) {
        requests.div_ceil(3)
    } else {
        requests
    }
}

fn base_cfg(rate: f64, requests: usize, seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::paper_style(rate, requests, seed);
    cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    cfg
}

fn faulted_cfg(rate: f64, requests: usize, seed: u64) -> ServiceConfig {
    let mut cfg = base_cfg(rate, requests, seed);
    cfg.faults = Some(FaultConfig {
        mean_gap: Seconds::new(8.0),
        mean_outage: Seconds::new(4.0),
        max_outage: Seconds::new(8.0),
        shrink_factor: Some(0.85),
        seed: seed ^ 0x5eed,
    });
    cfg
}

/// A multi-ring grid workload: the regime the sharded engine exists
/// for, where closures are ring-pair-local and shards rarely conflict.
fn grid_cfg(rings: usize, pattern: TrafficPattern, requests: usize, seed: u64) -> ServiceConfig {
    let mut cfg = base_cfg(2.0, requests, seed);
    cfg.churn = ChurnConfig {
        shape: TopologyShape {
            rings,
            hosts_per_ring: 3,
        },
        pattern,
        ..ChurnConfig::paper_style(2.0, requests, seed)
    };
    cfg
}

/// Sequential run vs sharded runs at several worker counts; every pair
/// must certify bit-identical.
fn check_sharded_matches_sequential(net_for: impl Fn() -> HetNetwork, cfg: &ServiceConfig) {
    let sequential = run(net_for(), cfg).expect("sequential run");
    for workers in [2, 4] {
        let (sharded, _) = ShardedEngine::new(net_for(), cfg, workers)
            .expect("sharded engine")
            .run()
            .expect("sharded run");
        assert!(
            runs_equivalent(&sharded, &sequential),
            "workers={workers}: sharded run diverged from sequential \
             (audit {} vs {} entries)",
            sharded.audit.len(),
            sequential.audit.len()
        );
        assert_eq!(
            sharded.report.counters, sequential.report.counters,
            "workers={workers}: decision counters diverged"
        );
        assert_eq!(
            sharded.report.recovery, sequential.report.recovery,
            "workers={workers}: recovery metrics diverged"
        );
    }
}

/// A sharded run checkpoints after `split` arrivals with workers still
/// speculating; both engines resume from the cut onto the full run's
/// final state and audit tail.
fn check_checkpoint_round_trip(cfg: &ServiceConfig, workers: usize, split: usize) {
    let (full, ckpt) = ShardedEngine::new(HetNetwork::paper_topology(), cfg, workers)
        .expect("sharded engine")
        .checkpoint_after(split)
        .run()
        .expect("sharded run");
    let ckpt = ckpt.expect("requested checkpoint must be captured");

    // The sequential engine accepts the sharded cut…
    let sequential_rest = ServiceEngine::recover(HetNetwork::paper_topology(), cfg, &ckpt)
        .expect("sequential recover")
        .finish()
        .expect("sequential resume");
    assert_eq!(
        sequential_rest.state.snapshot().to_json(),
        full.final_snapshot.to_json(),
        "sequential engine resumed from a sharded cut must reach the same final state"
    );

    // …and a fresh sharded engine resumes from it too.
    let (sharded_rest, _) =
        ShardedEngine::recover(HetNetwork::paper_topology(), cfg, workers, &ckpt)
            .expect("sharded recover")
            .run()
            .expect("sharded resume");
    assert_eq!(
        sharded_rest.final_snapshot.to_json(),
        full.final_snapshot.to_json(),
        "sharded engine resumed from its own cut must reach the same final state"
    );

    // Both resumed audit tails replay the full run's recorded tail.
    let seq0 = ckpt.decision_seq() as usize;
    let tail = &full.audit.entries()[seq0..];
    for (label, resumed) in [
        ("sequential", sequential_rest.audit.entries()),
        ("sharded", sharded_rest.audit.entries()),
    ] {
        assert_eq!(resumed.len(), tail.len(), "{label}: tail length");
        for (got, want) in resumed.iter().zip(tail) {
            assert!(
                entries_equivalent(got, want),
                "{label}: resumed tail diverged at seq {}: {got:?} vs {want:?}",
                want.seq
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Over random seeds and loads on the paper topology, sharded
    /// decisions replay the sequential engine bit for bit.
    #[test]
    fn sharded_matches_sequential_over_random_churn(
        seed in 0u64..1_000_000,
        rate in 0.5f64..4.0,
        requests in 20usize..60,
    ) {
        check_sharded_matches_sequential(
            HetNetwork::paper_topology,
            &base_cfg(rate, sized(requests), seed),
        );
    }

    /// The same property under fault injection: teardowns raise ledger
    /// barriers, conflicted speculations are recomputed, and the
    /// committed stream still matches — including recovery metrics.
    #[test]
    fn sharded_matches_sequential_under_faults(
        seed in 0u64..1_000_000,
        requests in 40usize..90,
    ) {
        check_sharded_matches_sequential(
            HetNetwork::paper_topology,
            &faulted_cfg(2.0, sized(requests), seed),
        );
    }

    /// On wider grids with locality-patterned traffic (the scaled
    /// regime), worker count never leaks into decisions.
    #[test]
    fn sharded_matches_sequential_on_grids(
        seed in 0u64..1_000_000,
        rings in 4usize..9,
        pattern_sel in 0usize..3,
    ) {
        let pattern = match pattern_sel {
            0 => TrafficPattern::Uniform,
            1 => TrafficPattern::Paired,
            _ => TrafficPattern::Local(1),
        };
        check_sharded_matches_sequential(
            || HetNetwork::grid(rings, 3),
            &grid_cfg(rings, pattern, sized(40), seed),
        );
    }

    /// Over random seeds and cut positions, a sharded checkpoint taken
    /// with in-flight speculations round-trips through both engines.
    #[test]
    fn sharded_checkpoint_round_trips(
        seed in 0u64..1_000_000,
        split in 10usize..45,
    ) {
        check_checkpoint_round_trip(&faulted_cfg(2.0, sized(60), seed), 2, sized(split));
    }
}

/// Pinned heavy case outside proptest so it always runs: a faulted
/// paper-topology workload at three worker counts, plus the cold-cache
/// configuration (cache persistence must stay decision-neutral under
/// sharding too).
#[test]
fn sharded_replay_pinned_faulted_seed() {
    let mut cfg = faulted_cfg(2.5, sized(120), 20260808);
    check_sharded_matches_sequential(HetNetwork::paper_topology, &cfg);
    cfg.persist_cache = false;
    let (a, _) = ShardedEngine::new(HetNetwork::paper_topology(), &cfg, 1)
        .expect("engine")
        .run()
        .expect("run");
    let (b, _) = ShardedEngine::new(HetNetwork::paper_topology(), &cfg, 4)
        .expect("engine")
        .run()
        .expect("run");
    assert!(
        sharded_runs_equivalent(&a, &b),
        "worker count must not leak into cold-cache decisions"
    );
}

/// Pinned screened-mode case: with decision tracing off the CAC takes
/// the screened evaluation path (exact receive-cache hits, then the
/// monotone receive-screening bound, dense only on a miss) and never
/// materializes per-connection reports. That path must not change any
/// decision: the screened sequential run must match the dense traced
/// run entry for entry and snapshot for snapshot, and sharded workers
/// must still replay the sequential screened stream bit for bit.
#[test]
fn sharded_replay_screened_mode() {
    let mut cfg = grid_cfg(8, TrafficPattern::Paired, sized(80), 20260808);
    cfg.trace_decisions = false;
    check_sharded_matches_sequential(|| HetNetwork::grid(8, 3), &cfg);
    let screened = run(HetNetwork::grid(8, 3), &cfg).expect("sequential screened");
    let mut traced_cfg = cfg.clone();
    traced_cfg.trace_decisions = true;
    let traced = run(HetNetwork::grid(8, 3), &traced_cfg).expect("sequential traced");
    assert_eq!(screened.audit.len(), traced.audit.len(), "audit length");
    for (a, b) in screened.audit.entries().iter().zip(traced.audit.entries()) {
        assert!(
            entries_equivalent(a, b),
            "screened vs dense decisions diverged at seq {}: {a:?} vs {b:?}",
            a.seq
        );
    }
    assert_eq!(
        screened.state.snapshot().to_json(),
        traced.state.snapshot().to_json(),
        "screened evaluation must not change any committed state"
    );
}

/// Full-observability runs — decision tracing, span timelines,
/// periodic telemetry, aggressive flight-recorder capture — must stay
/// bit-identical to a bare run on both engines: observability reads
/// engine state, it never decides.
#[test]
fn sharded_replay_full_observability_is_decision_neutral() {
    let bare = faulted_cfg(2.5, sized(100), 20260808);
    let sequential = run(HetNetwork::paper_topology(), &bare).expect("sequential bare");

    let mut cfg = bare.clone();
    cfg.trace_decisions = true;
    cfg.obs.spans = true;
    cfg.obs.telemetry_period = Some(Seconds::new(2.0));
    cfg.obs.flight_min_samples = 8;

    for workers in [2, 4] {
        let engine =
            ShardedEngine::new(HetNetwork::paper_topology(), &cfg, workers).expect("engine");
        let registry = engine.registry();
        let flight = engine.flight_recorder();
        let (observed, _) = engine.run().expect("sharded observed run");
        assert!(
            runs_equivalent(&observed, &sequential),
            "workers={workers}: full observability changed decisions"
        );
        assert_eq!(
            flight.seen(),
            observed.report.audit_len as u64,
            "workers={workers}: the flight recorder must observe every decision"
        );
        let rejections = observed.report.requests - observed.report.counters.admitted;
        if rejections > 0 {
            assert!(
                flight.captured() >= 1,
                "workers={workers}: the first rejection is always a class transition"
            );
        }
        assert!(
            !observed.telemetry.is_empty(),
            "workers={workers}: a telemetry period must cut frames"
        );
        assert_eq!(
            observed.report.shard_cache.len(),
            workers + 1,
            "workers={workers}: one gauge set per worker plus the inline entry"
        );
        assert!(observed.report.flight_recorder.starts_with("{\"seen\":"));
        let text = registry.to_openmetrics();
        assert!(text.contains("hetnet_shard_speculations_total{shard=\"0\"}"));
        assert!(text.contains("hetnet_decisions_total"));
    }

    // The sequential engine under the same full-observability config
    // also replays the bare run exactly.
    let seq_observed = run(HetNetwork::paper_topology(), &cfg).expect("sequential observed");
    assert_eq!(seq_observed.audit.len(), sequential.audit.len());
    for (a, b) in seq_observed
        .audit
        .entries()
        .iter()
        .zip(sequential.audit.entries())
    {
        assert!(
            entries_equivalent(a, b),
            "sequential observability diverged at seq {}: {a:?} vs {b:?}",
            a.seq
        );
    }
    assert_eq!(
        seq_observed.state.snapshot().to_json(),
        sequential.state.snapshot().to_json(),
        "sequential observability must not change committed state"
    );
    assert!(!seq_observed.telemetry.is_empty());
}

/// Pinned grid case: paired traffic on an 8-ring grid decomposes into
/// disjoint ring pairs, so a 4-worker run must see small closures and
/// still certify against the sequential engine.
#[test]
fn sharded_replay_pinned_grid() {
    let cfg = grid_cfg(8, TrafficPattern::Paired, sized(80), 20260808);
    let sequential = run(HetNetwork::grid(8, 3), &cfg).expect("sequential");
    let (sharded, _) = ShardedEngine::new(HetNetwork::grid(8, 3), &cfg, 4)
        .expect("engine")
        .run()
        .expect("run");
    assert!(runs_equivalent(&sharded, &sequential));
    assert!(
        sharded.sharding.peak_closure < sequential.report.peak_active.max(8),
        "paired traffic must keep closures below the global active set \
         (peak closure {}, global peak {})",
        sharded.sharding.peak_closure,
        sequential.report.peak_active
    );
}

/// The sharded engine installs the configured backbone scheduler and
/// spreads connections over its traffic classes exactly as the
/// sequential engine does: on a DRR `[3,2]` grid with two classes,
/// every worker count replays the sequential run.
#[test]
fn sharded_replay_drr_classes() {
    let cfg = grid_cfg(8, TrafficPattern::Paired, sized(80), 20260808)
        .with_scheduler(Scheduler::Drr { quanta: vec![3, 2] }, 2);
    let sequential = run(HetNetwork::grid(8, 3), &cfg).expect("sequential");
    for workers in [1, 3] {
        let (sharded, _) = ShardedEngine::new(HetNetwork::grid(8, 3), &cfg, workers)
            .expect("engine")
            .run()
            .expect("run");
        assert!(
            runs_equivalent(&sharded, &sequential),
            "workers={workers}: DRR sharded run diverged from sequential"
        );
    }
}

/// A loaded, faulted grid drives the commit path through rejections
/// and conflict recomputes, and the committed stream still replays the
/// sequential engine at every worker count. With one worker the
/// conflict count is deterministic: the worker reads each speculation
/// before the committer applies the departures and faults due ahead of
/// that arrival, so any such event on the closure invalidates it.
#[test]
fn sharded_replay_loaded_faulted_grid_rejects_and_conflicts() {
    let mut cfg = grid_cfg(8, TrafficPattern::Uniform, sized(120), 20260808);
    cfg.churn.arrival_rate = 1.0;
    cfg.churn.mean_holding = Seconds::new(40.0);
    cfg.faults = Some(FaultConfig {
        mean_gap: Seconds::new(10.0),
        mean_outage: Seconds::new(5.0),
        max_outage: Seconds::new(10.0),
        shrink_factor: Some(0.85),
        seed: 20260808 ^ 0x5eed,
    });
    let sequential = run(HetNetwork::grid(8, 3), &cfg).expect("sequential");
    let rejected = sequential.report.counters.rejected();
    for workers in [1, 3] {
        let (sharded, _) = ShardedEngine::new(HetNetwork::grid(8, 3), &cfg, workers)
            .expect("engine")
            .run()
            .expect("run");
        assert!(
            runs_equivalent(&sharded, &sequential),
            "workers={workers}: loaded faulted grid diverged from sequential"
        );
        assert_eq!(sharded.report.recovery, sequential.report.recovery);
        if workers == 1 {
            assert!(
                sharded.sharding.conflicts > 0,
                "one worker must still see conflicts: {:?}",
                sharded.sharding
            );
        }
    }
    assert!(rejected > 0, "the loaded grid must reject some requests");
}
