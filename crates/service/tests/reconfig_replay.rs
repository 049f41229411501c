//! Crash recovery through live reconfigurations: a churn run with
//! scheduled [`ReconfigEvent`]s checkpointed mid-stream must replay
//! the rest of the run bit for bit — same audit tail (including the
//! `Reconfig` entries), same final state — and a checkpoint taken
//! *just before* a reconfiguration must apply it as the recovered
//! engine's very first event.

use hetnet_cac::cac::{AdmissionOptions, CacConfig};
use hetnet_cac::network::{HetNetwork, Scheduler};
use hetnet_cac::reconfig::ReconfigPlan;
use hetnet_service::audit::AuditKind;
use hetnet_service::{
    entries_equivalent, run, verify_recovery, ReconfigEvent, ServiceConfig, ServiceEngine,
};
use hetnet_sim::churn::{self, ChurnConfig, TopologyShape, TrafficPattern};
use hetnet_sim::fault::FaultConfig;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use proptest::prelude::*;

/// A paper-style churn workload with two mid-run reconfigurations: a
/// TTRT shrink to 5 ms a third of the way in, then a grow to 12 ms
/// with a β retune at two thirds.
fn reconfigured_cfg(rate: f64, requests: usize, seed: u64) -> ServiceConfig {
    let span = requests as f64 / rate;
    let mut cfg = ServiceConfig::paper_style(rate, requests, seed);
    cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    cfg.reconfigs = vec![
        ReconfigEvent {
            at: Seconds::new(span * 0.33),
            plan: ReconfigPlan::uniform_ttrt(Seconds::from_millis(5.0)),
        },
        ReconfigEvent {
            at: Seconds::new(span * 0.66),
            plan: ReconfigPlan::uniform_ttrt(Seconds::from_millis(12.0)).with_beta(0.3),
        },
    ];
    cfg
}

/// Runs the full workload once, checkpoints a second engine after
/// `split` arrivals, and verifies recovery replays the recorded tail
/// bit for bit. Returns the tail for scenario-specific assertions.
fn check_recovery(cfg: &ServiceConfig, split: usize) -> Vec<AuditKind> {
    let full = run(HetNetwork::paper_topology(), cfg).expect("full run");
    // The log is gap-free across arrivals *and* reconfigurations: one
    // sequence number per decision, no holes, so index == seq.
    for (i, e) in full.audit.entries().iter().enumerate() {
        assert_eq!(e.seq as usize, i, "audit log must be gap-free");
    }
    let count = |kind: AuditKind| {
        full.audit
            .entries()
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    };
    assert_eq!(
        count(AuditKind::Arrival),
        cfg.churn.requests,
        "every scheduled arrival costs exactly one entry"
    );
    assert_eq!(
        count(AuditKind::Reconfig),
        cfg.reconfigs.len(),
        "every reconfiguration costs exactly one entry"
    );

    let mut engine = ServiceEngine::new(HetNetwork::paper_topology(), cfg).expect("engine");
    for _ in 0..split {
        assert!(
            engine.step_arrival().expect("step"),
            "split exceeds schedule"
        );
    }
    let checkpoint = engine.checkpoint();
    let seq0 = checkpoint.decision_seq() as usize;
    drop(engine);

    let tail = &full.audit.entries()[seq0..];
    let recovered = verify_recovery(HetNetwork::paper_topology(), cfg, &checkpoint, tail)
        .expect("recovery must replay the recorded tail through the reconfigs");
    assert_eq!(
        recovered.state.snapshot().to_json(),
        full.state.snapshot().to_json(),
        "recovered final state must be bit-identical to the original"
    );
    assert_eq!(recovered.audit.start(), seq0 as u64);
    tail.iter().map(|e| e.kind).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over random seeds and checkpoint positions, recovering a
    /// reconfigured run from a mid-stream snapshot reproduces the
    /// audit-log tail and the final state bit for bit — whether the
    /// checkpoint lands before, between, or after the two events.
    #[test]
    fn recovery_replays_reconfigured_runs(
        seed in 0u64..1_000_000,
        split in 5usize..55,
    ) {
        check_recovery(&reconfigured_cfg(2.0, 60, seed), split);
    }
}

/// A pinned case that always runs, with faults layered on top of the
/// reconfig schedule and the cold-cache configuration: teardown,
/// renegotiation, and recovery arithmetic all interleave in one run.
#[test]
fn recovery_matches_on_pinned_faulted_reconfigured_seed() {
    let mut cfg = reconfigured_cfg(2.0, 100, 20260808);
    cfg.faults = Some(FaultConfig {
        mean_gap: Seconds::new(8.0),
        mean_outage: Seconds::new(4.0),
        max_outage: Seconds::new(8.0),
        shrink_factor: Some(0.85),
        seed: 20260808 ^ 0x5eed,
    });
    let kinds = check_recovery(&cfg, 30);
    assert!(
        kinds.contains(&AuditKind::Reconfig),
        "a split of 30 of 100 must leave at least one reconfiguration in the tail"
    );
    cfg.persist_cache = false;
    check_recovery(&cfg, 30);
}

/// Checkpoint taken *immediately before* a scheduled reconfiguration:
/// the recovered engine's first applied event is the reconfig itself,
/// and the replay still lands on identical bits. This is the nastiest
/// recovery position — the snapshot carries the old ring parameters
/// and the very next event swaps them out.
#[test]
fn reconfigure_fires_first_after_recover() {
    let rate = 2.0;
    let requests = 60;
    let cfg0 = ServiceConfig::paper_style(rate, requests, 777);
    let arrivals = churn::generate(&cfg0.churn).arrivals;
    // Place the event in the half-open gap after the 20th arrival, so
    // a checkpoint at split=20 has the reconfig as its next due event.
    let split = 20;
    let at = Seconds::new((arrivals[split - 1].at.value() + arrivals[split].at.value()) / 2.0);
    let mut cfg = reconfigured_cfg(rate, requests, 777);
    cfg.reconfigs[0].at = at;

    let kinds = check_recovery(&cfg, split);
    assert_eq!(
        kinds.first(),
        Some(&AuditKind::Reconfig),
        "the reconfiguration must be the first entry the recovered engine replays"
    );
}

/// The `grid_retune` benchmark's shape at test size: paired churn of
/// tiny dual-periodic sources (40–240 ms deadlines) on an 8-ring grid,
/// a DRR `[3,2]` backbone with two classes, seeded faults, and TTRT
/// retunes to 6 ms and back to 10 ms.
fn drr_retune_cfg(pattern: TrafficPattern, requests: usize, beta: f64, seed: u64) -> ServiceConfig {
    let rate = 0.75;
    let mut cfg = ServiceConfig::paper_style(rate, requests, seed);
    cfg.churn = ChurnConfig {
        shape: TopologyShape {
            rings: 8,
            hosts_per_ring: 3,
        },
        pattern,
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
        .expect("valid source"),
        requests,
        seed,
    };
    let mut cac = CacConfig::fast().with_beta(beta);
    cac.min_frame_efficiency = 0.8;
    cfg.options = AdmissionOptions::beta_search(cac);
    let span = churn::generate(&cfg.churn).span().value();
    let retune = |at: f64, ms: f64| ReconfigEvent {
        at: Seconds::new(span * at),
        plan: ReconfigPlan::uniform_ttrt(Seconds::from_millis(ms)),
    };
    cfg.with_scheduler(Scheduler::Drr { quanta: vec![3, 2] }, 2)
        .with_faults(FaultConfig {
            mean_gap: Seconds::new(30.0),
            ..FaultConfig::paper_style(seed ^ 0x5eed_fa17)
        })
        .with_reconfigs(vec![retune(0.35, 6.0), retune(0.7, 10.0)])
}

/// Independent oracle for closure-scoped admission: an untraced run
/// decides each request over the candidate's dependency closure with
/// screened deadline checks, a traced run over every connection with
/// dense reports. On the `grid_retune` shape — DRR classes, faults,
/// TTRT retunes renegotiating every connection — both must produce the
/// same audit, entry for entry and reject detail for reject detail,
/// and the same final snapshot; at β > 0 that includes the step-4
/// search over closure-scoped multiplexer-delay signatures. Paired
/// traffic is the benchmark's; neighborhood traffic adds closures that
/// grow transitively through partly shared routes.
#[test]
fn closure_scoped_admission_matches_full_scope_on_drr_retune_grid() {
    let requests = if cfg!(debug_assertions) { 90 } else { 180 };
    for (pattern, beta) in [
        (TrafficPattern::Paired, 0.0),
        (TrafficPattern::Paired, 0.5),
        (TrafficPattern::Local(1), 0.0),
    ] {
        let mut cfg = drr_retune_cfg(pattern, requests, beta, 20261017);
        cfg.trace_decisions = false;
        let scoped = run(HetNetwork::grid(8, 3), &cfg).expect("untraced run");
        cfg.trace_decisions = true;
        let full = run(HetNetwork::grid(8, 3), &cfg).expect("traced run");
        let kinds = |kind: AuditKind| {
            scoped
                .audit
                .entries()
                .iter()
                .filter(|e| e.kind == kind)
                .count()
        };
        assert_eq!(
            kinds(AuditKind::Reconfig),
            2,
            "{pattern:?} beta={beta}: both retunes ran"
        );
        assert!(
            kinds(AuditKind::Readmit) > 0,
            "{pattern:?} beta={beta}: faults parked connections for re-admission"
        );
        assert!(
            scoped
                .audit
                .entries()
                .iter()
                .any(|e| !e.outcome.is_admitted() && e.kind == AuditKind::Arrival),
            "{pattern:?} beta={beta}: the workload must reject something"
        );
        assert_eq!(
            scoped.audit.len(),
            full.audit.len(),
            "{pattern:?} beta={beta}"
        );
        for (a, b) in scoped.audit.entries().iter().zip(full.audit.entries()) {
            assert!(
                entries_equivalent(a, b) && a == b,
                "{pattern:?} beta={beta}: closure scope diverged from full scope at seq {}: {a:?} vs {b:?}",
                a.seq
            );
        }
        assert_eq!(
            scoped.state.snapshot().to_json(),
            full.state.snapshot().to_json(),
            "{pattern:?} beta={beta}: closure scope must not change any committed state"
        );
    }
}
