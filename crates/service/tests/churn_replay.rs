//! The service's defining property: a churn run's decisions are
//! bit-identical to driving a bare [`NetworkState`] through the same
//! merged connect/disconnect event stream by hand. The engine adds
//! scheduling and observability, never policy.
//!
//! The second half extends the property to crash recovery: checkpoint
//! a faulted run mid-stream, replay the remainder from the snapshot
//! plus the regenerated schedules, and demand the recovered engine
//! reproduce the recorded audit-log tail and final state bit for bit.

use hetnet_cac::cac::{AdmissionOptions, CacConfig, Decision, NetworkState};
use hetnet_cac::connection::{ConnectionId, ConnectionSpec};
use hetnet_cac::network::HetNetwork;
use hetnet_service::audit::AuditOutcome;
use hetnet_service::{run, verify_recovery, ServiceConfig, ServiceEngine};
use hetnet_sim::churn;
use hetnet_sim::fault::FaultConfig;
use hetnet_traffic::envelope::SharedEnvelope;
use hetnet_traffic::units::Seconds;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Replays the schedule through a bare `NetworkState`, mirroring the
/// engine's event order: departures due at or before an arrival are
/// released first (ties by `(time, id)`), then the arrival is decided.
fn replay_bare(cfg: &ServiceConfig) -> (Vec<Decision>, Vec<ConnectionId>) {
    let schedule = churn::generate(&cfg.churn);
    let envelope: SharedEnvelope = Arc::new(schedule.source);
    let mut state = NetworkState::new(HetNetwork::paper_topology());
    state.persist_eval_cache(cfg.persist_cache);
    let mut departures: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut decisions = Vec::with_capacity(schedule.arrivals.len());
    for a in &schedule.arrivals {
        while let Some(&Reverse((at_bits, id))) = departures.peek() {
            if Seconds::new(f64::from_bits(at_bits)) > a.at {
                break;
            }
            departures.pop();
            state.release(ConnectionId(id)).expect("replay release");
        }
        let spec = ConnectionSpec::builder()
            .source(a.source)
            .dest(a.dest)
            .envelope(Arc::clone(&envelope))
            .deadline(a.deadline)
            .build()
            .expect("replay spec");
        let decision = state.admit(spec, &cfg.options).expect("replay admit");
        if let Decision::Admitted { id, .. } = &decision {
            departures.push(Reverse(((a.at + a.holding).value().to_bits(), id.0)));
        }
        decisions.push(decision);
    }
    let active = state.active().iter().map(|c| c.id).collect();
    (decisions, active)
}

/// Bitwise comparison of a service audit outcome against a bare
/// decision (allocations and delay bounds compared via `to_bits`).
fn assert_outcome_matches(seq: usize, audit: &AuditOutcome, bare: &Decision) {
    match (audit, bare) {
        (
            AuditOutcome::Admitted {
                id,
                h_s,
                h_r,
                delay_bound,
            },
            Decision::Admitted {
                id: bid,
                h_s: bhs,
                h_r: bhr,
                delay_bound: bdb,
            },
        ) => {
            assert_eq!(id, bid, "seq {seq}: id");
            assert_eq!(
                h_s.to_bits(),
                bhs.per_rotation().value().to_bits(),
                "seq {seq}: h_s"
            );
            assert_eq!(
                h_r.to_bits(),
                bhr.per_rotation().value().to_bits(),
                "seq {seq}: h_r"
            );
            assert_eq!(
                delay_bound.to_bits(),
                bdb.value().to_bits(),
                "seq {seq}: delay_bound"
            );
        }
        (AuditOutcome::Rejected { detail, .. }, Decision::Rejected(reason)) => {
            assert_eq!(detail, &reason.to_string(), "seq {seq}: reason");
        }
        (a, b) => panic!("seq {seq}: verdicts diverge: {a:?} vs {b:?}"),
    }
}

fn check_replay(mut cfg: ServiceConfig) {
    cfg.options = AdmissionOptions::beta_search(CacConfig::fast());
    let service = run(HetNetwork::paper_topology(), &cfg).expect("service run");
    let (bare, bare_active) = replay_bare(&cfg);
    assert_eq!(service.audit.len(), bare.len());
    for (entry, decision) in service.audit.entries().iter().zip(&bare) {
        assert_outcome_matches(entry.seq as usize, &entry.outcome, decision);
    }
    let service_active: Vec<ConnectionId> = service.state.active().iter().map(|c| c.id).collect();
    assert_eq!(service_active, bare_active, "final active sets diverge");
}

/// A faulted workload dense enough that most runs see teardowns and
/// re-admissions inside a short request budget.
fn faulted_cfg(rate: f64, requests: usize, seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::paper_style(rate, requests, seed);
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

/// Runs the full faulted workload once, then checkpoints a second
/// engine after `split` arrivals and verifies the recovery replays the
/// rest of the run bit for bit: same audit tail, same final state.
fn check_recovery(cfg: &ServiceConfig, split: usize) {
    let full = run(HetNetwork::paper_topology(), cfg).expect("full run");
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

    // The full run's log is gap-free from 0, so the tail starts at the
    // checkpoint's decision sequence.
    let tail = &full.audit.entries()[seq0..];
    let recovered = verify_recovery(HetNetwork::paper_topology(), cfg, &checkpoint, tail)
        .expect("recovery must replay the recorded tail");
    assert_eq!(
        recovered.state.snapshot().to_json(),
        full.state.snapshot().to_json(),
        "recovered final state must be bit-identical to the original"
    );
    assert_eq!(recovered.audit.start(), seq0 as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over random seeds and loads, every decision and the final
    /// active set match a hand-driven replay bit for bit.
    #[test]
    fn service_decisions_match_bare_replay(
        seed in 0u64..1_000_000,
        rate in 0.2f64..4.0,
        requests in 8usize..40,
    ) {
        check_replay(ServiceConfig::paper_style(rate, requests, seed));
    }

    /// Over random seeds and checkpoint positions, recovering a faulted
    /// run from a mid-stream snapshot reproduces the audit-log tail and
    /// the final state bit for bit.
    #[test]
    fn recovery_replays_faulted_runs(
        seed in 0u64..1_000_000,
        split in 10usize..50,
    ) {
        check_recovery(&faulted_cfg(2.0, 60, seed), split);
    }
}

/// One fixed heavy case pinned outside proptest so it always runs,
/// including the cold-cache configuration.
#[test]
fn replay_matches_on_pinned_heavy_seed() {
    let mut cfg = ServiceConfig::paper_style(3.0, 80, 20260805);
    cfg.persist_cache = false;
    check_replay(cfg);
}

/// A pinned recovery case that always runs: a dense faulted workload
/// checkpointed mid-outage (any split works; 40 of 120 lands inside
/// the fault window for this seed), plus the cold-cache configuration.
#[test]
fn recovery_matches_on_pinned_faulted_seed() {
    let mut cfg = faulted_cfg(2.0, 120, 20260805);
    check_recovery(&cfg, 40);
    cfg.persist_cache = false;
    check_recovery(&cfg, 40);
}
