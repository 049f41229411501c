//! Latency of a single `NetworkState::request` — the CAC's unit of
//! work — on both decision paths: admissions (empty and loaded
//! network) and rejections (deadline too tight), the latter with the
//! evaluator cache cold and kept warm across calls via
//! `persist_eval_cache` (rejections leave the active set unchanged, so
//! the retry path is exactly what the persistent cache accelerates).
//!
//! `request_latency_p99` is the headline target CI runs: a warm
//! steady-state admit/release cycle with the persistent cache on,
//! followed by an explicit sub-millisecond p99 assertion (the
//! criterion shim reports timings but does not gate, so the gate is an
//! assert in the bench itself).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hetnet_cac::cac::{AdmissionOptions, CacConfig, Decision, NetworkState};
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::network::{HetNetwork, HostId};
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use std::sync::Arc;
use std::time::Instant;

fn paper_source() -> Arc<DualPeriodicEnvelope> {
    Arc::new(
        DualPeriodicEnvelope::new(
            Bits::from_mbits(2.0),
            Seconds::from_millis(100.0),
            Bits::from_mbits(0.25),
            Seconds::from_millis(10.0),
            BitsPerSec::from_mbps(100.0),
        )
        .expect("valid"),
    )
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
        envelope: paper_source() as _,
        deadline: Seconds::from_millis(deadline_ms),
        class: 0,
    }
}

fn bench_request_latency(c: &mut Criterion) {
    let opts = AdmissionOptions::beta_search(CacConfig::default());
    let net = HetNetwork::paper_topology();

    // Admissions mutate the active set, so the state is rebuilt per
    // iteration (NetworkState is not Clone); cloning the prebuilt
    // network keeps the rebuild cost to a copy, not a re-validation.
    c.bench_function("request_admit_empty", |b| {
        b.iter(|| {
            let mut state = NetworkState::new(net.clone());
            black_box(state.admit(spec((0, 0), (1, 0), 100.0), &opts).expect("ok"))
        })
    });

    c.bench_function("request_admit_loaded", |b| {
        b.iter(|| {
            let mut state = NetworkState::new(net.clone());
            state.admit(spec((0, 0), (1, 0), 100.0), &opts).expect("ok");
            state.admit(spec((1, 0), (2, 0), 100.0), &opts).expect("ok");
            state.admit(spec((2, 0), (0, 0), 100.0), &opts).expect("ok");
            black_box(state.admit(spec((0, 1), (2, 1), 100.0), &opts).expect("ok"))
        })
    });

    // Rejections leave the state untouched, so one state serves every
    // iteration and each call times exactly one request. The spec is
    // built once and cloned: the evaluator caches key envelopes by Arc
    // address, so a retry only stays warm if it resubmits the same
    // envelope (as a retrying application would).
    let reject_spec = spec((0, 0), (1, 0), 1.0);
    c.bench_function("request_reject_cold", |b| {
        let mut state = NetworkState::new(net.clone());
        b.iter(|| black_box(state.admit(reject_spec.clone(), &opts).expect("ok")))
    });

    c.bench_function("request_reject_warm", |b| {
        let mut state = NetworkState::new(net.clone());
        state.persist_eval_cache(true);
        b.iter(|| black_box(state.admit(reject_spec.clone(), &opts).expect("ok")))
    });
}

/// A `C1`-over-100-ms envelope split into `bursts` sub-bursts, as the
/// latency section of `bench_json` uses.
fn burst_envelope(c1_mbit: f64, bursts: usize) -> Arc<DualPeriodicEnvelope> {
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

fn bench_request_latency_p99(c: &mut Criterion) {
    // The paper's operating point: a controller answering one request
    // at a time against a loaded network, with the persistent
    // evaluator cache on. Three background connections stay admitted
    // for the whole benchmark; the candidate spec is built once so the
    // stage-1 cache stays warm across the admit/release cycle.
    let opts = AdmissionOptions::beta_search(CacConfig::fast());
    let mut state = NetworkState::new(HetNetwork::paper_topology());
    state.persist_eval_cache(true);
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
            envelope: burst_envelope(0.9 + 0.1 * k as f64, 5) as _,
            deadline: Seconds::from_millis(100.0),
            class: 0,
        };
        state.admit(bg, &opts).expect("background admit");
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
        envelope: burst_envelope(1.2, 5) as _,
        deadline: Seconds::from_millis(120.0),
        class: 0,
    };
    let cycle =
        |state: &mut NetworkState| match state.admit(admit_spec.clone(), &opts).expect("admit") {
            Decision::Admitted { id, .. } => state.release(id).expect("release"),
            Decision::Rejected(reason) => panic!("steady-state admit rejected: {reason}"),
        };
    for _ in 0..16 {
        cycle(&mut state);
    }

    c.bench_function("request_latency_p99", |b| b.iter(|| cycle(&mut state)));

    // The actual gate: p99 over 300 individually-timed decisions must
    // be sub-millisecond, the acceptance bar the bench JSON's
    // `decision_latency` section also holds.
    let mut samples: Vec<f64> = (0..300)
        .map(|_| {
            let start = Instant::now();
            let decision = state.admit(admit_spec.clone(), &opts).expect("admit");
            let elapsed = start.elapsed().as_secs_f64();
            if let Decision::Admitted { id, .. } = black_box(decision) {
                state.release(id).expect("release");
            }
            elapsed
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let p99 = samples[(samples.len() * 99).div_ceil(100) - 1];
    assert!(
        p99 < 1e-3,
        "steady-state decision p99 {:.1} us is not sub-millisecond",
        p99 * 1e6
    );
    println!(
        "request_latency_p99: explicit gate p99 {:.1} us < 1000 us",
        p99 * 1e6
    );
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_request_latency, bench_request_latency_p99
);
criterion_main!(benches);
