//! Certification gate for cache-history independence.
//!
//! The persistent evaluator cache ([`NetworkState::persist_eval_cache`])
//! may only change *how fast* an admission decision is reached, never
//! the decision itself: a state that carries its cache across admits,
//! releases and faults must decide, bit for bit, like one that starts
//! every decision cold. Two checks pin that down:
//!
//! 1. a property test drives a persistent-cache [`NetworkState`] and a
//!    cold one through identical admit/release/fault interleavings and
//!    requires every decision — allocations and delay bounds rendered
//!    as raw IEEE-754 bits, reject reasons verbatim — plus the final
//!    active set to be identical;
//! 2. a pinned scenario renders its decision stream (again at bit
//!    granularity) against `tests/golden/fast_path_decisions.txt`, so a
//!    behaviour change shows up as a golden diff even if it affects
//!    both states at once. Regenerate after an intentional change:
//!
//!    ```text
//!    FAST_PATH_WRITE=1 cargo test -p hetnet-cac --test fast_path
//!    ```

use hetnet_cac::cac::{AdmissionOptions, CacConfig, Decision, NetworkState};
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::network::{Component, HetNetwork, HostId, RingId};
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

fn spec(
    c1_mbit: f64,
    deadline_ms: f64,
    src: (usize, usize),
    dst: (usize, usize),
) -> ConnectionSpec {
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
                Bits::from_mbits(c1_mbit),
                Seconds::from_millis(100.0),
                Bits::from_mbits(c1_mbit / 8.0),
                Seconds::from_millis(12.5),
                BitsPerSec::from_mbps(100.0),
            )
            .unwrap(),
        ),
        deadline: Seconds::from_millis(deadline_ms),
        class: 0,
    }
}

/// Renders a decision with float payloads as raw bits, so "equal"
/// means bit-identical, not approximately equal.
fn render(d: &Decision) -> String {
    match d {
        Decision::Admitted {
            id,
            h_s,
            h_r,
            delay_bound,
        } => format!(
            "admit id={} h_s={:016x} h_r={:016x} delay={:016x}",
            id.0,
            h_s.per_rotation().value().to_bits(),
            h_r.per_rotation().value().to_bits(),
            delay_bound.value().to_bits(),
        ),
        Decision::Rejected(reason) => format!("reject {reason:?}"),
    }
}

/// One step of an interleaving. `sel` picks the operation, the rest
/// parameterise an admission request.
type Op = (usize, f64, f64, usize, usize);

/// Applies `ops` to a fresh paper-topology state and returns the
/// rendered event stream plus the final active set (also at bit
/// granularity).
fn run(ops: &[Op], persist: bool) -> Vec<String> {
    let net = HetNetwork::paper_topology();
    let mut s = NetworkState::new(net);
    if persist {
        s.persist_eval_cache(true);
    }
    let opts = AdmissionOptions::beta_search(CacConfig::fast());
    let mut out = Vec::new();
    for &(sel, c1, deadline_ms, src_ring, dst_ring) in ops {
        match sel {
            // Admission request (the common case). The destination ring
            // is derived as a non-zero offset from the source: same-ring
            // requests are invalid by construction.
            0..=3 => {
                let src_r = src_ring % 3;
                let dst_r = (src_r + 1 + (dst_ring % 2)) % 3;
                let sp = spec(c1, deadline_ms, (src_r, sel), (dst_r, (sel + 1) % 4));
                let d = s.admit(sp, &opts).expect("well-formed request");
                out.push(render(&d));
            }
            // Release the oldest connection, if any.
            4 => {
                if let Some(id) = s.active().first().map(|c| c.id) {
                    s.release(id).expect("active id");
                    out.push(format!("release id={}", id.0));
                }
            }
            // Ring fault: tear down everything crossing it, then
            // restore. Exercises the teardown sweep + rebuild path.
            _ => {
                let ring = Component::Ring(RingId(src_ring % 3));
                let report = s.set_component_down(ring).expect("known component");
                let torn: Vec<u64> = report.torn.iter().map(|c| c.id.0).collect();
                out.push(format!("fault ring={} torn={torn:?}", src_ring % 3));
                s.set_component_up(ring).expect("known component");
            }
        }
    }
    for c in s.active() {
        out.push(format!(
            "active id={} h_s={:016x} h_r={:016x} delay={:016x}",
            c.id.0,
            c.h_s.per_rotation().value().to_bits(),
            c.h_r.per_rotation().value().to_bits(),
            c.delay_bound.value().to_bits(),
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The persistent cache must be a pure accelerator: identical op
    /// streams produce bit-identical decision streams with it or cold.
    #[test]
    fn persistent_cache_decisions_are_bit_identical_to_cold(
        ops in proptest::collection::vec(
            (0usize..6, 0.25f64..3.0, 1.0f64..120.0, 0usize..3, 0usize..3),
            1..12,
        )
    ) {
        let cold = run(&ops, false);
        let persistent = run(&ops, true);
        prop_assert_eq!(&cold, &persistent, "cache history changed the decision stream");
    }
}

/// Pinned scenario: a mixed accept/reject/fault stream whose exact
/// decision bits are committed as a golden file, certified equal with
/// the persistent cache and cold.
#[test]
fn pinned_decision_stream_matches_golden() {
    let ops: Vec<Op> = vec![
        (0, 2.0, 100.0, 0, 1), // admit across the backbone
        (1, 1.0, 80.0, 1, 2),  // second admit, different rings
        (2, 2.5, 1.2, 0, 2),   // tight deadline → reject
        (3, 0.5, 60.0, 2, 0),  // small flow, reverse direction
        (4, 0.0, 0.0, 0, 0),   // release the oldest
        (5, 0.0, 0.0, 1, 0),   // fault ring 1, tearing down its flows
        (0, 1.5, 90.0, 0, 2),  // re-admit after restore
        (2, 9.5, 100.0, 0, 1), // oversized burst → reject
    ];
    let cold = run(&ops, false);
    let persistent = run(&ops, true);
    assert_eq!(cold, persistent, "cache history changed the pinned stream");

    let mut rendered = String::new();
    for line in &persistent {
        rendered.push_str(line);
        rendered.push('\n');
    }
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fast_path_decisions.txt");
    if std::env::var_os("FAST_PATH_WRITE").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write golden file");
        eprintln!("regenerated {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with FAST_PATH_WRITE=1",
            golden_path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "decision bits drifted from {}; if intentional, regenerate with FAST_PATH_WRITE=1",
        golden_path.display()
    );
}
