//! FIFO bit-identity gate for the `SchedulerAnalysis` refactor.
//!
//! The pluggable-scheduler work re-routes the multiplexer analysis
//! through a trait object; under [`Scheduler::Fifo`] that indirection
//! must be invisible — every decision *and* every traced delay
//! decomposition keeps the exact IEEE-754 bits the pre-refactor code
//! produced. The transcript below was generated from the pre-refactor
//! tree and is committed as
//! `tests/golden/scheduler_fifo_transcript.txt`; any drift in a FIFO
//! decision or trace payload shows up as a golden diff. Regenerate
//! after an intentional change:
//!
//! ```text
//! SCHEDULER_GOLDEN_WRITE=1 cargo test -p hetnet-cac --test scheduler_golden
//! ```
//!
//! Unlike the `fast_path.rs` golden, this one also renders the decision
//! *trace* — the five eq.-7 stage terms, slack, binding constraint and
//! allocation of every evaluated candidate — so a scheduler that
//! perturbs an intermediate bound without flipping the decision still
//! trips the gate.

use hetnet_cac::cac::{AdmissionOptions, CacConfig, Decision, NetworkState};
use hetnet_cac::connection::ConnectionSpec;
use hetnet_cac::network::{Component, HetNetwork, HostId, RingId};
use hetnet_cac::trace::DecisionTrace;
use hetnet_traffic::models::DualPeriodicEnvelope;
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
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

fn bits(s: Seconds) -> String {
    format!("{:016x}", s.value().to_bits())
}

fn render_decision(d: &Decision) -> String {
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

/// Renders a trace's numeric payloads as raw bits: the committed
/// allocation, the binding constraint, and every evaluated candidate's
/// five-stage delay decomposition plus slack.
fn render_trace(t: &DecisionTrace) -> Vec<String> {
    let mut out = Vec::new();
    let alloc = match &t.allocation {
        Some((h_s, h_r)) => format!(
            "h_s={:016x} h_r={:016x}",
            h_s.per_rotation().value().to_bits(),
            h_r.per_rotation().value().to_bits(),
        ),
        None => "none".to_string(),
    };
    let binding = match &t.binding {
        Some(b) => b.kind().to_string(),
        None => "none".to_string(),
    };
    out.push(format!(
        "trace seq={} admitted={} alloc=[{alloc}] binding={binding}",
        t.seq, t.admitted,
    ));
    for c in &t.connections {
        out.push(format!(
            "  conn id={:?} fddi_s={} id_s={} atm={} id_r={} fddi_r={} total={} slack={} dominant={}",
            c.id.map(|i| i.0),
            bits(c.report.fddi_s),
            bits(c.report.id_s),
            bits(c.report.atm),
            bits(c.report.id_r),
            bits(c.report.fddi_r),
            bits(c.report.total),
            bits(c.slack),
            c.dominant.name(),
        ));
    }
    out
}

type Op = (usize, f64, f64, usize, usize);

/// Applies `ops` to a fresh traced paper-topology state and returns the
/// rendered decision + trace stream plus the final active set.
fn run(ops: &[Op], fast: bool) -> Vec<String> {
    let net = HetNetwork::paper_topology();
    let mut s = NetworkState::new(net);
    s.set_decision_tracing(true);
    if fast {
        s.persist_eval_cache(true);
    }
    let opts = AdmissionOptions::beta_search(CacConfig::fast());
    let mut out = Vec::new();
    for &(sel, c1, deadline_ms, src_ring, dst_ring) in ops {
        match sel {
            0..=3 => {
                let src_r = src_ring % 3;
                let dst_r = (src_r + 1 + (dst_ring % 2)) % 3;
                let sp = spec(c1, deadline_ms, (src_r, sel), (dst_r, (sel + 1) % 4));
                let d = s.admit(sp, &opts).expect("well-formed request");
                out.push(render_decision(&d));
                let t = s.last_decision_trace().expect("tracing is on");
                out.extend(render_trace(t));
            }
            4 => {
                if let Some(id) = s.active().first().map(|c| c.id) {
                    s.release(id).expect("active id");
                    out.push(format!("release id={}", id.0));
                }
            }
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

/// Pinned mixed accept/reject/fault stream whose decision bits *and*
/// trace payloads are committed as a golden file. Certified equal with
/// the persistent cache and cold before being compared against the
/// golden.
#[test]
fn fifo_transcript_matches_pre_refactor_golden() {
    let ops: Vec<Op> = vec![
        (0, 2.0, 100.0, 0, 1), // admit across the backbone
        (1, 1.0, 80.0, 1, 2),  // second admit, different rings
        (2, 2.5, 1.2, 0, 2),   // tight deadline → reject
        (3, 0.5, 60.0, 2, 0),  // small flow, reverse direction
        (0, 1.75, 45.0, 1, 1), // third ring pair
        (4, 0.0, 0.0, 0, 0),   // release the oldest
        (5, 0.0, 0.0, 1, 0),   // fault ring 1, tearing down its flows
        (0, 1.5, 90.0, 0, 2),  // re-admit after restore
        (2, 9.5, 100.0, 0, 1), // oversized burst → reject
        (1, 0.75, 30.0, 2, 1), // final admit on the warmed state
    ];
    let dense = run(&ops, false);
    let fast = run(&ops, true);
    assert_eq!(dense, fast, "fast path changed the pinned stream");

    let mut rendered = String::new();
    for line in &fast {
        rendered.push_str(line);
        rendered.push('\n');
    }
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scheduler_fifo_transcript.txt");
    if std::env::var_os("SCHEDULER_GOLDEN_WRITE").is_some() {
        std::fs::write(&golden_path, &rendered).expect("write golden file");
        eprintln!("regenerated {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with SCHEDULER_GOLDEN_WRITE=1",
            golden_path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "FIFO decision/trace bits drifted from {}; if intentional, \
         regenerate with SCHEDULER_GOLDEN_WRITE=1",
        golden_path.display()
    );
}
