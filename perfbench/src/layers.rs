//! Per-layer accounting from the spans the program already emits, plus
//! the table of every metric the benchmark reports.
//!
//! The traced run installs the `hetnet_obs` collector around chunks of
//! calls and folds each chunk's records here. The only span the
//! benchmark adds is [`STEP`], around each call it makes into the
//! program, so that time no program span covers can be measured.

use hetnet_obs::{RecordKind, Trace};
use std::collections::BTreeMap;

/// The benchmark's own span around one call into the program.
pub const STEP: &str = "bench.step";

/// Collector ring capacity per chunk; a chunk that overflows it is a
/// failed traced run (dropped records would bias every count).
pub const CHUNK_CAPACITY: usize = 1 << 20;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("decisions_per_s", "1/s"),
    ("decision_p50_us", "us"),
    ("decision_tail_us", "us"),
    ("admission_probability", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`. A
/// metric whose layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("cac.admit.calls", "count"),
    ("cac.admit.ms", "ms"),
    ("cac.admit.self_ms", "ms"),
    ("delay.evaluate.full.calls", "count"),
    ("delay.evaluate.full.ms", "ms"),
    ("delay.evaluate.screened.calls", "count"),
    ("delay.evaluate.screened.ms", "ms"),
    ("delay.evaluate.candidate.calls", "count"),
    ("delay.evaluate.candidate.ms", "ms"),
    ("delay.stage1.misses", "count"),
    ("delay.stage1.hit_ratio", "ratio"),
    ("delay.mux.misses", "count"),
    ("delay.mux.hit_ratio", "ratio"),
    ("delay.receive.misses", "count"),
    ("delay.receive.hit_ratio", "ratio"),
    ("incremental.probes", "count"),
    ("incremental.fast_accepts", "count"),
    ("incremental.fast_rejects", "count"),
    ("incremental.fallbacks", "count"),
    ("incremental.hit_ratio", "ratio"),
    ("incremental.fallback.mux-saturated", "count"),
    ("incremental.fallback.mux-horizon", "count"),
    ("incremental.fallback.mux-window", "count"),
    ("incremental.fallback.receive-saturated", "count"),
    ("incremental.fallback.receive-horizon", "count"),
    ("incremental.fallback.receive-buffer", "count"),
    ("incremental.fallback.ambiguous", "count"),
    ("reconfig.calls", "count"),
    ("reconfig.ms", "ms"),
    ("reconfig.renegotiated", "count"),
    ("reconfig.dropped", "count"),
    ("faults.teardowns", "count"),
    ("faults.dropped", "count"),
    ("readmit.attempts", "count"),
    ("readmit.admitted", "count"),
    ("shard.speculated", "count"),
    ("shard.conflicts", "count"),
    ("shard.conflict_ratio", "ratio"),
    ("shard.inline", "count"),
    ("shard.closure_mean", "rings"),
    ("shard.closure_peak", "rings"),
    ("shard.screen.hit_ratio", "ratio"),
    ("shard.speculate_ms", "ms"),
    ("shard.recompute_ms", "ms"),
    ("shard.inline_ms", "ms"),
    ("engine.events_per_step", "count"),
    ("engine.unspanned_ms", "ms"),
    ("churn.generate_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.records", "count"),
    ("trace.dropped", "count"),
];

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Everything folded out of the traced run's records.
#[derive(Debug, Default)]
pub struct TraceFold {
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Time inside [`STEP`] spans that no program span covers.
    pub unspanned_ns: u64,
    pub records: u64,
    pub dropped: u64,
}

impl TraceFold {
    /// Folds one chunk. Chunks start and end between calls, so every
    /// span opens and closes inside one chunk.
    pub fn absorb(&mut self, trace: &Trace) {
        self.records += trace.records().len() as u64;
        self.dropped += trace.dropped();
        // Open spans: (id, name, start, time covered by children).
        let mut open: Vec<(u64, &'static str, u64, u64)> = Vec::new();
        for r in trace.records() {
            match r.kind {
                RecordKind::SpanStart => open.push((r.span, r.name, r.at_nanos, 0)),
                RecordKind::SpanEnd => {
                    let Some(pos) = open.iter().rposition(|s| s.0 == r.span) else {
                        continue;
                    };
                    let (_, name, start, child) = open[pos];
                    open.truncate(pos);
                    let dur = r.at_nanos.saturating_sub(start);
                    let t = self.spans.entry(name).or_default();
                    t.calls += 1;
                    t.ns += dur;
                    t.self_ns += dur.saturating_sub(child);
                    if let Some(parent) = open.last_mut() {
                        parent.3 += dur;
                    }
                    if name == STEP {
                        self.unspanned_ns += dur.saturating_sub(child);
                    }
                }
                RecordKind::Event => {}
            }
        }
    }

    pub fn span(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Writes the span-derived metrics into `out`.
    pub fn emit(&self, out: &mut BTreeMap<String, f64>) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let admit = self.span("admit");
        set(out, "cac.admit.calls", admit.calls as f64);
        set(out, "cac.admit.ms", ms(admit.ns));
        set(out, "cac.admit.self_ms", ms(admit.self_ns));
        for kind in ["full", "screened", "candidate"] {
            let t = self.span(match kind {
                "full" => "evaluate_full",
                "screened" => "evaluate_screened",
                _ => "evaluate_candidate",
            });
            set(out, &format!("delay.evaluate.{kind}.calls"), t.calls as f64);
            set(out, &format!("delay.evaluate.{kind}.ms"), ms(t.ns));
        }
        let reconfig = self.span("reconfigure");
        set(out, "reconfig.calls", reconfig.calls as f64);
        set(out, "reconfig.ms", ms(reconfig.ns));
        set(out, "engine.unspanned_ms", ms(self.unspanned_ns));
        set(out, "trace.records", self.records as f64);
        set(out, "trace.dropped", self.dropped as f64);
    }
}

/// Inserts a per-layer value; the name must be in [`PER_LAYER`].
pub fn set(out: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    debug_assert!(
        PER_LAYER.iter().any(|(n, _)| *n == name),
        "unknown per-layer metric {name}"
    );
    out.insert(name.to_string(), value);
}

/// `hits / (hits + misses)`, or 0 with no lookups.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_unspanned_remainder() {
        let ((), trace) = hetnet_obs::collect(64, || {
            let _step = hetnet_obs::span(STEP);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _admit = hetnet_obs::span("admit");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _eval = hetnet_obs::span("evaluate_full");
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let mut fold = TraceFold::default();
        fold.absorb(&trace);
        let step = fold.span(STEP);
        let admit = fold.span("admit");
        let eval = fold.span("evaluate_full");
        assert_eq!((step.calls, admit.calls, eval.calls), (1, 1, 1));
        assert_eq!(admit.self_ns, admit.ns - eval.ns);
        assert_eq!(fold.unspanned_ns, step.ns - admit.ns);
        assert!(fold.unspanned_ns >= 2_000_000);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }
}
