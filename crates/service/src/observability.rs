//! Run-wide observability plumbing shared by the sequential engine and
//! the sharded engine.
//!
//! Three pieces, all built on `hetnet_obs` primitives:
//!
//! * [`ObsOptions`] — per-run knobs (span collection, telemetry
//!   cadence, flight-recorder sizing). All observability here is
//!   *measurement only*: no option changes a single admission decision
//!   (the sharded replay tests certify this bit-for-bit).
//! * [`EngineMetrics`] — the canonical `hetnet_*` metric families every
//!   engine registers into one shared
//!   [`MetricsRegistry`](hetnet_obs::MetricsRegistry), replacing the
//!   old pattern of threading `CacheGauges` / `FastPathGauges` structs
//!   through each layer by hand. One registry snapshot — reachable
//!   from any thread — now answers "how is this run doing".
//! * [`TelemetryFrame`] + [`Telemetry`] — periodic OpenMetrics-text
//!   snapshots of the registry, cut on simulated-time boundaries and
//!   retained in a bounded [`SharedRing`] so a live viewer
//!   (`hetnet-top` in the bench crate) can poll them while the run is
//!   still going.
//!
//! The span-timeline renderer ([`spans_to_json`]) is also here: it
//! wraps raw trace records in a `{phase, shard, ledger_version,
//! record}` envelope so a speculated-then-recomputed sharded admission
//! merges into one coherent causal trace.

use hetnet_cac::delay::CacheStats;
use hetnet_cac::error::CacError;
use hetnet_cac::incremental::FastPathStats;
use hetnet_obs::registry::{Counter, Gauge, Histogram};
use hetnet_obs::{MetricsRegistry, SharedRing, Trace};
use hetnet_traffic::units::Seconds;
use std::fmt::Write as _;
use std::sync::Arc;

/// Observability knobs of one run. Everything here is decision-neutral
/// by construction: the registry, flight recorder, and telemetry only
/// *read* engine state.
#[derive(Clone, Debug)]
pub struct ObsOptions {
    /// Collect span/event timelines around every admission (thread-
    /// local subscriber on whichever thread evaluates). Off by
    /// default: spans cost one ring-buffer write per instrumentation
    /// point.
    pub spans: bool,
    /// Ring capacity (records) of the per-decision span subscriber.
    pub span_capacity: usize,
    /// Cut an OpenMetrics registry snapshot every this many simulated
    /// seconds; `None` disables telemetry.
    pub telemetry_period: Option<Seconds>,
    /// How many telemetry frames the shared ring retains (oldest
    /// evicted first).
    pub telemetry_capacity: usize,
    /// How many outlier decisions the flight recorder retains.
    pub flight_capacity: usize,
    /// Decisions observed before latency-p99 outlier capture arms
    /// (conflict and class-transition capture are always armed).
    pub flight_min_samples: u64,
}

impl Default for ObsOptions {
    fn default() -> Self {
        Self {
            spans: false,
            span_capacity: 256,
            telemetry_period: None,
            telemetry_capacity: 256,
            flight_capacity: 32,
            flight_min_samples: 64,
        }
    }
}

/// One periodic registry snapshot, as cut by [`Telemetry`].
#[derive(Clone, Debug)]
pub struct TelemetryFrame {
    /// The simulated-time tick the frame was scheduled at, seconds.
    pub at: f64,
    /// OpenMetrics text rendering of the whole registry at that
    /// instant.
    pub text: String,
}

/// The canonical per-engine metric families. Registered once at engine
/// construction; every decision then costs a handful of relaxed
/// atomic adds.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    admitted: Counter,
    rejected: Counter,
    latency: Histogram,
    stage_hits: [Counter; 4],
    stage_misses: [Counter; 4],
    fast_accepts: Counter,
    fast_rejects: Counter,
    fast_fallbacks: Counter,
    fast_skips: Counter,
    active: Gauge,
    outliers: Counter,
}

/// Evaluator-cache stages, in the label order the registry exports.
const CACHE_STAGES: [&str; 4] = ["stage1", "mux", "receive", "screen"];

impl EngineMetrics {
    pub(crate) fn register(reg: &MetricsRegistry) -> Self {
        let decisions = |outcome| {
            reg.counter(
                "hetnet_decisions_total",
                "Admission decisions, by outcome.",
                &[("outcome", outcome)],
            )
        };
        let cache = |stage, result| {
            reg.counter(
                "hetnet_cache_lookups_total",
                "Evaluator cache lookups, by pipeline stage and result.",
                &[("stage", stage), ("result", result)],
            )
        };
        let fast = |outcome| {
            reg.counter(
                "hetnet_fast_path_probes_total",
                "Fast-path ladder probes, by outcome.",
                &[("outcome", outcome)],
            )
        };
        Self {
            admitted: decisions("admit"),
            rejected: decisions("reject"),
            latency: reg.histogram(
                "hetnet_decision_latency_seconds",
                "Wall-clock admission decision latency.",
                &[],
            ),
            stage_hits: CACHE_STAGES.map(|s| cache(s, "hit")),
            stage_misses: CACHE_STAGES.map(|s| cache(s, "miss")),
            fast_accepts: fast("accept"),
            fast_rejects: fast("reject"),
            fast_fallbacks: fast("fallback"),
            fast_skips: fast("skip"),
            active: reg.gauge(
                "hetnet_active_connections",
                "Connections currently admitted.",
                &[],
            ),
            outliers: reg.counter(
                "hetnet_flight_outliers_total",
                "Decisions captured by the flight recorder.",
                &[],
            ),
        }
    }

    /// Folds one committed decision into the registry.
    pub(crate) fn on_decision(
        &self,
        admitted: bool,
        latency_seconds: f64,
        cache: &CacheStats,
        fast: &FastPathStats,
    ) {
        if admitted {
            self.admitted.inc();
        } else {
            self.rejected.inc();
        }
        self.latency.observe(latency_seconds);
        let hits = [
            cache.stage1_hits,
            cache.mux_hits,
            cache.receive_hits,
            cache.screen_hits,
        ];
        let misses = [
            cache.stage1_misses,
            cache.mux_misses,
            cache.receive_misses,
            cache.screen_misses,
        ];
        for i in 0..CACHE_STAGES.len() {
            self.stage_hits[i].add(hits[i]);
            self.stage_misses[i].add(misses[i]);
        }
        self.fast_accepts.add(fast.fast_accepts);
        self.fast_rejects.add(fast.fast_rejects);
        self.fast_fallbacks.add(fast.fallbacks);
        self.fast_skips.add(fast.no_context);
    }

    pub(crate) fn set_active(&self, active: usize) {
        self.active.set(active as f64);
    }

    pub(crate) fn outlier_captured(&self) {
        self.outliers.inc();
    }
}

/// Periodic telemetry cutter: owns the cadence state and the shared
/// frame ring. `offer` is called from the engine's sampling hook with
/// the current simulated time; it emits one frame per elapsed period
/// boundary (frames are stamped with the *scheduled* tick, so frame
/// count is a pure function of the event stream, independent of how
/// bursty the events were).
#[derive(Debug)]
pub(crate) struct Telemetry {
    period: Option<f64>,
    next: f64,
    registry: Arc<MetricsRegistry>,
    ring: Arc<SharedRing<TelemetryFrame>>,
    frames: Counter,
}

impl Telemetry {
    pub(crate) fn new(
        opts: &ObsOptions,
        registry: Arc<MetricsRegistry>,
        ring: Arc<SharedRing<TelemetryFrame>>,
    ) -> Self {
        let frames = registry.counter(
            "hetnet_telemetry_frames_total",
            "Periodic OpenMetrics registry snapshots cut.",
            &[],
        );
        let period = opts
            .telemetry_period
            .map(Seconds::value)
            .filter(|p| *p > 0.0);
        Self {
            period,
            next: period.unwrap_or(0.0),
            registry,
            ring,
            frames,
        }
    }

    /// Cuts every frame scheduled at or before `at` (simulated
    /// seconds). The first frame lands at one full period, not at 0.
    pub(crate) fn offer(&mut self, at: f64) {
        let Some(period) = self.period else { return };
        while at >= self.next {
            self.ring.push(TelemetryFrame {
                at: self.next,
                text: self.registry.to_openmetrics(),
            });
            self.frames.inc();
            self.next += period;
        }
    }

    /// Cuts one final frame at `at` regardless of cadence, so a run's
    /// last telemetry state is always observable even for runs shorter
    /// than one period.
    pub(crate) fn finish(&mut self, at: f64) {
        if self.period.is_none() {
            return;
        }
        self.ring.push(TelemetryFrame {
            at,
            text: self.registry.to_openmetrics(),
        });
        self.frames.inc();
    }
}

/// Runs one decision, collecting its span timeline when `opts` asks
/// for spans and the collector is compiled in.
///
/// # Errors
///
/// Propagates the decision's error.
pub(crate) fn with_spans<T>(
    opts: &ObsOptions,
    decide: impl FnOnce() -> Result<T, CacError>,
) -> Result<(T, Option<Trace>), CacError> {
    if opts.spans && hetnet_obs::is_enabled() {
        let (decided, trace) = hetnet_obs::collect(opts.span_capacity, decide);
        Ok((decided?, Some(trace)))
    } else {
        Ok((decide()?, None))
    }
}

/// One phase of a decision's span timeline: a phase tag
/// (`"speculate"`, `"recompute"`, `"inline"`, or `"decide"` for the
/// sequential engine), the shard that ran it (if any), and the
/// collected trace.
pub(crate) type SpanPhase<'a> = (&'a str, Option<u32>, &'a Trace);

/// Renders a merged span timeline as one JSON array. Each record is
/// wrapped in an envelope carrying the phase tag, the shard id, and
/// the ledger version the decision speculated at, so a conflicted
/// sharded admission (worker speculation + committer recompute) reads
/// as one causal trace:
///
/// ```text
/// [{"phase":"speculate","shard":2,"ledger_version":17,"record":{...}},
///  {"phase":"recompute","shard":null,"ledger_version":17,"record":{...}}]
/// ```
pub(crate) fn spans_to_json(phases: &[SpanPhase<'_>], ledger_version: Option<u64>) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (phase, shard, trace) in phases {
        for record in trace.records() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"phase\":\"");
            out.push_str(phase);
            out.push_str("\",\"shard\":");
            match shard {
                Some(s) => {
                    let _ = write!(out, "{s}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"ledger_version\":");
            match ledger_version {
                Some(v) => {
                    let _ = write!(out, "{v}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"record\":");
            hetnet_obs::export::push_record_json(&mut out, record);
            out.push('}');
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_metrics_fold_decisions_into_the_registry() {
        let reg = Arc::new(MetricsRegistry::new());
        let mx = EngineMetrics::register(&reg);
        let cache = CacheStats {
            stage1_hits: 2,
            stage1_misses: 1,
            screen_hits: 3,
            ..CacheStats::default()
        };
        let fast = FastPathStats {
            fast_accepts: 1,
            ..FastPathStats::default()
        };
        mx.on_decision(true, 1e-4, &cache, &fast);
        mx.on_decision(
            false,
            2e-4,
            &CacheStats::default(),
            &FastPathStats::default(),
        );
        mx.set_active(5);
        let text = reg.to_openmetrics();
        assert!(text.contains("hetnet_decisions_total{outcome=\"admit\"} 1"));
        assert!(text.contains("hetnet_decisions_total{outcome=\"reject\"} 1"));
        assert!(text.contains("hetnet_cache_lookups_total{result=\"hit\",stage=\"stage1\"} 2"));
        assert!(text.contains("hetnet_cache_lookups_total{result=\"hit\",stage=\"screen\"} 3"));
        assert!(text.contains("hetnet_fast_path_probes_total{outcome=\"accept\"} 1"));
        assert!(text.contains("hetnet_active_connections 5"));
        assert!(text.contains("hetnet_decision_latency_seconds_count 2"));
    }

    #[test]
    fn telemetry_cuts_one_frame_per_period_boundary() {
        let reg = Arc::new(MetricsRegistry::new());
        let ring = Arc::new(SharedRing::new(8));
        let opts = ObsOptions {
            telemetry_period: Some(Seconds::new(10.0)),
            ..ObsOptions::default()
        };
        let mut tel = Telemetry::new(&opts, Arc::clone(&reg), Arc::clone(&ring));
        tel.offer(3.0); // before the first boundary: nothing
        assert_eq!(ring.len(), 0);
        tel.offer(25.0); // crosses 10 and 20
        assert_eq!(ring.len(), 2);
        tel.offer(25.5); // same period: nothing new
        assert_eq!(ring.len(), 2);
        tel.finish(26.0);
        let frames = ring.drain();
        assert_eq!(frames.len(), 3);
        assert!((frames[0].at - 10.0).abs() < 1e-12);
        assert!((frames[1].at - 20.0).abs() < 1e-12);
        assert!((frames[2].at - 26.0).abs() < 1e-12);
        assert!(frames[0].text.contains("hetnet_telemetry_frames_total 0"));
        assert!(frames[2].text.contains("hetnet_telemetry_frames_total 2"));
    }

    #[test]
    fn telemetry_disabled_emits_nothing() {
        let reg = Arc::new(MetricsRegistry::new());
        let ring = Arc::new(SharedRing::new(8));
        let mut tel = Telemetry::new(&ObsOptions::default(), Arc::clone(&reg), Arc::clone(&ring));
        tel.offer(1e9);
        tel.finish(1e9);
        assert!(ring.is_empty());
    }

    #[test]
    fn span_timelines_merge_phases_with_envelopes() {
        if !hetnet_obs::is_enabled() {
            return; // obs compiled without the trace feature
        }
        let ((), spec) = hetnet_obs::collect(16, || {
            hetnet_obs::event("probe", &[]);
        });
        let ((), recompute) = hetnet_obs::collect(16, || {
            let _g = hetnet_obs::span("admit");
        });
        let json = spans_to_json(
            &[
                ("speculate", Some(2), &spec),
                ("recompute", None, &recompute),
            ],
            Some(17),
        );
        assert!(json.starts_with('['));
        assert!(json.contains(
            "{\"phase\":\"speculate\",\"shard\":2,\"ledger_version\":17,\"record\":{\"seq\":0"
        ));
        assert!(json.contains("\"phase\":\"recompute\",\"shard\":null,\"ledger_version\":17"));
        assert_eq!(json.matches("\"record\":").count(), 3); // 1 event + span start/end
        assert!(json.ends_with(']'));
    }

    #[test]
    fn empty_span_timeline_renders_an_empty_array() {
        assert_eq!(spans_to_json(&[], None), "[]");
    }
}
