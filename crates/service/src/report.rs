//! The aggregate result of a service run, and its JSON rendering.

use crate::metrics::{
    BindingCounters, CacheGauges, DecisionCounters, DelayAttribution, FastPathGauges,
    LatencyHistogram, ReconfigMetrics, RecoveryMetrics,
};
use hetnet_obs::export::push_json_str;
use hetnet_traffic::units::Seconds;
use serde::Serialize;
use std::fmt::Write as _;

/// Fixed latency percentiles extracted from the per-request histogram.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LatencySummary {
    /// Number of recorded requests.
    pub count: u64,
    /// Median decision latency.
    pub p50: Seconds,
    /// 95th-percentile decision latency.
    pub p95: Seconds,
    /// 99th-percentile decision latency.
    pub p99: Seconds,
    /// Exact mean.
    pub mean: Seconds,
    /// Exact maximum.
    pub max: Seconds,
}

impl LatencySummary {
    /// Summarizes a histogram.
    #[must_use]
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        let (p50, p95, p99) = h.percentiles();
        Self {
            count: h.count(),
            p50,
            p95,
            p99,
            mean: h.mean(),
            max: h.max(),
        }
    }
}

/// Percentile summaries of the per-server-stage delay histograms, plus
/// the binding-constraint counters — the report-level view of a run's
/// [`DelayAttribution`]. All counts are zero when decision tracing was
/// disabled for the run.
#[derive(Clone, Debug, Serialize)]
pub struct StageDelaySummary {
    /// Decisions that carried a trace.
    pub traced: u64,
    /// Rejections whose trace named a binding constraint.
    pub rejects_with_binding: u64,
    /// Which constraint bound, per rejection.
    pub bindings: BindingCounters,
    /// Source-ring FDDI MAC delay of each candidate path.
    pub fddi_s: LatencySummary,
    /// Sender-side interface-device delay.
    pub id_s: LatencySummary,
    /// ATM backbone delay.
    pub atm: LatencySummary,
    /// Receiver-side interface-device delay.
    pub id_r: LatencySummary,
    /// Destination-ring FDDI MAC delay.
    pub fddi_r: LatencySummary,
    /// End-to-end worst-case delay.
    pub total: LatencySummary,
    /// Deadline slack of admitted candidates.
    pub slack: LatencySummary,
}

impl StageDelaySummary {
    /// Summarizes a run's accumulated attribution.
    #[must_use]
    pub fn from_attribution(a: &DelayAttribution) -> Self {
        Self {
            traced: a.traced,
            rejects_with_binding: a.rejects_with_binding,
            bindings: a.bindings,
            fddi_s: LatencySummary::from_histogram(&a.fddi_s),
            id_s: LatencySummary::from_histogram(&a.id_s),
            atm: LatencySummary::from_histogram(&a.atm),
            id_r: LatencySummary::from_histogram(&a.id_r),
            fddi_r: LatencySummary::from_histogram(&a.fddi_r),
            total: LatencySummary::from_histogram(&a.total),
            slack: LatencySummary::from_histogram(&a.slack),
        }
    }

    /// `(name, summary)` pairs in eq.-7 path order, then total + slack.
    fn sections(&self) -> [(&'static str, &LatencySummary); 7] {
        [
            ("fddi_s", &self.fddi_s),
            ("id_s", &self.id_s),
            ("atm", &self.atm),
            ("id_r", &self.id_r),
            ("fddi_r", &self.fddi_r),
            ("total", &self.total),
            ("slack", &self.slack),
        ]
    }
}

/// Aggregate metrics of one churn run.
#[derive(Clone, Debug, Serialize)]
pub struct ServiceReport {
    /// Requests decided.
    pub requests: u64,
    /// Admitted/rejected counters by reason class.
    pub counters: DecisionCounters,
    /// Per-request decision-latency summary.
    pub latency: LatencySummary,
    /// Evaluator-cache gauges accumulated over the run.
    pub cache: CacheGauges,
    /// Probe counters of the deleted decision ladder: always zero, and
    /// kept only for the benchmark's `incremental.*` rows until a
    /// benchmark change drops them. Not rendered in the JSON report.
    pub fast_path: FastPathGauges,
    /// Fraction of requests rejected.
    pub blocking_probability: f64,
    /// Decision throughput against the wall clock.
    pub requests_per_sec: f64,
    /// Wall-clock duration of the run.
    pub wall_seconds: f64,
    /// Event-stream time span (first to last arrival).
    pub span: Seconds,
    /// Largest concurrent active-connection count observed.
    pub peak_active: usize,
    /// Connections still active after the last arrival.
    pub final_active: usize,
    /// Per-ring `(mean, peak)` utilization over the sampled series.
    pub ring_utilization: Vec<(f64, f64)>,
    /// Entries in the decision audit log (== `requests`).
    pub audit_len: usize,
    /// Compact label of the topology the run drove.
    pub topology: String,
    /// Delay-budget attribution from decision traces (all-zero counts
    /// when tracing was disabled).
    pub delay_attribution: StageDelaySummary,
    /// Fault-injection and recovery accounting (all-zero when the run
    /// had no fault schedule).
    pub recovery: RecoveryMetrics,
    /// Live-reconfiguration accounting (all-zero when the run had no
    /// reconfiguration schedule).
    pub reconfig: ReconfigMetrics,
    /// Per-shard evaluator-cache gauges (one per worker, in worker
    /// order, then one final entry for committer-inline decisions).
    /// Empty for the sequential engine.
    pub shard_cache: Vec<CacheGauges>,
    /// The flight recorder's JSON rendering (`{"seen":...}`); see
    /// [`hetnet_obs::FlightRecorder::to_json`].
    pub flight_recorder: String,
}

impl ServiceReport {
    /// Renders the report as one JSON object (hand-written — the
    /// workspace serde is an offline no-op shim).
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let l = &self.latency;
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"requests\":{},\"admitted\":{},\"rejected\":{},\
             \"rejected_by_reason\":{{\"source_exhausted\":{},\"dest_exhausted\":{},\
             \"infeasible\":{},\"component_down\":{},\"other\":{}}},",
            self.requests,
            c.admitted,
            c.rejected(),
            c.rejected_source_exhausted,
            c.rejected_dest_exhausted,
            c.rejected_infeasible,
            c.rejected_component_down,
            c.rejected_other,
        );
        let _ = write!(
            out,
            "\"blocking_probability\":{:.6},\"requests_per_sec\":{:.3},\
             \"wall_seconds\":{:.6},\"span_seconds\":{:.3},",
            self.blocking_probability,
            self.requests_per_sec,
            self.wall_seconds,
            self.span.value(),
        );
        let _ = write!(
            out,
            "\"latency\":{{\"count\":{},\"p50_us\":{:.3},\"p95_us\":{:.3},\
             \"p99_us\":{:.3},\"mean_us\":{:.3},\"max_us\":{:.3}}},",
            l.count,
            l.p50.value() * 1e6,
            l.p95.value() * 1e6,
            l.p99.value() * 1e6,
            l.mean.value() * 1e6,
            l.max.value() * 1e6,
        );
        let _ = write!(
            out,
            "\"cache\":{{\"evals\":{},\"hit_rate\":{:.6},\
             \"screen_hits\":{},\"screen_misses\":{}}},",
            self.cache.evals(),
            self.cache.hit_rate(),
            self.cache.screen_hits,
            self.cache.screen_misses,
        );
        out.push_str("\"shard_cache\":[");
        for (i, g) in self.shard_cache.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_cache_json(&mut out, g);
        }
        out.push_str("],");
        let _ = write!(
            out,
            "\"peak_active\":{},\"final_active\":{},\"audit_len\":{},",
            self.peak_active, self.final_active, self.audit_len,
        );
        out.push_str("\"ring_utilization\":[");
        for (i, (mean, peak)) in self.ring_utilization.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"mean\":{mean:.6},\"peak\":{peak:.6}}}");
        }
        out.push_str("],");
        out.push_str("\"topology\":");
        push_json_str(&mut out, &self.topology);
        let d = &self.delay_attribution;
        let b = &d.bindings;
        let _ = write!(
            out,
            ",\"delay_attribution\":{{\"traced\":{},\"rejects_with_binding\":{},\
             \"bindings\":{{\"source_bandwidth\":{},\"dest_bandwidth\":{},\
             \"deadline\":{},\"unstable\":{},\"component_down\":{},\"other\":{}}},\
             \"stages\":{{",
            d.traced,
            d.rejects_with_binding,
            b.source_bandwidth,
            b.dest_bandwidth,
            b.deadline,
            b.unstable,
            b.component_down,
            b.other,
        );
        for (i, (name, s)) in d.sections().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_stage_json(&mut out, name, s);
        }
        out.push_str("}},");
        let r = &self.recovery;
        let _ = write!(
            out,
            "\"recovery\":{{\"faults_injected\":{},\"components_downed\":{},\
             \"components_restored\":{},\"connections_dropped\":{},\
             \"reclaimed_s\":{:.12e},\"reclaimed_r\":{:.12e},\
             \"readmit_attempts\":{},\"readmitted\":{},\"expired_in_park\":{},\
             \"max_time_to_drain_s\":{:.6},\"undrained\":{}}}",
            r.faults_injected,
            r.components_downed,
            r.components_restored,
            r.connections_dropped,
            r.reclaimed_s,
            r.reclaimed_r,
            r.readmit_attempts,
            r.readmitted,
            r.expired_in_park,
            r.max_time_to_drain,
            r.undrained,
        );
        let rc = &self.reconfig;
        let _ = write!(
            out,
            ",\"reconfig\":{{\"reconfigs\":{},\"renegotiated\":{},\
             \"unchanged\":{},\"dropped\":{},\
             \"reclaimed_s\":{:.12e},\"reclaimed_r\":{:.12e}}}",
            rc.reconfigs, rc.renegotiated, rc.unchanged, rc.dropped, rc.reclaimed_s, rc.reclaimed_r,
        );
        out.push_str(",\"flight_recorder\":");
        if self.flight_recorder.is_empty() {
            out.push_str("null");
        } else {
            out.push_str(&self.flight_recorder);
        }
        out.push('}');
        out
    }
}

/// One cache-gauge set as a JSON object (used for the per-shard list).
fn push_cache_json(out: &mut String, g: &CacheGauges) {
    let _ = write!(
        out,
        "{{\"stage1_hits\":{},\"stage1_misses\":{},\"mux_hits\":{},\
         \"mux_misses\":{},\"receive_hits\":{},\"receive_misses\":{},\
         \"screen_hits\":{},\"screen_misses\":{},\
         \"evals\":{},\"hit_rate\":{:.6}}}",
        g.stage1_hits,
        g.stage1_misses,
        g.mux_hits,
        g.mux_misses,
        g.receive_hits,
        g.receive_misses,
        g.screen_hits,
        g.screen_misses,
        g.evals(),
        g.hit_rate(),
    );
}

/// One stage summary as `"name":{...}`, in milliseconds (worst-case
/// path delays live in the 1–100 ms range of the paper's deadlines).
fn push_stage_json(out: &mut String, name: &str, s: &LatencySummary) {
    let _ = write!(
        out,
        "\"{name}\":{{\"count\":{},\"p50_ms\":{:.6},\"p95_ms\":{:.6},\
         \"p99_ms\":{:.6},\"mean_ms\":{:.6},\"max_ms\":{:.6}}}",
        s.count,
        s.p50.value() * 1e3,
        s.p95.value() * 1e3,
        s.p99.value() * 1e3,
        s.mean.value() * 1e3,
        s.max.value() * 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_valid_shaped_json() {
        use hetnet_cac::delay::CacheStats;
        use hetnet_cac::trace::{BindingConstraint, DecisionTrace, ServerStage};

        let mut h = LatencyHistogram::new();
        h.record(Seconds::new(2e-5));
        h.record(Seconds::new(4e-5));
        // One traced rejection with a deadline binding but no evaluated
        // paths (stage histograms stay empty).
        let mut attribution = DelayAttribution::default();
        attribution.absorb(&DecisionTrace {
            seq: 1,
            at: Seconds::new(1.0),
            admitted: false,
            scheduler: "fifo".into(),
            allocation: None,
            connections: vec![],
            binding: Some(BindingConstraint::DeadlineExceeded {
                connection: None,
                stage: ServerStage::Atm,
                delay: Seconds::from_millis(94.0),
                deadline: Seconds::from_millis(60.0),
                excess: Seconds::from_millis(34.0),
            }),
            cache: CacheStats::default(),
        });
        let report = ServiceReport {
            requests: 2,
            counters: DecisionCounters {
                admitted: 1,
                rejected_infeasible: 1,
                ..Default::default()
            },
            latency: LatencySummary::from_histogram(&h),
            cache: CacheGauges {
                stage1_hits: 2,
                stage1_misses: 2,
                mux_hits: 0,
                mux_misses: 0,
                receive_hits: 1,
                receive_misses: 1,
                screen_hits: 3,
                screen_misses: 1,
            },
            fast_path: FastPathGauges::default(),
            blocking_probability: 0.5,
            requests_per_sec: 1000.0,
            wall_seconds: 0.002,
            span: Seconds::new(1.5),
            peak_active: 1,
            final_active: 1,
            ring_utilization: vec![(0.25, 0.5), (0.0, 0.0)],
            audit_len: 2,
            topology: "3 rings x 4 hosts, 3 switches, 6 links".into(),
            delay_attribution: StageDelaySummary::from_attribution(&attribution),
            recovery: RecoveryMetrics {
                faults_injected: 3,
                components_downed: 1,
                components_restored: 1,
                connections_dropped: 2,
                reclaimed_s: 1.5e-4,
                reclaimed_r: 2.5e-4,
                readmit_attempts: 2,
                readmitted: 1,
                expired_in_park: 0,
                max_time_to_drain: 12.5,
                undrained: 0,
            },
            reconfig: ReconfigMetrics {
                reconfigs: 1,
                renegotiated: 3,
                unchanged: 1,
                dropped: 1,
                reclaimed_s: 2.0e-4,
                reclaimed_r: 1.0e-4,
            },
            shard_cache: vec![
                CacheGauges {
                    stage1_hits: 1,
                    stage1_misses: 1,
                    ..CacheGauges::default()
                },
                CacheGauges::default(),
            ],
            flight_recorder: "{\"seen\":2,\"captured\":1,\"retained\":1,\"evicted\":0,\
                              \"threshold_us\":40.000,\"by_cause\":{\"latency_p99\":1,\
                              \"conflict_recompute\":0,\"class_transition\":0,\"reconfig\":0},\
                              \"outliers\":[]}"
                .into(),
        };
        let j = report.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for needle in [
            "\"requests\":2",
            "\"admitted\":1",
            "\"rejected\":1",
            "\"infeasible\":1",
            "\"component_down\":0",
            "\"blocking_probability\":0.5",
            "\"p99_us\":",
            "\"evals\":3",
            "\"screen_hits\":3,\"screen_misses\":1",
            "\"shard_cache\":[{\"stage1_hits\":1,\"stage1_misses\":1,",
            "\"flight_recorder\":{\"seen\":2,",
            "\"ring_utilization\":[{\"mean\":0.25",
            "\"topology\":\"3 rings x 4 hosts, 3 switches, 6 links\"",
            "\"delay_attribution\":{\"traced\":1,\"rejects_with_binding\":1,",
            "\"bindings\":{\"source_bandwidth\":0,\"dest_bandwidth\":0,\"deadline\":1,",
            "\"stages\":{\"fddi_s\":{\"count\":0,",
            "\"atm\":{\"count\":0,",
            "\"slack\":{\"count\":0,",
            "\"recovery\":{\"faults_injected\":3,",
            "\"max_time_to_drain_s\":12.500000",
            "\"undrained\":0",
            "\"reconfig\":{\"reconfigs\":1,\"renegotiated\":3,\"unchanged\":1,\"dropped\":1,",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
        // Balanced braces / brackets — cheap structural sanity.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
