//! Structured metrics of the admission service: decision counters,
//! per-request latency histograms, evaluator cache gauges, and a
//! ring-utilization time series.
//!
//! Everything here is dependency-free on purpose: the histogram is a
//! fixed-bucket, HDR-style geometric histogram (constant-time record,
//! bounded relative quantile error) whose bucket layout now lives in
//! [`hetnet_obs::hist`] so the shared metrics registry and this crate
//! agree on one geometry.

use hetnet_cac::cac::RejectReason;
use hetnet_cac::delay::CacheStats;
use hetnet_cac::incremental::FastPathStats;
use hetnet_cac::trace::{BindingConstraint, DecisionTrace, ServerStage};
use hetnet_obs::GeometricHistogram;
use hetnet_traffic::units::Seconds;
use serde::Serialize;

/// Fixed-bucket geometric latency histogram: a [`Seconds`]-typed
/// facade over [`hetnet_obs::GeometricHistogram`] (which this type's
/// bucket layout was promoted into).
///
/// Bucket `i` (for `i ≥ 1`) covers latencies in
/// `(FLOOR · 2^((i−1)/4), FLOOR · 2^(i/4)]`; bucket 0 covers
/// `[0, FLOOR]`, and one final bucket absorbs overflow. Quantiles
/// report the *upper bound* of the bucket holding the requested rank,
/// so they never under-estimate.
#[derive(Clone, Debug, Default, Serialize)]
pub struct LatencyHistogram {
    hist: GeometricHistogram,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation (negative values clamp to 0).
    pub fn record(&mut self, latency: Seconds) {
        self.hist.record(latency.value());
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Exact arithmetic mean of the recorded values (not bucketized).
    #[must_use]
    pub fn mean(&self) -> Seconds {
        Seconds::new(self.hist.mean())
    }

    /// Exact maximum recorded value.
    #[must_use]
    pub fn max(&self) -> Seconds {
        Seconds::new(self.hist.max())
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper bound of the bucket
    /// containing the rank-`⌈q·n⌉` observation; `Seconds::ZERO` when
    /// empty, the exact max for ranks falling in the overflow bucket.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Seconds {
        Seconds::new(self.hist.quantile(q))
    }

    /// p50 / p95 / p99 in one call.
    #[must_use]
    pub fn percentiles(&self) -> (Seconds, Seconds, Seconds) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

/// Admission-decision counters, split by [`RejectReason`] class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct DecisionCounters {
    /// Requests admitted.
    pub admitted: u64,
    /// Rejected: source ring out of synchronous bandwidth.
    pub rejected_source_exhausted: u64,
    /// Rejected: destination ring out of synchronous bandwidth.
    pub rejected_dest_exhausted: u64,
    /// Rejected: infeasible even at the maximum allocation.
    pub rejected_infeasible: u64,
    /// Rejected: a component on the request's path is down.
    pub rejected_component_down: u64,
    /// Rejected for a reason class this build does not know
    /// (`RejectReason` is `#[non_exhaustive]`).
    pub rejected_other: u64,
}

impl DecisionCounters {
    /// Total rejections across all classes.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected_source_exhausted
            + self.rejected_dest_exhausted
            + self.rejected_infeasible
            + self.rejected_component_down
            + self.rejected_other
    }

    /// Total decisions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.admitted + self.rejected()
    }

    /// Fraction of requests rejected (connection blocking probability).
    #[must_use]
    pub fn blocking_probability(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.rejected() as f64 / self.total() as f64
        }
    }

    /// Tallies one rejection.
    pub fn count_rejection(&mut self, reason: &RejectReason) {
        match reason {
            RejectReason::SourceBandwidthExhausted { .. } => self.rejected_source_exhausted += 1,
            RejectReason::DestBandwidthExhausted { .. } => self.rejected_dest_exhausted += 1,
            RejectReason::InfeasibleAtMaximum { .. } => self.rejected_infeasible += 1,
            RejectReason::ComponentUnavailable { .. } => self.rejected_component_down += 1,
            // `RejectReason` is non_exhaustive: future classes land here.
            _ => self.rejected_other += 1,
        }
    }
}

/// Evaluator-cache gauges accumulated across every decision of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CacheGauges {
    /// Stage-1 (sender-side) analyses served from cache.
    pub stage1_hits: u64,
    /// Stage-1 analyses computed.
    pub stage1_misses: u64,
    /// Stage-2 (multiplexer) analyses served from cache.
    pub mux_hits: u64,
    /// Stage-2 analyses computed.
    pub mux_misses: u64,
    /// Stage-3 (receiver-side) analyses served from cache.
    pub receive_hits: u64,
    /// Stage-3 analyses computed.
    pub receive_misses: u64,
    /// Existing-path deadline checks certified by a screening bound
    /// (no receive analysis ran at all). Tracked separately from
    /// [`Self::hit_rate`]: a screen hit avoids the lookup entirely
    /// rather than serving it from cache.
    pub screen_hits: u64,
    /// Screened checks that fell through to a dense receive analysis.
    pub screen_misses: u64,
}

impl CacheGauges {
    /// Adds one decision's evaluator stats.
    pub fn absorb(&mut self, stats: CacheStats) {
        self.stage1_hits += stats.stage1_hits;
        self.stage1_misses += stats.stage1_misses;
        self.mux_hits += stats.mux_hits;
        self.mux_misses += stats.mux_misses;
        self.receive_hits += stats.receive_hits;
        self.receive_misses += stats.receive_misses;
        self.screen_hits += stats.screen_hits;
        self.screen_misses += stats.screen_misses;
    }

    /// Adds another gauge set (used to sum per-shard gauges).
    pub fn merge(&mut self, other: &Self) {
        self.stage1_hits += other.stage1_hits;
        self.stage1_misses += other.stage1_misses;
        self.mux_hits += other.mux_hits;
        self.mux_misses += other.mux_misses;
        self.receive_hits += other.receive_hits;
        self.receive_misses += other.receive_misses;
        self.screen_hits += other.screen_hits;
        self.screen_misses += other.screen_misses;
    }

    /// Total delay-analysis evaluations actually computed (the paper's
    /// dominant cost): cache misses at all three stages.
    #[must_use]
    pub fn evals(&self) -> u64 {
        self.stage1_misses + self.mux_misses + self.receive_misses
    }

    /// Overall hit rate across all stages, 0 with no lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.stage1_hits + self.mux_hits + self.receive_hits;
        let total = hits + self.evals();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Probe counters of the deleted decision ladder, summed over a run:
/// always zero, and kept only for the benchmark's `incremental.*` rows
/// until a benchmark change drops them.
pub type FastPathGauges = FastPathStats;

/// Rejection counters keyed by the *binding constraint* of the
/// decision trace — the single check that failed — rather than the
/// coarser [`RejectReason`] class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct BindingCounters {
    /// Source ring out of synchronous bandwidth.
    pub source_bandwidth: u64,
    /// Destination ring out of synchronous bandwidth.
    pub dest_bandwidth: u64,
    /// A connection's worst-case delay exceeded its deadline.
    pub deadline: u64,
    /// A server along some path cannot keep up (unbounded delay).
    pub unstable: u64,
    /// A component on the request's path is down.
    pub component_down: u64,
    /// A constraint class this build does not know
    /// (`BindingConstraint` is `#[non_exhaustive]`).
    pub other: u64,
}

impl BindingCounters {
    /// Tallies one binding constraint.
    pub fn count(&mut self, binding: &BindingConstraint) {
        match binding {
            BindingConstraint::SourceBandwidth { .. } => self.source_bandwidth += 1,
            BindingConstraint::DestBandwidth { .. } => self.dest_bandwidth += 1,
            BindingConstraint::DeadlineExceeded { .. } => self.deadline += 1,
            BindingConstraint::ServerUnstable { .. } => self.unstable += 1,
            BindingConstraint::ComponentDown { .. } => self.component_down += 1,
            _ => self.other += 1,
        }
    }

    /// Total bindings tallied.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.source_bandwidth
            + self.dest_bandwidth
            + self.deadline
            + self.unstable
            + self.component_down
            + self.other
    }
}

/// Fault-recovery counters of one service run: what the fault schedule
/// did to the network and how the engine drained it. All zero for a
/// run without fault injection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct RecoveryMetrics {
    /// Fault events applied (downs + ups + deadline shrinks).
    pub faults_injected: u64,
    /// Components newly taken down (idempotent re-downs not counted).
    pub components_downed: u64,
    /// Components restored from a down state.
    pub components_restored: u64,
    /// Connections torn down by failures and deadline shrinks.
    pub connections_dropped: u64,
    /// Source-ring synchronous time reclaimed from drops, s/rotation.
    pub reclaimed_s: f64,
    /// Destination-ring synchronous time reclaimed from drops,
    /// s/rotation.
    pub reclaimed_r: f64,
    /// Re-admission attempts for dropped connections.
    pub readmit_attempts: u64,
    /// Dropped connections successfully re-admitted.
    pub readmitted: u64,
    /// Parked connections whose holding time expired before a
    /// re-admission window opened.
    pub expired_in_park: u64,
    /// Longest down-to-restored interval of any component, seconds.
    pub max_time_to_drain: f64,
    /// Components still down when the run ended (0 when every fault
    /// drained, which the generated schedules guarantee).
    pub undrained: u64,
}

/// Live-reconfiguration counters of one service run: what the
/// reconfiguration schedule did to the admitted set, summed over every
/// applied [`hetnet_cac::reconfig::ReconfigReport`]. All zero for a
/// run without reconfigurations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct ReconfigMetrics {
    /// Reconfiguration events applied.
    pub reconfigs: u64,
    /// Connections re-admitted at a bit-different allocation.
    pub renegotiated: u64,
    /// Connections re-admitted at a bit-identical allocation.
    pub unchanged: u64,
    /// Connections dropped (parked for greedy re-admission).
    pub dropped: u64,
    /// Source-ring synchronous time reclaimed from drops, s/rotation.
    pub reclaimed_s: f64,
    /// Destination-ring synchronous time reclaimed from drops,
    /// s/rotation.
    pub reclaimed_r: f64,
}

impl ReconfigMetrics {
    /// Folds one applied reconfiguration report in.
    pub fn absorb(&mut self, report: &hetnet_cac::reconfig::ReconfigReport) {
        self.reconfigs += 1;
        self.renegotiated += report.renegotiated.len() as u64;
        self.unchanged += report.unchanged.len() as u64;
        self.dropped += report.dropped.len() as u64;
        self.reclaimed_s += report.reclaimed_s.value();
        self.reclaimed_r += report.reclaimed_r.value();
    }
}

/// Delay-budget attribution accumulated from [`DecisionTrace`]s: one
/// histogram per server stage of the paper's eq. 7 decomposition, plus
/// end-to-end totals, deadline slack of admitted connections, and
/// binding-constraint counters for rejections.
///
/// Empty (all counts zero) when decision tracing is disabled.
#[derive(Clone, Debug, Default, Serialize)]
pub struct DelayAttribution {
    /// Decisions that carried a trace.
    pub traced: u64,
    /// Rejections whose trace named a binding constraint.
    pub rejects_with_binding: u64,
    /// Which constraint bound, per rejection.
    pub bindings: BindingCounters,
    /// Source-ring FDDI MAC worst-case delay of each candidate.
    pub fddi_s: LatencyHistogram,
    /// Sender-side interface-device delay.
    pub id_s: LatencyHistogram,
    /// ATM backbone delay.
    pub atm: LatencyHistogram,
    /// Receiver-side interface-device delay.
    pub id_r: LatencyHistogram,
    /// Destination-ring FDDI MAC delay.
    pub fddi_r: LatencyHistogram,
    /// End-to-end worst-case delay (sum of the five stages).
    pub total: LatencyHistogram,
    /// Deadline slack of *admitted* candidates.
    pub slack: LatencyHistogram,
}

impl DelayAttribution {
    /// The histogram tracking one server stage.
    pub fn stage_mut(&mut self, stage: ServerStage) -> &mut LatencyHistogram {
        match stage {
            ServerStage::FddiS => &mut self.fddi_s,
            ServerStage::IdS => &mut self.id_s,
            ServerStage::Atm => &mut self.atm,
            ServerStage::IdR => &mut self.id_r,
            ServerStage::FddiR => &mut self.fddi_r,
        }
    }

    /// Folds one decision's trace into the attribution.
    pub fn absorb(&mut self, trace: &DecisionTrace) {
        self.traced += 1;
        if let Some(c) = trace.candidate() {
            for stage in ServerStage::ALL {
                self.stage_mut(stage).record(stage.of(&c.report));
            }
            self.total.record(c.report.total);
            if trace.admitted {
                self.slack.record(c.slack);
            }
        }
        if !trace.admitted {
            if let Some(binding) = &trace.binding {
                self.rejects_with_binding += 1;
                self.bindings.count(binding);
            }
        }
    }
}

/// One sample of per-ring synchronous-bandwidth utilization.
#[derive(Clone, Debug, Serialize)]
pub struct UtilizationSample {
    /// Event-stream time of the sample.
    pub at: Seconds,
    /// Active connections at the sample instant.
    pub active: usize,
    /// Utilization (allocated / allocatable synchronous time) per ring.
    pub rings: Vec<f64>,
}

/// Append-only ring-utilization time series, sampled every `period`
/// processed events.
#[derive(Clone, Debug, Serialize)]
pub struct UtilizationSeries {
    period: usize,
    events_seen: usize,
    samples: Vec<UtilizationSample>,
}

impl UtilizationSeries {
    /// A series sampling every `period` events (`period == 0` is
    /// treated as 1).
    #[must_use]
    pub fn new(period: usize) -> Self {
        Self {
            period: period.max(1),
            events_seen: 0,
            samples: Vec::new(),
        }
    }

    /// Offers one event's post-state; kept if it falls on the period.
    pub fn offer(&mut self, at: Seconds, active: usize, rings: impl FnOnce() -> Vec<f64>) {
        self.events_seen += 1;
        if self.events_seen.is_multiple_of(self.period) {
            self.samples.push(UtilizationSample {
                at,
                active,
                rings: rings(),
            });
        }
    }

    /// The recorded samples, in time order.
    #[must_use]
    pub fn samples(&self) -> &[UtilizationSample] {
        &self.samples
    }

    /// Mean and peak utilization of ring `ring` over the series.
    #[must_use]
    pub fn ring_summary(&self, ring: usize) -> (f64, f64) {
        let mut sum = 0.0;
        let mut peak = 0.0_f64;
        let mut n = 0usize;
        for s in &self.samples {
            if let Some(&u) = s.rings.get(ring) {
                sum += u;
                peak = peak.max(u);
                n += 1;
            }
        }
        if n == 0 {
            (0.0, 0.0)
        } else {
            (sum / n as f64, peak)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetnet_traffic::units::Seconds;

    #[test]
    fn histogram_bucket_boundaries() {
        use hetnet_obs::hist::{bucket_of, upper_bound, FLOOR};
        // Values at and just past a bucket's upper bound land in that
        // bucket and the next one respectively.
        for i in [1usize, 4, 17, 63] {
            let ub = upper_bound(i);
            assert_eq!(bucket_of(ub), i, "ub of bucket {i}");
            assert_eq!(bucket_of(ub * 1.0001), i + 1, "just past ub of bucket {i}");
        }
        // The floor bucket takes everything down to zero.
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(FLOOR), 0);
        assert_eq!(bucket_of(FLOOR * 0.5), 0);
    }

    #[test]
    fn histogram_quantiles_never_underestimate() {
        let mut h = LatencyHistogram::new();
        let values = [
            10e-6, 20e-6, 30e-6, 40e-6, 50e-6, 60e-6, 70e-6, 80e-6, 90e-6, 100e-6,
        ];
        for v in values {
            h.record(Seconds::new(v));
        }
        assert_eq!(h.count(), 10);
        let (p50, p95, p99) = h.percentiles();
        // Upper-bound reporting: each quantile ≥ the exact order
        // statistic and ≤ one bucket-growth factor above it.
        let growth = 2.0_f64.powf(1.0 / hetnet_obs::hist::PER_OCTAVE);
        assert!(
            p50.value() >= 50e-6 && p50.value() <= 50e-6 * growth,
            "{p50}"
        );
        assert!(p95.value() >= 100e-6 * 0.999, "{p95}");
        assert!(p99.value() <= 100e-6 * growth, "{p99}");
        assert!((h.mean().value() - 55e-6).abs() < 1e-9);
        assert_eq!(h.max(), Seconds::new(100e-6));
    }

    #[test]
    fn histogram_empty_and_overflow() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), Seconds::ZERO);
        h.record(Seconds::new(1e9)); // way past the last bucket
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Seconds::new(1e9)); // exact max
    }

    #[test]
    fn histogram_single_value_quantiles_are_tight() {
        let mut h = LatencyHistogram::new();
        h.record(Seconds::new(3.3e-4));
        let growth = 2.0_f64.powf(1.0 / hetnet_obs::hist::PER_OCTAVE);
        for q in [0.01, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).value();
            assert!((3.3e-4..=3.3e-4 * growth).contains(&v), "q={q}: {v}");
        }
    }

    #[test]
    fn counters_classify_reasons() {
        let mut c = DecisionCounters::default();
        c.admitted += 1;
        c.count_rejection(&RejectReason::SourceBandwidthExhausted {
            available: Seconds::ZERO,
            required: Seconds::new(1.0),
        });
        c.count_rejection(&RejectReason::DestBandwidthExhausted {
            available: Seconds::ZERO,
            required: Seconds::new(1.0),
        });
        c.count_rejection(&RejectReason::InfeasibleAtMaximum { detail: "x".into() });
        c.count_rejection(&RejectReason::ComponentUnavailable {
            component: hetnet_cac::network::Component::Ring(hetnet_cac::network::RingId(0)),
        });
        assert_eq!(c.rejected_component_down, 1);
        assert_eq!(c.rejected(), 4);
        assert_eq!(c.total(), 5);
        assert!((c.blocking_probability() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn cache_gauges_accumulate() {
        let mut g = CacheGauges::default();
        g.absorb(CacheStats {
            stage1_hits: 3,
            stage1_misses: 1,
            mux_hits: 10,
            mux_misses: 2,
            receive_hits: 4,
            receive_misses: 1,
            ..CacheStats::default()
        });
        g.absorb(CacheStats {
            stage1_hits: 1,
            stage1_misses: 1,
            mux_hits: 0,
            mux_misses: 2,
            receive_hits: 0,
            receive_misses: 1,
            ..CacheStats::default()
        });
        assert_eq!(g.evals(), 8);
        assert!((g.hit_rate() - 18.0 / 26.0).abs() < 1e-12);
    }

    #[test]
    fn fast_path_gauges_accumulate() {
        let mut g = FastPathGauges::default();
        assert_eq!(g.hit_rate(), 0.0, "no probes yet");
        let mut first = FastPathStats {
            fast_accepts: 6,
            fast_rejects: 2,
            fallbacks: 2,
            ..FastPathStats::default()
        };
        first.fallback_causes[0] = 2;
        g.absorb(first);
        let mut second = FastPathStats {
            fast_rejects: 1,
            fallbacks: 1,
            ..FastPathStats::default()
        };
        second.fallback_causes[6] = 1;
        second.no_context = 1;
        second.skip_causes[0] = 1;
        g.absorb(second);
        assert_eq!(g.probes(), 12);
        assert!((g.hit_rate() - 9.0 / 12.0).abs() < 1e-12);
        assert_eq!(g.fallback_causes.iter().sum::<u64>(), g.fallbacks);
        assert_eq!(g.no_context, 1);
        assert_eq!(g.skip_causes, [1, 0, 0, 0]);
    }

    #[test]
    fn delay_attribution_folds_traces() {
        use hetnet_cac::connection::ConnectionId;
        use hetnet_cac::delay::PathReport;
        use hetnet_cac::trace::ConnectionTrace;
        use hetnet_traffic::units::Bits;

        let report = |terms: [f64; 5]| {
            let [fddi_s, id_s, atm, id_r, fddi_r] = terms.map(Seconds::new);
            PathReport {
                fddi_s,
                id_s,
                atm,
                id_r,
                fddi_r,
                total: fddi_s + id_s + atm + id_r + fddi_r,
                buffer_mac_s: Bits::new(1000.0),
                buffer_mac_r: Bits::new(2000.0),
            }
        };
        let admit = DecisionTrace {
            seq: 0,
            at: Seconds::ZERO,
            admitted: true,
            scheduler: "fifo".into(),
            allocation: None,
            connections: vec![ConnectionTrace::new(
                Some(ConnectionId(0)),
                report([0.01, 0.002, 0.03, 0.002, 0.01]),
                Seconds::from_millis(80.0),
            )],
            binding: None,
            cache: CacheStats::default(),
        };
        let reject = DecisionTrace {
            seq: 1,
            at: Seconds::new(1.0),
            admitted: false,
            scheduler: "fifo".into(),
            allocation: None,
            connections: vec![ConnectionTrace::new(
                None,
                report([0.02, 0.002, 0.05, 0.002, 0.02]),
                Seconds::from_millis(60.0),
            )],
            binding: Some(BindingConstraint::DeadlineExceeded {
                connection: None,
                stage: ServerStage::Atm,
                delay: Seconds::from_millis(94.0),
                deadline: Seconds::from_millis(60.0),
                excess: Seconds::from_millis(34.0),
            }),
            cache: CacheStats::default(),
        };
        // A pre-allocation bandwidth reject carries no connections.
        let bare = DecisionTrace {
            seq: 2,
            at: Seconds::new(2.0),
            admitted: false,
            scheduler: "fifo".into(),
            allocation: None,
            connections: vec![],
            binding: Some(BindingConstraint::SourceBandwidth {
                ring: hetnet_cac::network::RingId(0),
                available: Seconds::from_millis(1.0),
                required: Seconds::from_millis(2.0),
            }),
            cache: CacheStats::default(),
        };

        let mut a = DelayAttribution::default();
        for t in [&admit, &reject, &bare] {
            a.absorb(t);
        }
        assert_eq!(a.traced, 3);
        assert_eq!(a.rejects_with_binding, 2);
        assert_eq!(a.bindings.deadline, 1);
        assert_eq!(a.bindings.source_bandwidth, 1);
        assert_eq!(a.bindings.total(), 2);
        // Two candidates had paths; only the admit recorded slack.
        for stage in ServerStage::ALL {
            assert_eq!(a.stage_mut(stage).count(), 2, "{stage}");
        }
        assert_eq!(a.total.count(), 2);
        assert_eq!(a.slack.count(), 1);
        assert!((a.atm.max().value() - 0.05).abs() < 1e-12);
        assert!((a.slack.max().value() - (0.08 - 0.054)).abs() < 1e-12);
    }

    #[test]
    fn binding_counters_cover_every_kind() {
        let mut c = BindingCounters::default();
        c.count(&BindingConstraint::SourceBandwidth {
            ring: hetnet_cac::network::RingId(0),
            available: Seconds::ZERO,
            required: Seconds::new(1.0),
        });
        c.count(&BindingConstraint::DestBandwidth {
            ring: hetnet_cac::network::RingId(1),
            available: Seconds::ZERO,
            required: Seconds::new(1.0),
        });
        c.count(&BindingConstraint::ServerUnstable { detail: "x".into() });
        c.count(&BindingConstraint::ComponentDown {
            component: hetnet_cac::network::Component::IfDev(hetnet_cac::network::RingId(2)),
        });
        assert_eq!(c.total(), 4);
        assert_eq!(c.dest_bandwidth, 1);
        assert_eq!(c.unstable, 1);
        assert_eq!(c.component_down, 1);
        assert_eq!(c.other, 0);
    }

    #[test]
    fn utilization_series_samples_on_period() {
        let mut s = UtilizationSeries::new(3);
        for i in 0..10 {
            s.offer(Seconds::new(i as f64), i, || vec![0.1 * i as f64, 0.0]);
        }
        assert_eq!(s.samples().len(), 3); // events 3, 6, 9
        assert_eq!(s.samples()[0].active, 2);
        let (mean, peak) = s.ring_summary(0);
        assert!((peak - 0.8).abs() < 1e-12);
        assert!((mean - (0.2 + 0.5 + 0.8) / 3.0).abs() < 1e-12);
    }
}
