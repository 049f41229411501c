//! Worst-case analysis of a guaranteed-service server.
//!
//! This module implements, in the generic envelope/service-curve language
//! of this crate, the analysis that the paper's Theorem 1 performs for the
//! FDDI MAC:
//!
//! * the **maximum busy interval** `B = min{t > 0 : A(t) ≤ S(t)}`
//!   (Theorem 1.1, with `S = avail`),
//! * the **maximum backlog** `F = max_{0<t≤B} (A(t) − S(t))`
//!   (Theorem 1.2 — the buffer requirement),
//! * the **worst-case delay**
//!   `χ = max_{0<t≤B} min{d : S(t+d) ≥ A(t)}` (Theorem 1.3), and
//! * the **output-traffic envelope**
//!   `Υ(I) = min(cap·I, max_{0≤t≤B} (A(t+I) − S(t)))` (Theorem 1.4),
//!   provided by [`ServerOutput`].
//!
//! The same machinery, instantiated with other service curves, analyzes
//! the 802.5 token-ring MAC of the paper's §7 extension and any
//! rate-latency scheduler.

use crate::envelope::{candidate_times, Envelope, SharedEnvelope};
use crate::error::TrafficError;
use crate::service::ServiceCurve;
use crate::units::{Bits, BitsPerSec, Seconds};
use std::sync::Arc;

/// Tuning knobs for the candidate-point optimizations.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisConfig {
    /// Uniform guard points inserted between consecutive natural
    /// breakpoints, protecting against envelopes whose breakpoint lists
    /// are approximate. Higher is tighter but slower.
    pub guard_subdivisions: usize,
    /// Hard cap on the busy-interval search horizon; exceeding it yields
    /// [`TrafficError::HorizonExhausted`].
    pub max_horizon: Seconds,
    /// Relative margin by which the arrival rate must stay below the
    /// service rate to be considered stable.
    pub stability_margin: f64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            guard_subdivisions: 4,
            max_horizon: Seconds::new(60.0),
            stability_margin: 1.0e-9,
        }
    }
}

/// The result of analyzing a guaranteed-service server for one flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerAnalysis {
    /// Maximum length of a busy interval (Theorem 1.1).
    pub busy_interval: Seconds,
    /// Maximum backlog — the buffer required for loss-free operation
    /// (Theorem 1.2).
    pub backlog_bound: Bits,
    /// Worst-case queueing + transmission delay through the server
    /// (Theorem 1.3).
    pub delay_bound: Seconds,
}

/// Analyzes a flow with arrival envelope `arrival` served under the
/// guaranteed service curve `service`.
///
/// # Errors
///
/// * [`TrafficError::Unstable`] if the flow's sustained rate is not
///   strictly below the service rate;
/// * [`TrafficError::HorizonExhausted`] if the busy interval does not
///   close within `cfg.max_horizon`.
pub fn analyze_guaranteed_server(
    arrival: &dyn Envelope,
    service: &dyn ServiceCurve,
    cfg: &AnalysisConfig,
) -> Result<ServerAnalysis, TrafficError> {
    let rho = arrival.sustained_rate();
    let srv = service.sustained_rate();
    if rho.value() >= srv.value() * (1.0 - cfg.stability_margin) {
        return Err(TrafficError::Unstable {
            arrival_rate: rho,
            service_rate: srv,
        });
    }

    let busy_interval = find_busy_interval(arrival, service, cfg)?;

    // Candidate evaluation points within (0, B].
    let mut ts = busy_candidates(arrival, service, busy_interval, cfg);

    // `time_to_provide` is discontinuous at the service's level
    // breakpoints (e.g. quantum multiples of a staircase); the delay
    // maximum is approached just past the arrival instants crossing those
    // levels, which are not breakpoints of A or S. Add them explicitly.
    let eps = (busy_interval * 1.0e-9).max(Seconds::new(1.0e-12));
    let mut levels = Vec::new();
    service.level_breakpoints(arrival.arrivals(busy_interval), &mut levels);
    for level in levels {
        if let Some(t) = crate::envelope::min_interval_for(arrival, level, busy_interval) {
            for cand in [t, t + eps] {
                if cand > Seconds::ZERO && cand <= busy_interval {
                    ts.push(cand);
                }
            }
        }
    }

    let mut backlog = 0.0_f64;
    let mut delay = 0.0_f64;
    for &t in &ts {
        if t <= Seconds::ZERO {
            continue;
        }
        let a = arrival.arrivals(t);
        let s = service.provided(t);
        backlog = backlog.max((a - s).value());
        let d = (service.time_to_provide(a) - t).value();
        delay = delay.max(d);
    }

    Ok(ServerAnalysis {
        busy_interval,
        backlog_bound: Bits::new(backlog.max(0.0)),
        delay_bound: Seconds::new(delay.max(0.0)),
    })
}

/// Candidate points in `[0, B]` for extremum searches at this server.
fn busy_candidates(
    arrival: &dyn Envelope,
    service: &dyn ServiceCurve,
    busy: Seconds,
    cfg: &AnalysisConfig,
) -> Vec<Seconds> {
    let mut extra = Vec::new();
    service.breakpoints(busy, &mut extra);
    candidate_times(&[arrival], &extra, busy, cfg.guard_subdivisions)
}

/// Finds the end of the maximal backlogged horizon: the time after the
/// *last* instant at which `A(t) > S(t)`.
///
/// For service curves that start at zero (FDDI's `avail`) this coincides
/// with the paper's minimal busy interval `min{t > 0 : A(t) ≤ S(t)}`; for
/// curves with an instantaneous burst (a greedy shaper's `σ + ρt`) the
/// minimal definition would close at `t → 0⁺` and miss the real backlog,
/// so the last-violation form is the sound general choice. Backlog and
/// delay maximizations past this point contribute nothing (there
/// `A(t) ≤ S(t)`, so both extrema are non-positive).
fn find_busy_interval(
    arrival: &dyn Envelope,
    service: &dyn ServiceCurve,
    cfg: &AnalysisConfig,
) -> Result<Seconds, TrafficError> {
    // Initial horizon: a few service "latencies" past the time the server
    // needs to clear the first burst.
    let seed = service
        .time_to_provide(arrival.burst() + Bits::new(1.0))
        .max(Seconds::from_micros(1.0));
    // Cover at least one full source period: for a subadditive arrival
    // envelope and a superadditive service curve, a violation-free period
    // implies a violation-free future (A(nP+s) <= n*A(P) + A(s) <=
    // n*S(P) + S(s) <= S(nP+s)). Curves with an up-front burst lack the
    // superadditivity step, so scan several periods before concluding.
    let periods = if service.is_superadditive() { 1.0 } else { 4.0 };
    let floor = arrival.period_hint().map_or(Seconds::ZERO, |p| p * periods);
    let mut horizon = (seed * 8.0).max(floor).min(cfg.max_horizon);

    loop {
        let mut extra = Vec::new();
        service.breakpoints(horizon, &mut extra);
        let ts = candidate_times(&[arrival], &extra, horizon, cfg.guard_subdivisions);
        let violated = |t: Seconds| t > Seconds::ZERO && arrival.arrivals(t) > service.provided(t);

        let mut last_violation: Option<usize> = None;
        for (idx, &t) in ts.iter().enumerate() {
            if violated(t) {
                last_violation = Some(idx);
            }
        }

        // Grows the horizon toward the cap; errors once it cannot grow.
        let grow = |horizon: &mut Seconds, tv: Option<Seconds>| -> Result<(), TrafficError> {
            if horizon.value() >= cfg.max_horizon.value() {
                return Err(TrafficError::HorizonExhausted {
                    horizon: cfg.max_horizon,
                });
            }
            // Jump straight past twice the observed violation (the clean-
            // tail requirement) rather than blindly doubling.
            let want = tv.map_or(horizon.value() * 2.0, |t| {
                (t.value() * 2.2).max(horizon.value() * 2.0)
            });
            *horizon = Seconds::new(want.min(cfg.max_horizon.value()));
            Ok(())
        };

        match last_violation {
            // Never backlogged within the horizon: the flow conforms to
            // the service everywhere.
            None => return Ok(Seconds::ZERO),
            Some(idx) => {
                let tv = ts[idx];
                // Require a clean tail of at least half the horizon before
                // trusting that the backlog never reopens (stability makes
                // the service-arrival gap grow past this point).
                if tv.value() > horizon.value() * 0.5 {
                    grow(&mut horizon, Some(tv))?;
                    continue;
                }
                let hi0 = match ts.get(idx + 1) {
                    Some(&next) => next,
                    None => {
                        grow(&mut horizon, Some(tv))?;
                        continue;
                    }
                };
                // Refine into (tv, hi0]; the result satisfies the
                // condition and upper-bounds every violation, so it is a
                // sound maximization range.
                // `tv` is violated and `hi0` is not.
                return Ok(crate::combinators::bisect(tv, hi0, true, violated));
            }
        }
    }
}

/// The envelope of the traffic *leaving* a guaranteed-service server —
/// the paper's Theorem 1.4:
///
/// `Υ(I) = min(cap · I, max_{0 ≤ t ≤ B} (A(t+I) − S(t)))`
///
/// where `cap` is the transmission rate of the medium the output is
/// observed on (`BW_FDDI` in Theorem 1).
#[derive(Debug, Clone)]
pub struct ServerOutput {
    arrival: SharedEnvelope,
    service: Arc<dyn ServiceCurve>,
    busy_interval: Seconds,
    cap: Option<BitsPerSec>,
    /// Precomputed maximizer candidates for `t ∈ [0, B]`.
    t_candidates: Vec<Seconds>,
}

impl ServerOutput {
    /// Builds the output envelope for `arrival` served under `service`
    /// with maximum busy interval `busy_interval` (from
    /// [`analyze_guaranteed_server`]), observed on a medium of rate `cap`
    /// (or unbounded when `None`).
    #[must_use]
    pub fn new(
        arrival: SharedEnvelope,
        service: Arc<dyn ServiceCurve>,
        busy_interval: Seconds,
        cap: Option<BitsPerSec>,
        cfg: &AnalysisConfig,
    ) -> Self {
        // For a staircase service, S is flat between steps while A(t+I)
        // is nondecreasing in t, so the maximizer of A(t+I) − S(t) within
        // each step window sits at its right edge: the exact candidate
        // set is {0} ∪ {steps − ε} ∪ {B}.
        let mut t_candidates = if service.is_piecewise_constant() {
            let eps = (busy_interval * 1.0e-9).max(Seconds::new(1.0e-12));
            let mut steps = Vec::new();
            service.breakpoints(busy_interval, &mut steps);
            let mut v = vec![Seconds::ZERO];
            v.extend(steps.into_iter().map(|t| (t - eps).clamp_min_zero()));
            v.push(busy_interval);
            v
        } else {
            busy_candidates(&arrival, &*service, busy_interval, cfg)
        };
        if t_candidates.first() != Some(&Seconds::ZERO) {
            t_candidates.insert(0, Seconds::ZERO);
        }
        Self {
            arrival,
            service,
            busy_interval,
            cap,
            t_candidates,
        }
    }

    /// The maximum busy interval used as the maximizer range.
    #[must_use]
    pub fn busy_interval(&self) -> Seconds {
        self.busy_interval
    }
}

impl Envelope for ServerOutput {
    fn period_hint(&self) -> Option<Seconds> {
        self.arrival.period_hint()
    }

    fn arrivals(&self, interval: Seconds) -> Bits {
        let i = interval.clamp_min_zero();
        let mut best = 0.0_f64;
        for &t in &self.t_candidates {
            let v = (self.arrival.arrivals(t + i) - self.service.provided(t)).value();
            best = best.max(v);
        }
        let unbounded = Bits::new(best.max(0.0));
        match self.cap {
            Some(cap) => unbounded.min(cap * i),
            None => unbounded,
        }
    }

    fn sustained_rate(&self) -> BitsPerSec {
        let rho = self.arrival.sustained_rate();
        match self.cap {
            Some(cap) if cap < rho => cap,
            _ => rho,
        }
    }

    fn peak_rate(&self) -> BitsPerSec {
        let p = self.arrival.peak_rate();
        match self.cap {
            Some(cap) if cap < p => cap,
            _ => p,
        }
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        // Corners of Υ are (arrival corners) − t for maximizer candidates
        // t; we shift by the service-step candidates (the usual
        // maximizers) and by 0. Downstream guard subdivisions absorb the
        // residual inexactness.
        let mut arrival_pts = Vec::new();
        self.arrival
            .breakpoints(horizon + self.busy_interval, &mut arrival_pts);
        let mut shifts = vec![Seconds::ZERO];
        self.service.breakpoints(self.busy_interval, &mut shifts);
        for &p in &arrival_pts {
            for &s in &shifts {
                let x = p - s;
                if x > Seconds::ZERO && x <= horizon {
                    out.push(x);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{ConstantRateEnvelope, LeakyBucketEnvelope, PeriodicEnvelope};
    use crate::service::{RateLatencyService, StaircaseService};

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    #[test]
    fn leaky_bucket_through_rate_latency_matches_closed_form() {
        // Classic network-calculus result: delay = latency + sigma/rate,
        // backlog = sigma + rho*latency.
        let arr = LeakyBucketEnvelope::new(Bits::new(1000.0), BitsPerSec::new(100.0)).unwrap();
        let srv = RateLatencyService::new(BitsPerSec::new(500.0), Seconds::new(0.2));
        let r = analyze_guaranteed_server(&arr, &srv, &cfg()).unwrap();
        let expected_delay = 0.2 + 1000.0 / 500.0;
        let expected_backlog = 1000.0 + 100.0 * 0.2;
        assert!(
            (r.delay_bound.value() - expected_delay).abs() < 1e-6,
            "delay {} != {expected_delay}",
            r.delay_bound
        );
        assert!(
            (r.backlog_bound.value() - expected_backlog).abs() < 1e-3,
            "backlog {} != {expected_backlog}",
            r.backlog_bound
        );
        // Busy period: sigma + rho t = rate (t - latency) => t = (sigma +
        // rate*latency)/(rate - rho) = (1000 + 100)/400 = 2.75
        assert!((r.busy_interval.value() - 2.75).abs() < 1e-6);
    }

    #[test]
    fn periodic_through_timed_token_hand_check() {
        // 100 bits every 1 s at peak 1000 b/s; token grants 60 bits per
        // 0.1 s rotation (avail starts at 0.2 s).
        let arr =
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap();
        let srv = StaircaseService::timed_token(Seconds::new(0.1), Bits::new(60.0));
        let r = analyze_guaranteed_server(&arr, &srv, &cfg()).unwrap();
        // A(t) <= avail(t): A(0.3) = 100, avail(0.3) = 120 >= 100; avail(0.2)=60 < A(0.2)=100.
        assert!((r.busy_interval.value() - 0.3).abs() < 1e-6);
        // Backlog: worst just before avail jumps at 0.2: A = 100, avail = 0 -> 100.
        assert!((r.backlog_bound.value() - 100.0).abs() < 1e-3);
        // Delay: the supremum is approached by the first bit past the
        // one-quantum level: at t = 0.06+ε, A = 60+ε needs ceil(60+/60) = 2
        // quanta, ready at 3*TTRT = 0.3, so d → 0.24.
        assert!(
            (r.delay_bound.value() - 0.24).abs() < 1e-4,
            "delay {}",
            r.delay_bound
        );
    }

    #[test]
    fn unstable_when_rate_exceeds_service() {
        let arr = ConstantRateEnvelope::new(BitsPerSec::new(100.0));
        let srv = StaircaseService::timed_token(Seconds::new(0.1), Bits::new(5.0));
        let err = analyze_guaranteed_server(&arr, &srv, &cfg()).unwrap_err();
        assert!(matches!(err, TrafficError::Unstable { .. }));
    }

    #[test]
    fn equal_rates_are_unstable() {
        let arr = ConstantRateEnvelope::new(BitsPerSec::new(50.0));
        let srv = StaircaseService::timed_token(Seconds::new(0.1), Bits::new(5.0));
        let err = analyze_guaranteed_server(&arr, &srv, &cfg()).unwrap_err();
        assert!(matches!(err, TrafficError::Unstable { .. }));
    }

    #[test]
    fn delay_decreases_with_larger_quantum() {
        let arr =
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap();
        let mut prev = f64::MAX;
        for quantum in [30.0, 60.0, 120.0, 240.0] {
            let srv = StaircaseService::timed_token(Seconds::new(0.1), Bits::new(quantum));
            let d = analyze_guaranteed_server(&arr, &srv, &cfg())
                .unwrap()
                .delay_bound
                .value();
            assert!(d <= prev + 1e-12, "quantum={quantum}: {d} > {prev}");
            prev = d;
        }
    }

    #[test]
    fn zero_burst_source_still_waits_for_token() {
        // Even an arbitrarily slow trickle waits up to 2 rotations.
        let arr = ConstantRateEnvelope::new(BitsPerSec::new(1.0));
        let srv = StaircaseService::timed_token(Seconds::new(0.1), Bits::new(100.0));
        let r = analyze_guaranteed_server(&arr, &srv, &cfg()).unwrap();
        assert!(r.delay_bound.value() <= 0.2 + 1e-9);
        assert!(r.delay_bound.value() > 0.19);
    }

    #[test]
    fn output_envelope_dominates_served_traffic_and_is_capped() {
        let arr: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap(),
        );
        let srv: Arc<dyn ServiceCurve> = Arc::new(StaircaseService::timed_token(
            Seconds::new(0.1),
            Bits::new(60.0),
        ));
        let analysis = analyze_guaranteed_server(&arr, &*srv, &cfg()).unwrap();
        let out = ServerOutput::new(
            Arc::clone(&arr),
            Arc::clone(&srv),
            analysis.busy_interval,
            Some(BitsPerSec::new(1.0e6)),
            &cfg(),
        );
        assert_eq!(out.busy_interval(), analysis.busy_interval);
        // Υ(I) >= A(I) (take t = 0 in the maximizer).
        for k in 0..60 {
            let i = Seconds::new(k as f64 * 0.05);
            assert!(
                out.arrivals(i) >= arr.arrivals(i) - Bits::new(1e-6),
                "Υ < A at {i}"
            );
        }
        // Cap binds at small I.
        let tiny = Seconds::from_micros(10.0);
        assert!(out.arrivals(tiny) <= BitsPerSec::new(1.0e6) * tiny + Bits::new(1e-9));
    }

    #[test]
    fn output_envelope_monotone() {
        let arr: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap(),
        );
        let srv: Arc<dyn ServiceCurve> = Arc::new(StaircaseService::timed_token(
            Seconds::new(0.1),
            Bits::new(60.0),
        ));
        let analysis = analyze_guaranteed_server(&arr, &*srv, &cfg()).unwrap();
        let out = ServerOutput::new(arr, srv, analysis.busy_interval, None, &cfg());
        let mut prev = Bits::ZERO;
        for k in 0..200 {
            let a = out.arrivals(Seconds::new(k as f64 * 0.013));
            assert!(a >= prev, "not monotone at k={k}");
            prev = a;
        }
    }

    #[test]
    fn output_envelope_sustained_rate_unchanged() {
        let arr: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap(),
        );
        let srv: Arc<dyn ServiceCurve> = Arc::new(StaircaseService::timed_token(
            Seconds::new(0.1),
            Bits::new(60.0),
        ));
        let analysis = analyze_guaranteed_server(&arr, &*srv, &cfg()).unwrap();
        let out = ServerOutput::new(
            arr,
            srv,
            analysis.busy_interval,
            Some(BitsPerSec::new(1.0e6)),
            &cfg(),
        );
        assert_eq!(out.sustained_rate().value(), 100.0);
        assert_eq!(out.peak_rate().value(), 1000.0);
    }

    #[test]
    fn output_breakpoints_within_horizon() {
        let arr: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(1.0), BitsPerSec::new(1000.0))
                .unwrap(),
        );
        let srv: Arc<dyn ServiceCurve> = Arc::new(StaircaseService::timed_token(
            Seconds::new(0.1),
            Bits::new(60.0),
        ));
        let analysis = analyze_guaranteed_server(&arr, &*srv, &cfg()).unwrap();
        let out = ServerOutput::new(arr, srv, analysis.busy_interval, None, &cfg());
        let mut pts = Vec::new();
        out.breakpoints(Seconds::new(2.0), &mut pts);
        assert!(!pts.is_empty());
        assert!(pts
            .iter()
            .all(|p| *p > Seconds::ZERO && *p <= Seconds::new(2.0)));
    }

    #[test]
    fn horizon_exhaustion_reported() {
        // Stable on paper but with a tiny max_horizon the search must bail.
        let arr = LeakyBucketEnvelope::new(Bits::new(1000.0), BitsPerSec::new(100.0)).unwrap();
        let srv = RateLatencyService::new(BitsPerSec::new(101.0), Seconds::new(0.0));
        let tight = AnalysisConfig {
            max_horizon: Seconds::from_micros(1.0),
            ..AnalysisConfig::default()
        };
        let err = analyze_guaranteed_server(&arr, &srv, &tight).unwrap_err();
        assert!(matches!(err, TrafficError::HorizonExhausted { .. }));
    }
}
