//! Property-based tests for traffic envelopes, service curves and the
//! guaranteed-server analysis.

use hetnet_traffic::analysis::{analyze_guaranteed_server, AnalysisConfig, ServerOutput};
use hetnet_traffic::combinators::{
    Aggregate, Delayed, MinOf, Quantized, RateCapped, Sampled, Scaled,
};
use hetnet_traffic::envelope::{Envelope, SharedEnvelope};
use hetnet_traffic::models::{
    ConstantRateEnvelope, DualPeriodicEnvelope, LeakyBucketEnvelope, PeriodicEnvelope,
};
use hetnet_traffic::service::{RateLatencyService, ServiceCurve, StaircaseService};
use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
use proptest::prelude::*;
use std::sync::Arc;

/// A generated dual-periodic envelope with valid parameters.
fn dual_periodic_strategy() -> impl Strategy<Value = DualPeriodicEnvelope> {
    // p2 in [1, 20] ms, bursts per period in [1, 8], c2 in bits, peak high
    // enough that c2 always fits.
    (
        1.0_f64..20.0,    // p2 in ms
        1_usize..=8,      // p1 = k * p2
        1.0e3_f64..1.0e5, // c2 bits
        0.0_f64..1.0,     // c1 position between c2 and k*c2
        1.1_f64..4.0,     // peak multiplier over c2/p2
    )
        .prop_map(|(p2_ms, k, c2, c1_frac, peak_mul)| {
            let p2 = Seconds::from_millis(p2_ms);
            let p1 = Seconds::from_millis(p2_ms * k as f64);
            let peak = BitsPerSec::new(c2 / p2.value() * peak_mul);
            // c1 between c2 and k*c2 (reachable within p1).
            let c1 = c2 * (1.0 + c1_frac * (k as f64 - 1.0));
            DualPeriodicEnvelope::new(Bits::new(c1), p1, Bits::new(c2), p2, peak)
                .expect("generated parameters must be valid")
        })
}

fn interval_strategy() -> impl Strategy<Value = Seconds> {
    (0.0_f64..0.5).prop_map(Seconds::new)
}

/// Reference combinators: `Delayed`, `RateCapped` and `MinOf` with their
/// original breakpoint enumeration, which enumerates each operand twice
/// (once for `out`, once for the crossing brackets) and re-evaluates both
/// window endpoints' sides, and the left side on every bisection step.
/// Their `arrivals` are the library's.
mod reference {
    use hetnet_traffic::envelope::{Envelope, SharedEnvelope};
    use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};

    #[derive(Debug)]
    pub struct Delayed {
        pub inner: SharedEnvelope,
        pub delay: Seconds,
    }

    impl Envelope for Delayed {
        fn arrivals(&self, interval: Seconds) -> Bits {
            self.inner.arrivals(interval.clamp_min_zero() + self.delay)
        }

        fn sustained_rate(&self) -> BitsPerSec {
            self.inner.sustained_rate()
        }

        fn peak_rate(&self) -> BitsPerSec {
            self.inner.peak_rate()
        }

        fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
            let mut inner_points = Vec::new();
            self.inner
                .breakpoints(horizon + self.delay, &mut inner_points);
            out.extend(
                inner_points
                    .into_iter()
                    .map(|p| p.saturating_sub(self.delay))
                    .filter(|p| *p > Seconds::ZERO),
            );
        }
    }

    #[derive(Debug)]
    pub struct RateCapped {
        pub inner: SharedEnvelope,
        pub cap: BitsPerSec,
    }

    impl Envelope for RateCapped {
        fn arrivals(&self, interval: Seconds) -> Bits {
            let i = interval.clamp_min_zero();
            self.inner.arrivals(i).min(self.cap * i)
        }

        fn sustained_rate(&self) -> BitsPerSec {
            self.inner.sustained_rate().min(self.cap)
        }

        fn peak_rate(&self) -> BitsPerSec {
            self.inner.peak_rate().min(self.cap)
        }

        fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
            self.inner.breakpoints(horizon, out);
            let mut pts = Vec::new();
            self.inner.breakpoints(horizon, &mut pts);
            pts.push(Seconds::ZERO);
            pts.push(horizon);
            pts.sort_by(|a, b| a.total_cmp(b));
            let above = |i: Seconds| self.inner.arrivals(i) > self.cap * i;
            for w in pts.windows(2) {
                let (a, b) = (w[0], w[1]);
                if above(a) != above(b) {
                    let (mut lo, mut hi) = (a.value(), b.value());
                    for _ in 0..60 {
                        let mid = 0.5 * (lo + hi);
                        if above(Seconds::new(mid)) == above(a) {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    out.push(Seconds::new(hi));
                }
            }
        }
    }

    #[derive(Debug)]
    pub struct MinOf {
        pub a: SharedEnvelope,
        pub b: SharedEnvelope,
    }

    impl Envelope for MinOf {
        fn arrivals(&self, interval: Seconds) -> Bits {
            self.a.arrivals(interval).min(self.b.arrivals(interval))
        }

        fn sustained_rate(&self) -> BitsPerSec {
            self.a.sustained_rate().min(self.b.sustained_rate())
        }

        fn peak_rate(&self) -> BitsPerSec {
            self.a.peak_rate().min(self.b.peak_rate())
        }

        fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
            self.a.breakpoints(horizon, out);
            self.b.breakpoints(horizon, out);
            let mut pts = Vec::new();
            self.a.breakpoints(horizon, &mut pts);
            self.b.breakpoints(horizon, &mut pts);
            pts.push(Seconds::ZERO);
            pts.push(horizon);
            pts.sort_by(|x, y| x.total_cmp(y));
            let a_below = |i: Seconds| self.a.arrivals(i) < self.b.arrivals(i);
            for w in pts.windows(2) {
                if a_below(w[0]) != a_below(w[1]) {
                    let (mut lo, mut hi) = (w[0].value(), w[1].value());
                    for _ in 0..60 {
                        let mid = 0.5 * (lo + hi);
                        if a_below(Seconds::new(mid)) == a_below(w[0]) {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    out.push(Seconds::new(hi));
                }
            }
        }
    }
}

/// A root envelope for a hop chain: a peak-limited leaky bucket, a
/// periodic source, or a `Sampled` flattening of a periodic source.
fn chain_root_strategy() -> impl Strategy<Value = SharedEnvelope> {
    (
        0_usize..3,
        1.0e3_f64..1.0e5, // burst / per-period bits
        1.0_f64..20.0,    // period in ms (rate = bits / period)
        1.1_f64..50.0,    // peak multiplier over the sustained rate
        5.0_f64..100.0,   // Sampled flattening horizon in ms
        0_usize..3,       // Sampled guard subdivisions
    )
        .prop_map(
            |(kind, bits, p_ms, peak_mul, flat_ms, subdivisions)| -> SharedEnvelope {
                let p = Seconds::from_millis(p_ms);
                let rate = BitsPerSec::new(bits / p.value());
                let periodic = || {
                    Arc::new(PeriodicEnvelope::new(Bits::new(bits), p, rate * peak_mul).unwrap())
                };
                match kind {
                    0 => Arc::new(
                        LeakyBucketEnvelope::new(Bits::new(bits), rate)
                            .unwrap()
                            .with_peak(rate * peak_mul)
                            .unwrap(),
                    ),
                    1 => periodic(),
                    _ => Arc::new(Sampled::flatten(
                        periodic(),
                        Seconds::from_millis(flat_ms),
                        subdivisions,
                    )),
                }
            },
        )
}

/// One level of a hop chain.
#[derive(Clone, Copy, Debug)]
enum ChainLayer {
    /// A FIFO delay (ms).
    Delay(f64),
    /// A rate cap, as a multiple of the root's sustained rate.
    Cap(f64),
    /// The minimum with a leaky-bucket contract: burst as a multiple of
    /// the root's 5-ms arrivals, rate as a multiple of its sustained rate,
    /// and whether the contract is the first operand.
    Contract(f64, f64, bool),
}

fn chain_layer_strategy() -> impl Strategy<Value = ChainLayer> {
    (
        0_usize..3,
        0.0_f64..10.0,
        1.05_f64..20.0,
        0.0_f64..2.0,
        proptest::bool::ANY,
    )
        .prop_map(|(kind, delay_ms, mul, burst_mul, first)| match kind {
            0 => ChainLayer::Delay(delay_ms),
            1 => ChainLayer::Cap(mul),
            _ => ChainLayer::Contract(burst_mul, mul.min(3.0), first),
        })
}

/// Builds `layers` over `root` twice: from the library's combinators and
/// from the reference ones.
fn build_chains(root: &SharedEnvelope, layers: &[ChainLayer]) -> (SharedEnvelope, SharedEnvelope) {
    let rho = root.sustained_rate();
    let (mut lib, mut refr) = (Arc::clone(root), Arc::clone(root));
    for &layer in layers {
        match layer {
            ChainLayer::Delay(ms) => {
                let delay = Seconds::from_millis(ms);
                lib = Arc::new(Delayed::new(lib, delay));
                refr = Arc::new(reference::Delayed { inner: refr, delay });
            }
            ChainLayer::Cap(mul) => {
                let cap = rho * mul;
                lib = Arc::new(RateCapped::new(lib, cap));
                refr = Arc::new(reference::RateCapped { inner: refr, cap });
            }
            ChainLayer::Contract(burst_mul, rate_mul, first) => {
                let burst = root.arrivals(Seconds::from_millis(5.0)) * burst_mul + Bits::new(1.0);
                let contract: SharedEnvelope =
                    Arc::new(LeakyBucketEnvelope::new(burst, rho * rate_mul).unwrap());
                let c = Arc::clone(&contract);
                if first {
                    lib = Arc::new(MinOf::new(contract, lib));
                    refr = Arc::new(reference::MinOf { a: c, b: refr });
                } else {
                    lib = Arc::new(MinOf::new(lib, contract));
                    refr = Arc::new(reference::MinOf { a: refr, b: c });
                }
            }
        }
    }
    (lib, refr)
}

/// `env`'s breakpoints within `horizon`, sorted, as raw bit patterns.
fn sorted_breakpoint_bits(env: &SharedEnvelope, horizon: Seconds) -> Vec<u64> {
    let mut pts = Vec::new();
    env.breakpoints(horizon, &mut pts);
    pts.sort_by(Seconds::total_cmp);
    pts.iter().map(|p| p.value().to_bits()).collect()
}

/// `Sampled::arrivals` as a plain binary search of the sample table:
/// the lookup its bucket index must reproduce bit for bit. `inner` is the
/// flattened envelope, which answers queries beyond the horizon.
fn binary_search_arrivals(flat: &Sampled, inner: &dyn Envelope, interval: Seconds) -> Bits {
    let (ts, vals) = flat.samples();
    let i = interval.clamp_min_zero().value();
    if i > flat.horizon() || ts.is_empty() {
        return inner.arrivals(interval);
    }
    match ts.binary_search_by(|t| t.total_cmp(&i)) {
        Ok(idx) => Bits::new(vals[idx]),
        Err(0) => Bits::new(vals[0]),
        Err(idx) if idx >= ts.len() => Bits::new(*vals.last().expect("non-empty")),
        Err(idx) => {
            let (t0, t1) = (ts[idx - 1], ts[idx]);
            let (v0, v1) = (vals[idx - 1], vals[idx]);
            let frac = if t1 > t0 { (i - t0) / (t1 - t0) } else { 0.0 };
            Bits::new(v0 + frac * (v1 - v0))
        }
    }
}

/// Lookup queries for a flattened table: every sample and its ±1-ulp
/// neighbours, the midpoints between samples, `±0.0`, negatives, `±∞`,
/// NaN of both signs, the horizon and a point beyond it. `Seconds::new`
/// refuses non-finite values, so those are reached by arithmetic.
fn lookup_queries(flat: &Sampled) -> Vec<Seconds> {
    let (ts, _) = flat.samples();
    let h = flat.horizon();
    let max = Seconds::new(f64::MAX);
    let inf = max + max;
    let nan = inf + -inf;
    let mut q = vec![
        Seconds::ZERO,
        -Seconds::ZERO,
        Seconds::new(-1.0e-3),
        Seconds::new(-h),
        inf,
        -inf,
        nan,
        -nan,
        Seconds::new(h),
        Seconds::new(h.next_down()),
        Seconds::new(h.next_up()),
        Seconds::new(h * 1.5 + 1.0e-3),
    ];
    for (k, &t) in ts.iter().enumerate() {
        q.extend([t, t.next_down(), t.next_up()].map(Seconds::new));
        if let Some(&next) = ts.get(k + 1) {
            q.push(Seconds::new(0.5 * (t + next)));
        }
    }
    q
}

/// `lookup`'s result bits, or `None` if it panics: `+∞` lies beyond the
/// horizon, so it falls through to the inner envelope, which refuses it.
fn lookup_bits(lookup: impl FnOnce() -> Bits) -> Option<u64> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(lookup))
        .ok()
        .map(|b| b.value().to_bits())
}

/// Asserts `Sampled::flatten(inner, horizon, subdivisions)` answers every
/// lookup query with exactly the binary search's bits.
fn assert_lookup_matches_binary_search(
    inner: &SharedEnvelope,
    horizon: Seconds,
    subdivisions: usize,
) {
    let flat = Sampled::flatten(Arc::clone(inner), horizon, subdivisions);
    for q in lookup_queries(&flat) {
        assert_eq!(
            lookup_bits(|| flat.arrivals(q)),
            lookup_bits(|| binary_search_arrivals(&flat, &**inner, q)),
            "query {:?} ({:#x}) on {} samples over {} s: {:?}",
            q,
            q.value().to_bits(),
            flat.len(),
            horizon.value(),
            inner
        );
    }
}

/// An envelope to flatten: a dual-periodic source, a hop-chain root
/// (leaky bucket, periodic or `Sampled`), or `RateCapped(Delayed(root))`.
fn lookup_inner_strategy() -> impl Strategy<Value = SharedEnvelope> {
    (
        0_usize..3,
        dual_periodic_strategy(),
        chain_root_strategy(),
        0.0_f64..10.0,  // delay in ms
        1.05_f64..20.0, // cap over the root's sustained rate
    )
        .prop_map(|(kind, dual, root, delay_ms, cap_mul)| -> SharedEnvelope {
            match kind {
                0 => Arc::new(dual),
                1 => root,
                _ => {
                    let cap = root.sustained_rate() * cap_mul;
                    let delayed = Arc::new(Delayed::new(root, Seconds::from_millis(delay_ms)));
                    Arc::new(RateCapped::new(delayed, cap))
                }
            }
        })
}

/// A staircase whose breakpoints all crowd into the start of the
/// flattening horizon: one bucket-index slot holds nearly every sample,
/// so a lookup there takes the binary-search fallback.
#[derive(Debug)]
struct Crowded {
    steps: Vec<f64>,
    step_bits: f64,
    rate: f64,
}

impl Envelope for Crowded {
    fn arrivals(&self, interval: Seconds) -> Bits {
        let i = interval.clamp_min_zero().value();
        let passed = self.steps.partition_point(|&t| t <= i);
        Bits::new(self.step_bits * (passed + 1) as f64 + self.rate * i)
    }

    fn sustained_rate(&self) -> BitsPerSec {
        BitsPerSec::new(self.rate)
    }

    fn peak_rate(&self) -> BitsPerSec {
        BitsPerSec::new(f64::MAX)
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        out.extend(
            self.steps
                .iter()
                .filter(|&&t| t <= horizon.value())
                .map(|&t| Seconds::new(t)),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A(I) is nondecreasing for every generated dual-periodic envelope.
    #[test]
    fn dual_periodic_monotone(env in dual_periodic_strategy(), i in interval_strategy(), j in interval_strategy()) {
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        prop_assert!(env.arrivals(lo) <= env.arrivals(hi) + Bits::new(1e-9));
    }

    /// A(I) never exceeds peak*I and never exceeds (⌊I/P1⌋+1)*C1.
    #[test]
    fn dual_periodic_bounded(env in dual_periodic_strategy(), i in interval_strategy()) {
        let a = env.arrivals(i).value();
        prop_assert!(a <= env.peak_rate().value() * i.value() + 1e-6);
        let periods = (i.value() / env.p1().value()).floor() + 1.0;
        prop_assert!(a <= periods * env.c1().value() + 1e-6);
    }

    /// Subadditivity: A(s + t) <= A(s) + A(t) — the defining property of a
    /// maximum-rate-function envelope.
    #[test]
    fn dual_periodic_subadditive(env in dual_periodic_strategy(), s in interval_strategy(), t in interval_strategy()) {
        let lhs = env.arrivals(s + t).value();
        let rhs = env.arrivals(s).value() + env.arrivals(t).value();
        prop_assert!(lhs <= rhs + 1e-6 + 1e-9 * rhs.abs());
    }

    /// Γ(I) converges to ρ = C1/P1 from above for multiples of P1.
    #[test]
    fn dual_periodic_rate_convergence(env in dual_periodic_strategy()) {
        let rho = env.sustained_rate().value();
        for k in [1.0, 2.0, 5.0, 10.0] {
            let i = env.p1() * k;
            let gamma = env.arrivals(i).value() / i.value();
            prop_assert!(gamma >= rho - 1e-6);
            prop_assert!(gamma <= rho * (1.0 + 1.0) + 1e-6);
        }
        let long = env.p1() * 1000.0;
        let gamma = env.arrivals(long).value() / long.value();
        prop_assert!((gamma - rho).abs() / rho < 0.01);
    }

    /// The delay bound of the staircase (timed-token) analysis decreases
    /// (weakly) as the synchronous quantum grows.
    #[test]
    fn staircase_delay_monotone_in_quantum(env in dual_periodic_strategy()) {
        let cfg = AnalysisConfig::default();
        let ttrt = Seconds::from_millis(4.0);
        let rho = env.sustained_rate();
        let base_quantum = (rho * ttrt).value() * 1.3 + 1.0;
        let mut prev = f64::INFINITY;
        for mult in [1.0, 1.5, 2.5, 4.0] {
            let svc = StaircaseService::timed_token(ttrt, Bits::new(base_quantum * mult));
            let d = analyze_guaranteed_server(&env, &svc, &cfg)
                .expect("stable by construction")
                .delay_bound
                .value();
            prop_assert!(d <= prev + 1e-9, "delay increased: {d} > {prev}");
            prev = d;
        }
    }

    /// The analytic backlog bound dominates a direct arrival-minus-service
    /// evaluation on a dense grid (the analysis is an upper bound).
    #[test]
    fn backlog_bound_dominates_grid(env in dual_periodic_strategy()) {
        let cfg = AnalysisConfig::default();
        let ttrt = Seconds::from_millis(4.0);
        let quantum = Bits::new((env.sustained_rate() * ttrt).value() * 1.5 + 1.0);
        let svc = StaircaseService::timed_token(ttrt, quantum);
        let report = analyze_guaranteed_server(&env, &svc, &cfg).unwrap();
        for k in 0..400 {
            let t = Seconds::new(k as f64 * report.busy_interval.value().max(1e-6) / 399.0);
            let backlog = env.arrivals(t) - svc.provided(t);
            prop_assert!(
                backlog.value()
                    <= report.backlog_bound.value()
                        + 1e-6 * (1.0 + report.backlog_bound.value().abs()),
                "grid backlog {} exceeds bound {} at t={t}",
                backlog.value(),
                report.backlog_bound.value()
            );
        }
    }

    /// The delay bound dominates a dense-grid evaluation of the delay
    /// functional.
    #[test]
    fn delay_bound_dominates_grid(env in dual_periodic_strategy()) {
        let cfg = AnalysisConfig::default();
        let ttrt = Seconds::from_millis(4.0);
        let quantum = Bits::new((env.sustained_rate() * ttrt).value() * 1.5 + 1.0);
        let svc = StaircaseService::timed_token(ttrt, quantum);
        let report = analyze_guaranteed_server(&env, &svc, &cfg).unwrap();
        for k in 1..400 {
            let t = Seconds::new(k as f64 * report.busy_interval.value().max(1e-6) / 399.0);
            let d = (svc.time_to_provide(env.arrivals(t)) - t).value();
            prop_assert!(
                d <= report.delay_bound.value() + 1e-9,
                "grid delay {d} exceeds bound {} at t={t}",
                report.delay_bound.value()
            );
        }
    }

    /// The Theorem-1.4 output envelope dominates the input envelope
    /// (t = 0 in the maximizer) and is monotone.
    #[test]
    fn server_output_dominates_and_monotone(env in dual_periodic_strategy()) {
        let cfg = AnalysisConfig::default();
        let ttrt = Seconds::from_millis(4.0);
        let quantum = Bits::new((env.sustained_rate() * ttrt).value() * 1.5 + 1.0);
        let svc: Arc<dyn ServiceCurve> = Arc::new(StaircaseService::timed_token(ttrt, quantum));
        let arr: SharedEnvelope = Arc::new(env);
        let report = analyze_guaranteed_server(&arr, &*svc, &cfg).unwrap();
        let out = ServerOutput::new(Arc::clone(&arr), svc, report.busy_interval, None, &cfg);
        let mut prev = Bits::ZERO;
        for k in 0..100 {
            let i = Seconds::new(k as f64 * 0.002);
            let y = out.arrivals(i);
            prop_assert!(y >= arr.arrivals(i) - Bits::new(1e-6));
            prop_assert!(y >= prev - Bits::new(1e-9));
            prev = y;
        }
    }

    /// Combinator algebra: Delayed/RateCapped/Scaled/Quantized preserve
    /// monotonicity.
    #[test]
    fn combinators_preserve_monotonicity(env in dual_periodic_strategy(), delay_ms in 0.0_f64..10.0) {
        let base: SharedEnvelope = Arc::new(env);
        let chained: SharedEnvelope = Arc::new(Quantized::new(
            Arc::new(Scaled::new(
                Arc::new(RateCapped::new(
                    Arc::new(Delayed::new(Arc::clone(&base), Seconds::from_millis(delay_ms))),
                    BitsPerSec::from_mbps(100.0),
                )),
                53.0 / 48.0,
            )),
            Bits::new(424.0),
            Bits::new(424.0),
        ));
        let mut prev = Bits::ZERO;
        for k in 0..150 {
            let i = Seconds::new(k as f64 * 0.0013);
            let a = chained.arrivals(i);
            prop_assert!(a >= prev - Bits::new(1e-6), "k={k}");
            prev = a;
        }
    }

    /// Hop chains of depth 1–5 enumerate exactly the reference's
    /// breakpoints, bit for bit, on repeated calls at several horizons.
    #[test]
    fn hop_chain_breakpoints_match_reference_bits(
        root in chain_root_strategy(),
        layers in proptest::collection::vec(chain_layer_strategy(), 1..6),
        h1_ms in 1.0_f64..300.0,
        h2_ms in 1.0_f64..300.0,
    ) {
        let (lib, refr) = build_chains(&root, &layers);
        for h_ms in [h1_ms, h2_ms, h1_ms] {
            let h = Seconds::from_millis(h_ms);
            prop_assert_eq!(
                sorted_breakpoint_bits(&lib, h),
                sorted_breakpoint_bits(&refr, h),
                "root {:?}, layers {:?}, horizon {} ms",
                root,
                layers,
                h_ms
            );
        }
    }

    /// The bucket-indexed lookup returns the binary search's bits for
    /// every query on random flattenings and hop chains.
    #[test]
    fn sampled_lookup_matches_binary_search_bits(
        inner in lookup_inner_strategy(),
        horizon_ms in 0.5_f64..400.0,
        subdivisions in 0_usize..4,
    ) {
        assert_lookup_matches_binary_search(&inner, Seconds::from_millis(horizon_ms), subdivisions);
    }

    /// Breakpoints crowded into one slot: the fallback search inside a
    /// long slot range returns the binary search's bits too.
    #[test]
    fn sampled_lookup_matches_binary_search_bits_in_one_crowded_slot(
        count in 20_usize..200,
        first_us in 0.5_f64..5.0,
        spacing_us in 0.05_f64..2.0,
        horizon_s in 0.5_f64..5.0,
        subdivisions in 0_usize..3,
    ) {
        let steps = (0..count).map(|k| (first_us + spacing_us * k as f64) * 1.0e-6).collect();
        let inner: SharedEnvelope = Arc::new(Crowded { steps, step_bits: 424.0, rate: 1.0e6 });
        assert_lookup_matches_binary_search(&inner, Seconds::new(horizon_s), subdivisions);
    }

    /// Aggregating N identical flows scales arrivals by N.
    #[test]
    fn aggregate_scales(env in dual_periodic_strategy(), n in 1_usize..6, i in interval_strategy()) {
        let shared: SharedEnvelope = Arc::new(env);
        let agg: Aggregate = std::iter::repeat_with(|| Arc::clone(&shared))
            .take(n)
            .collect();
        let single = shared.arrivals(i).value();
        let total = agg.arrivals(i).value();
        prop_assert!((total - single * n as f64).abs() <= 1e-6 * (1.0 + total.abs()));
    }

    /// Leaky bucket with peak: arrivals always within both constraints.
    #[test]
    fn leaky_bucket_within_constraints(
        sigma in 0.0_f64..1e5,
        rho in 1.0_f64..1e6,
        peak_mul in 1.0_f64..100.0,
        i in interval_strategy(),
    ) {
        let peak = BitsPerSec::new(rho * peak_mul);
        let lb = LeakyBucketEnvelope::new(Bits::new(sigma), BitsPerSec::new(rho))
            .unwrap()
            .with_peak(peak)
            .unwrap();
        let a = lb.arrivals(i).value();
        prop_assert!(a <= sigma + rho * i.value() + 1e-6);
        prop_assert!(a <= peak.value() * i.value() + 1e-6);
    }

    /// Rate-latency analysis of a (σ,ρ) flow matches the closed form for
    /// random parameters.
    #[test]
    fn rate_latency_closed_form(
        sigma in 1.0_f64..1e5,
        rho in 1.0_f64..1e5,
        rate_mul in 1.1_f64..10.0,
        latency_ms in 0.0_f64..50.0,
    ) {
        let arr = LeakyBucketEnvelope::new(Bits::new(sigma), BitsPerSec::new(rho)).unwrap();
        let rate = rho * rate_mul;
        let svc = RateLatencyService::new(BitsPerSec::new(rate), Seconds::from_millis(latency_ms));
        // The busy period sigma/(rate-rho) can be enormous for slow flows;
        // give the search all the horizon it needs.
        let cfg = AnalysisConfig {
            max_horizon: Seconds::new(1.0e8),
            ..AnalysisConfig::default()
        };
        let r = analyze_guaranteed_server(&arr, &svc, &cfg).unwrap();
        let expect_delay = latency_ms * 1e-3 + sigma / rate;
        let expect_backlog = sigma + rho * latency_ms * 1e-3;
        prop_assert!((r.delay_bound.value() - expect_delay).abs() <= 1e-6 * (1.0 + expect_delay));
        prop_assert!(
            (r.backlog_bound.value() - expect_backlog).abs() <= 1e-3 * (1.0 + expect_backlog)
        );
    }

    /// Periodic is the P2 = P1 slice of dual-periodic.
    #[test]
    fn periodic_is_dual_special_case(
        c in 1.0e3_f64..1.0e5,
        p_ms in 1.0_f64..50.0,
        peak_mul in 1.1_f64..10.0,
        i in interval_strategy(),
    ) {
        let p = Seconds::from_millis(p_ms);
        let peak = BitsPerSec::new(c / p.value() * peak_mul);
        let single = PeriodicEnvelope::new(Bits::new(c), p, peak).unwrap();
        let dual =
            DualPeriodicEnvelope::new(Bits::new(c), p, Bits::new(c), p, peak).unwrap();
        let (a, b) = (single.arrivals(i).value(), dual.arrivals(i).value());
        prop_assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()));
    }

    /// Constant-rate flows through a staircase: delay bound is at most
    /// latency_periods * period once stable.
    #[test]
    fn trickle_delay_bounded_by_two_rotations(
        rate in 1.0_f64..1000.0,
        ttrt_ms in 1.0_f64..20.0,
    ) {
        let arr = ConstantRateEnvelope::new(BitsPerSec::new(rate));
        let ttrt = Seconds::from_millis(ttrt_ms);
        let quantum = Bits::new(rate * ttrt.value() * 2.0 + 10.0);
        let svc = StaircaseService::timed_token(ttrt, quantum);
        let r = analyze_guaranteed_server(&arr, &svc, &AnalysisConfig::default()).unwrap();
        prop_assert!(r.delay_bound.value() <= 2.0 * ttrt.value() + 1e-9);
    }
}
