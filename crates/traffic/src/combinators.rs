//! Envelope combinators: transformed views of traffic as it moves through
//! the network.
//!
//! Each server a connection traverses changes how its traffic looks to the
//! next server. The paper expresses those changes as transformations of
//! the maximum-rate function; this module provides them as composable
//! wrappers over any [`Envelope`]:
//!
//! * [`Delayed`] — `A(I + d)`: the sound FIFO output transform for a
//!   server with worst-case delay `d` (Cruz).
//! * [`RateCapped`] — `min(A(I), C·I)`: traffic observed behind a link or
//!   medium of rate `C`.
//! * [`Aggregate`] — the sum of several flows multiplexed together.
//! * [`Scaled`] — `f·A(I)`: constant inflation, e.g. the 53/48 ATM
//!   cell-header overhead when payload envelopes are mapped to wire bits.
//! * [`Quantized`] — `⌈A(I)/q_in⌉·q_out`: packetization, the shape of the
//!   paper's Theorem 2 (frame → cell conversion) and of reassembly.
//! * [`MinOf`] — the pointwise minimum of two valid envelopes (both are
//!   upper bounds, so their minimum is too).

use crate::approx;
use crate::envelope::{min_interval_for, Envelope, SharedEnvelope};
use crate::units::{Bits, BitsPerSec, Seconds};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// FIFO output transform: the traffic leaving a FIFO server whose delay is
/// at most `delay` is bounded by `A(I + delay)`.
#[derive(Debug, Clone)]
pub struct Delayed {
    inner: SharedEnvelope,
    delay: Seconds,
}

impl Delayed {
    /// Wraps `inner` with a worst-case FIFO delay of `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative.
    #[must_use]
    pub fn new(inner: SharedEnvelope, delay: Seconds) -> Self {
        assert!(!delay.is_negative(), "delay must be non-negative");
        Self { inner, delay }
    }

    /// The delay applied by this transform.
    #[must_use]
    pub fn delay(&self) -> Seconds {
        self.delay
    }
}

impl Envelope for Delayed {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.inner.arrivals(interval.clamp_min_zero() + self.delay)
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.inner.sustained_rate()
    }

    fn peak_rate(&self) -> BitsPerSec {
        self.inner.peak_rate()
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        // Shift the inner points in place: a hop chain nests one `Delayed`
        // per hop, and a scratch list per level would allocate per hop.
        let start = out.len();
        self.inner.breakpoints(horizon + self.delay, out);
        let mut kept = start;
        for idx in start..out.len() {
            let p = out[idx].saturating_sub(self.delay);
            if p > Seconds::ZERO {
                out[kept] = p;
                kept += 1;
            }
        }
        out.truncate(kept);
    }
}

/// Rate cap: `min(A(I), cap · I)` — what the traffic can look like after
/// any medium that physically cannot deliver faster than `cap`.
pub struct RateCapped {
    inner: SharedEnvelope,
    cap: BitsPerSec,
    /// Crossings already bisected, keyed by the bit patterns of their
    /// bracket `(a, b)`. One instance is enumerated at many horizons
    /// (once per downstream analysis that reaches it) and most brackets
    /// recur across those calls; the bisection is a pure function of the
    /// bracket, so a hit returns exactly what it would recompute.
    crossings: Mutex<HashMap<(u64, u64), Seconds>>,
}

impl fmt::Debug for RateCapped {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RateCapped")
            .field("inner", &self.inner)
            .field("cap", &self.cap)
            .finish_non_exhaustive()
    }
}

/// A clone starts with an empty crossing memo.
impl Clone for RateCapped {
    fn clone(&self) -> Self {
        Self::new(Arc::clone(&self.inner), self.cap)
    }
}

impl RateCapped {
    /// Caps `inner` at `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not strictly positive.
    #[must_use]
    pub fn new(inner: SharedEnvelope, cap: BitsPerSec) -> Self {
        assert!(cap.value() > 0.0, "cap must be positive");
        Self {
            inner,
            cap,
            crossings: Mutex::default(),
        }
    }

    /// The crossing in `[a, b]`, from the memo or bisected and memoized.
    fn crossing(
        &self,
        a: Seconds,
        b: Seconds,
        above_a: bool,
        above: impl Fn(Seconds) -> bool,
    ) -> Seconds {
        let key = (a.value().to_bits(), b.value().to_bits());
        if let Some(&t) = self.memo().get(&key) {
            return t;
        }
        let t = bisect(a, b, above_a, above);
        self.memo().insert(key, t);
        t
    }

    fn memo(&self) -> MutexGuard<'_, HashMap<(u64, u64), Seconds>> {
        // The guarded map is never left half-updated, so a panic in
        // another holder cannot have corrupted it.
        self.crossings
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Envelope for RateCapped {
    fn arrivals(&self, interval: Seconds) -> Bits {
        let i = interval.clamp_min_zero();
        self.inner.arrivals(i).min(self.cap * i)
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn sustained_rate(&self) -> BitsPerSec {
        let inner = self.inner.sustained_rate();
        if inner <= self.cap {
            inner
        } else {
            self.cap
        }
    }

    fn peak_rate(&self) -> BitsPerSec {
        let inner = self.inner.peak_rate();
        if inner <= self.cap {
            inner
        } else {
            self.cap
        }
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        // The cap line `cap·I` may cross A between inner breakpoints; a
        // crossing is where min() switches branch (slope change). Locate it
        // by inverting A along the cap line via bisection on the sign of
        // A(I) − cap·I, bracketed by inner breakpoints. The inner envelope
        // is enumerated once: its points are both reported and reused as
        // the brackets.
        let start = out.len();
        self.inner.breakpoints(horizon, out);
        let pts = brackets(&out[start..], horizon);
        let above = |i: Seconds| self.inner.arrivals(i) > self.cap * i;
        push_crossings(
            &pts,
            above,
            |a, b, above_a| self.crossing(a, b, above_a, above),
            out,
        );
    }
}

/// The aggregate (sum) of several flows sharing a multiplexing point.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    parts: Vec<SharedEnvelope>,
}

impl Aggregate {
    /// Creates an aggregate of the given flows.
    #[must_use]
    pub fn new(parts: Vec<SharedEnvelope>) -> Self {
        Self { parts }
    }

    /// The number of component flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the aggregate has no component flows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl FromIterator<SharedEnvelope> for Aggregate {
    fn from_iter<T: IntoIterator<Item = SharedEnvelope>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl Extend<SharedEnvelope> for Aggregate {
    fn extend<T: IntoIterator<Item = SharedEnvelope>>(&mut self, iter: T) {
        self.parts.extend(iter);
    }
}

impl Envelope for Aggregate {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.parts.iter().map(|p| p.arrivals(interval)).sum()
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.parts
            .iter()
            .filter_map(|p| p.period_hint())
            .max_by(|a, b| a.total_cmp(b))
    }

    fn sustained_rate(&self) -> BitsPerSec {
        BitsPerSec::new(self.parts.iter().map(|p| p.sustained_rate().value()).sum())
    }

    fn peak_rate(&self) -> BitsPerSec {
        // Summing peaks can overflow f64::MAX sentinels; saturate instead.
        let total: f64 = self
            .parts
            .iter()
            .map(|p| p.peak_rate().value())
            .fold(0.0, |acc, v| (acc + v).min(f64::MAX / 2.0));
        BitsPerSec::new(total)
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        for p in &self.parts {
            p.breakpoints(horizon, out);
        }
    }
}

/// Constant inflation: `A_out(I) = factor · A_in(I)`.
///
/// Used to account for per-cell header overhead: an envelope counted in
/// ATM payload bits becomes wire bits after scaling by 53/48.
#[derive(Debug, Clone)]
pub struct Scaled {
    inner: SharedEnvelope,
    factor: f64,
}

impl Scaled {
    /// Scales `inner` by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    #[must_use]
    pub fn new(inner: SharedEnvelope, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "factor must be finite and positive"
        );
        Self { inner, factor }
    }
}

impl Envelope for Scaled {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.inner.arrivals(interval) * self.factor
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.inner.sustained_rate() * self.factor
    }

    fn peak_rate(&self) -> BitsPerSec {
        let p = self.inner.peak_rate().value();
        BitsPerSec::new((p * self.factor).min(f64::MAX / 2.0))
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        self.inner.breakpoints(horizon, out);
    }
}

/// Packetization: `A_out(I) = ⌈A_in(I) / unit_in⌉ · unit_out`.
///
/// This is the shape of the paper's Theorem 2: a frame of `F_S` bits is
/// converted into `F_C` cells carrying `C_S` payload bits each, so
/// `A_out(I) = ⌈A_in(I)/F_S⌉ · F_C · C_S` with `unit_in = F_S` and
/// `unit_out = F_C · C_S`. The same transform with roles swapped models
/// cell→frame reassembly.
#[derive(Debug, Clone)]
pub struct Quantized {
    inner: SharedEnvelope,
    unit_in: Bits,
    unit_out: Bits,
}

impl Quantized {
    /// Quantizes `inner` from `unit_in`-sized packets to `unit_out` bits
    /// emitted per packet.
    ///
    /// # Panics
    ///
    /// Panics if either unit is not strictly positive.
    #[must_use]
    pub fn new(inner: SharedEnvelope, unit_in: Bits, unit_out: Bits) -> Self {
        assert!(unit_in.value() > 0.0, "unit_in must be positive");
        assert!(unit_out.value() > 0.0, "unit_out must be positive");
        Self {
            inner,
            unit_in,
            unit_out,
        }
    }

    /// The output/input inflation ratio `unit_out / unit_in`.
    #[must_use]
    pub fn inflation(&self) -> f64 {
        self.unit_out.value() / self.unit_in.value()
    }
}

impl Envelope for Quantized {
    fn arrivals(&self, interval: Seconds) -> Bits {
        let a = self.inner.arrivals(interval);
        if a.value() <= 0.0 {
            return Bits::ZERO;
        }
        let units = approx::ceil_div(a.value(), self.unit_in.value());
        self.unit_out * units
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.inner.sustained_rate() * self.inflation()
    }

    fn peak_rate(&self) -> BitsPerSec {
        // Quantization introduces jumps, so the instantaneous rate is
        // unbounded at the jump points.
        BitsPerSec::new(f64::MAX)
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        self.inner.breakpoints(horizon, out);
        // Jumps occur where A_in crosses a multiple of unit_in.
        let total = self.inner.arrivals(horizon).value();
        let n_units = (total / self.unit_in.value()).ceil() as u64;
        // Bound the work: beyond a few thousand crossings, downstream guard
        // subdivisions have to carry the precision.
        let cap = 8192;
        for k in 1..=n_units.min(cap) {
            let level = self.unit_in * k as f64;
            if let Some(t) = min_interval_for(&*self.inner, level, horizon) {
                if t > Seconds::ZERO && t <= horizon {
                    out.push(t);
                }
            }
        }
    }
}

/// Additive padding: `A_out(I) = A_in(I) + pad` for every `I ≥ 0`.
///
/// Used for sound, cheap relaxations of quantization effects: rounding a
/// stream up to whole frames (`⌈A/u⌉·u`) is dominated by `A·(u'/u) + u'`,
/// which has no staircase corners to enumerate.
#[derive(Debug, Clone)]
pub struct Padded {
    inner: SharedEnvelope,
    pad: Bits,
}

impl Padded {
    /// Pads `inner` by a constant `pad` bits.
    ///
    /// # Panics
    ///
    /// Panics if `pad` is negative.
    #[must_use]
    pub fn new(inner: SharedEnvelope, pad: Bits) -> Self {
        assert!(!pad.is_negative(), "pad must be non-negative");
        Self { inner, pad }
    }
}

impl Envelope for Padded {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.inner.arrivals(interval) + self.pad
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.inner.sustained_rate()
    }

    fn peak_rate(&self) -> BitsPerSec {
        self.inner.peak_rate()
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        self.inner.breakpoints(horizon, out);
    }
}

/// A flattened piecewise-linear cache of another envelope.
///
/// Deeply nested envelope chains (a Theorem-1.4 output inside a Theorem-2
/// quantization inside an aggregate…) make every `arrivals` call walk the
/// whole chain. `Sampled` evaluates the chain once at its candidate
/// points within a horizon and serves interpolated lookups from the
/// table; queries beyond the horizon fall through to the inner envelope,
/// so the cache never changes results outside its sampled range by more
/// than the interpolation between adjacent candidate points.
#[derive(Debug, Clone)]
pub struct Sampled {
    inner: SharedEnvelope,
    ts: Vec<f64>,
    vals: Vec<f64>,
    /// The inner envelope's natural breakpoints (no guards or
    /// subdivisions) — what downstream optimizers should treat as this
    /// envelope's corners, keeping candidate sets from compounding.
    natural: Vec<f64>,
    horizon: f64,
    /// Bucket index over `[0, horizon]`: slot `k` covers
    /// `[k / scale, (k + 1) / scale)` and holds the first index of `ts`
    /// whose time is at or after the slot's start. One slot per
    /// [`SAMPLES_PER_SLOT`] samples.
    slots: Vec<u32>,
    /// Slots per second: `slots.len() / horizon`.
    scale: f64,
}

/// Samples per bucket-index slot in [`Sampled`]: the index costs a
/// quarter of a `u32` per sample.
const SAMPLES_PER_SLOT: usize = 4;

/// Forward-scan steps from a slot's first sample before a lookup
/// binary-searches the rest of the slot (many breakpoints crowded into
/// one slot).
const MAX_SCAN: usize = 8;

impl Sampled {
    /// Flattens `inner` over `[0, horizon]`, sampling at its candidate
    /// points with `subdivisions` guard points per gap.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not strictly positive.
    #[must_use]
    pub fn flatten(inner: SharedEnvelope, horizon: Seconds, subdivisions: usize) -> Self {
        assert!(horizon.value() > 0.0, "horizon must be positive");
        let ts_raw = crate::envelope::candidate_times(&[&inner], &[], horizon, subdivisions);
        let mut ts = Vec::with_capacity(ts_raw.len() + 1);
        let mut vals = Vec::with_capacity(ts_raw.len() + 1);
        if ts_raw.first().is_none_or(|t| t.value() > 0.0) {
            ts.push(0.0);
            vals.push(inner.arrivals(Seconds::ZERO).value());
        }
        for t in ts_raw {
            ts.push(t.value());
            vals.push(inner.arrivals(t).value());
        }
        // Derive this envelope's corners from its own table: points where
        // the interpolated slope changes materially. This keeps the
        // reported breakpoint count proportional to the envelope's real
        // complexity instead of inheriting every ancestor's candidate
        // points (deep chains otherwise compound multiplicatively).
        let mut slopes = Vec::with_capacity(ts.len().saturating_sub(1));
        for w in 0..ts.len().saturating_sub(1) {
            let dt = ts[w + 1] - ts[w];
            slopes.push(if dt > 0.0 {
                (vals[w + 1] - vals[w]) / dt
            } else {
                0.0
            });
        }
        let max_slope = slopes.iter().fold(0.0_f64, |m, &s| m.max(s.abs()));
        let thresh = 1.0e-6 * (max_slope + 1.0e-30);
        let mut natural = Vec::new();
        for i in 1..slopes.len() {
            if (slopes[i] - slopes[i - 1]).abs() > thresh && ts[i] > 0.0 {
                natural.push(ts[i]);
            }
        }
        natural.dedup_by(|a, b| approx::approx_eq(*a, *b));
        let horizon = horizon.value();
        let (slots, scale) = Self::bucket_index(&ts, horizon);
        Self {
            inner,
            ts,
            vals,
            natural,
            horizon,
            slots,
            scale,
        }
    }

    /// Builds the bucket index of `ts` over `[0, horizon]`.
    fn bucket_index(ts: &[f64], horizon: f64) -> (Vec<u32>, f64) {
        let n = (ts.len() / SAMPLES_PER_SLOT).max(1);
        let scale = n as f64 / horizon;
        let mut slots = Vec::with_capacity(n);
        let mut first = 0;
        for k in 0..n {
            let start = k as f64 / scale;
            while first < ts.len() && ts[first].total_cmp(&start).is_lt() {
                first += 1;
            }
            slots.push(u32::try_from(first).expect("sample table fits a u32 index"));
        }
        (slots, scale)
    }

    /// `ts.binary_search_by(|t| t.total_cmp(&i))` for a query `i` of
    /// `arrivals` (not above the horizon, but possibly `-0.0` or NaN of
    /// either sign), found through the bucket index: scan forward from
    /// the first sample of `i`'s slot. Rounding can put `i` just before
    /// its slot's start; a crowded slot binary-searches the rest of its
    /// range after [`MAX_SCAN`] steps.
    fn position(&self, i: f64) -> Result<usize, usize> {
        let ts = &self.ts;
        let below = |t: &f64| t.total_cmp(&i).is_lt();
        // Saturating (NaN maps to slot 0); a `u32` cast is cheaper than a
        // `usize` one, and the slot count fits a `u32`.
        let k = ((i * self.scale) as u32 as usize).min(self.slots.len() - 1);
        let first = self.slots[k] as usize;
        let at = if first > 0 && !below(&ts[first - 1]) {
            ts[..first].partition_point(below)
        } else {
            let end = (first + MAX_SCAN).min(ts.len());
            let mut at = first;
            while at < end && below(&ts[at]) {
                at += 1;
            }
            if at == end {
                // Samples from the next slot's first one on are not below
                // `i`, unless rounding put `i` past that slot's start.
                let next = self.slots.get(k + 1).map_or(ts.len(), |&s| s as usize);
                let hi = match ts.get(next) {
                    Some(t) if next >= at && !below(t) => next,
                    _ => ts.len(),
                };
                at + ts[at..hi].partition_point(below)
            } else {
                at
            }
        };
        match ts.get(at) {
            Some(t) if t.total_cmp(&i).is_eq() => Ok(at),
            _ => Err(at),
        }
    }

    /// The number of sample points held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// The sample table: interval points (seconds) paired with arrival
    /// values (bits). Within the horizon, `arrivals` is exactly the
    /// linear interpolation of this table (constant beyond the last
    /// sample), so any affine function dominating the table at its
    /// sample points dominates the served envelope on `[0, horizon]`.
    #[must_use]
    pub fn samples(&self) -> (&[f64], &[f64]) {
        (&self.ts, &self.vals)
    }

    /// The flattening horizon in seconds. Queries beyond it fall through
    /// to the inner envelope and are not covered by the sample table.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Whether the cache is empty (never true for a flattened envelope).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }
}

impl Envelope for Sampled {
    fn arrivals(&self, interval: Seconds) -> Bits {
        let i = interval.clamp_min_zero().value();
        if i > self.horizon || self.ts.is_empty() {
            return self.inner.arrivals(interval);
        }
        match self.position(i) {
            Ok(idx) => Bits::new(self.vals[idx]),
            Err(0) => Bits::new(self.vals[0]),
            Err(idx) if idx >= self.ts.len() => Bits::new(*self.vals.last().expect("non-empty")),
            Err(idx) => {
                let (t0, t1) = (self.ts[idx - 1], self.ts[idx]);
                let (v0, v1) = (self.vals[idx - 1], self.vals[idx]);
                let frac = if t1 > t0 { (i - t0) / (t1 - t0) } else { 0.0 };
                Bits::new(v0 + frac * (v1 - v0))
            }
        }
    }

    fn sustained_rate(&self) -> BitsPerSec {
        self.inner.sustained_rate()
    }

    fn peak_rate(&self) -> BitsPerSec {
        self.inner.peak_rate()
    }

    fn period_hint(&self) -> Option<Seconds> {
        self.inner.period_hint()
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        let h = horizon.value();
        out.extend(
            self.natural
                .iter()
                .copied()
                .filter(|&t| t <= h)
                .map(Seconds::new),
        );
        if h > self.horizon {
            self.inner.breakpoints(horizon, out);
        }
    }
}

/// Pointwise minimum of two envelopes (both bound the same traffic, so the
/// minimum is also a bound — e.g. a source model combined with a
/// regulator's contract).
#[derive(Debug, Clone)]
pub struct MinOf {
    a: SharedEnvelope,
    b: SharedEnvelope,
}

impl MinOf {
    /// Creates the pointwise minimum of `a` and `b`.
    #[must_use]
    pub fn new(a: SharedEnvelope, b: SharedEnvelope) -> Self {
        Self { a, b }
    }
}

impl Envelope for MinOf {
    fn arrivals(&self, interval: Seconds) -> Bits {
        self.a.arrivals(interval).min(self.b.arrivals(interval))
    }

    fn period_hint(&self) -> Option<Seconds> {
        match (self.a.period_hint(), self.b.period_hint()) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        }
    }

    fn sustained_rate(&self) -> BitsPerSec {
        let (ra, rb) = (self.a.sustained_rate(), self.b.sustained_rate());
        if ra <= rb {
            ra
        } else {
            rb
        }
    }

    fn peak_rate(&self) -> BitsPerSec {
        let (pa, pb) = (self.a.peak_rate(), self.b.peak_rate());
        if pa <= pb {
            pa
        } else {
            pb
        }
    }

    fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
        // Branch-switch points of the min are also slope changes; both
        // operands are enumerated once and their points reused as brackets.
        let start = out.len();
        self.a.breakpoints(horizon, out);
        self.b.breakpoints(horizon, out);
        let pts = brackets(&out[start..], horizon);
        let a_below = |i: Seconds| self.a.arrivals(i) < self.b.arrivals(i);
        push_crossings(
            &pts,
            a_below,
            |a, b, below_a| bisect(a, b, below_a, a_below),
            out,
        );
    }
}

/// The sorted bracket list for a crossing search: `inner` (an operand's
/// reported breakpoints) plus the interval ends `0` and `horizon`.
fn brackets(inner: &[Seconds], horizon: Seconds) -> Vec<Seconds> {
    let mut pts = Vec::with_capacity(inner.len() + 2);
    pts.extend_from_slice(inner);
    pts.push(Seconds::ZERO);
    pts.push(horizon);
    pts.sort_by(Seconds::total_cmp);
    pts
}

/// Appends, for every pair of adjacent `pts` (sorted) on which `side`
/// differs, the point where it switches, as located by `solve(a, b,
/// side(a))`.
///
/// `side` is evaluated once per bracket point: each point's side serves
/// both windows it bounds.
fn push_crossings(
    pts: &[Seconds],
    side: impl Fn(Seconds) -> bool,
    mut solve: impl FnMut(Seconds, Seconds, bool) -> Seconds,
    out: &mut Vec<Seconds>,
) {
    let mut points = pts.iter().copied();
    let Some(mut a) = points.next() else {
        return;
    };
    let mut side_a = side(a);
    for b in points {
        let side_b = side(b);
        if side_a != side_b {
            out.push(solve(a, b, side_a));
        }
        (a, side_a) = (b, side_b);
    }
}

/// The switch point of `side` in `[a, b]`, given `side(a) == side_a` and
/// `side(b) != side_a`: the upper end of the bracket after 60 halvings.
///
/// Each halving keeps `side(lo) == side_a` and `side(hi) != side_a`, so
/// once the midpoint rounds onto either end of the bracket the step
/// leaves it unchanged, and so does every later one: the loop stops
/// there, with the bits 60 halvings would return.
pub(crate) fn bisect(
    a: Seconds,
    b: Seconds,
    side_a: bool,
    side: impl Fn(Seconds) -> bool,
) -> Seconds {
    let (mut lo, mut hi) = (a.value(), b.value());
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if side(Seconds::new(mid)) == side_a {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Seconds::new(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{ConstantRateEnvelope, LeakyBucketEnvelope, PeriodicEnvelope};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn lb(sigma: f64, rho: f64) -> SharedEnvelope {
        Arc::new(LeakyBucketEnvelope::new(Bits::new(sigma), BitsPerSec::new(rho)).unwrap())
    }

    #[test]
    fn delayed_shifts_interval() {
        let d = Delayed::new(lb(100.0, 10.0), Seconds::new(2.0));
        // A(I + 2) = 100 + 10*(I+2)
        assert_eq!(d.arrivals(Seconds::ZERO).value(), 120.0);
        assert_eq!(d.arrivals(Seconds::new(3.0)).value(), 150.0);
        assert_eq!(d.delay().value(), 2.0);
        assert_eq!(d.sustained_rate().value(), 10.0);
    }

    #[test]
    fn delayed_dominates_original() {
        let inner = lb(100.0, 10.0);
        let d = Delayed::new(Arc::clone(&inner), Seconds::new(0.5));
        for k in 0..50 {
            let i = Seconds::new(k as f64 * 0.3);
            assert!(d.arrivals(i) >= inner.arrivals(i));
        }
    }

    #[test]
    fn rate_capped_takes_min() {
        let c = RateCapped::new(lb(100.0, 10.0), BitsPerSec::new(50.0));
        // At small I the cap wins: 50*I < 100 + 10I for I < 2.5.
        assert_eq!(c.arrivals(Seconds::new(1.0)).value(), 50.0);
        // At large I the bucket wins.
        assert_eq!(c.arrivals(Seconds::new(10.0)).value(), 200.0);
        assert_eq!(c.sustained_rate().value(), 10.0);
        assert_eq!(c.peak_rate().value(), 50.0);
        assert_eq!(c.burst(), Bits::ZERO);
    }

    #[test]
    fn rate_capped_reports_crossing_breakpoint() {
        let c = RateCapped::new(lb(100.0, 10.0), BitsPerSec::new(50.0));
        let mut pts = Vec::new();
        c.breakpoints(Seconds::new(10.0), &mut pts);
        // crossing at 100 + 10I = 50I => I = 2.5
        assert!(
            pts.iter().any(|p| (p.value() - 2.5).abs() < 1e-6),
            "crossing breakpoint missing: {pts:?}"
        );
    }

    #[test]
    fn aggregate_sums_flows() {
        let agg: Aggregate = vec![lb(10.0, 1.0), lb(20.0, 2.0), lb(30.0, 3.0)]
            .into_iter()
            .collect();
        assert_eq!(agg.len(), 3);
        assert!(!agg.is_empty());
        assert_eq!(agg.arrivals(Seconds::new(1.0)).value(), 66.0);
        assert_eq!(agg.sustained_rate().value(), 6.0);
        assert_eq!(agg.burst().value(), 60.0);
    }

    #[test]
    fn aggregate_empty_is_zero() {
        let agg = Aggregate::default();
        assert!(agg.is_empty());
        assert_eq!(agg.arrivals(Seconds::new(5.0)), Bits::ZERO);
        assert_eq!(agg.sustained_rate(), BitsPerSec::ZERO);
    }

    #[test]
    fn aggregate_extend() {
        let mut agg = Aggregate::default();
        agg.extend([lb(1.0, 1.0)]);
        agg.extend([lb(2.0, 1.0)]);
        assert_eq!(agg.len(), 2);
    }

    #[test]
    fn aggregate_peak_saturates() {
        let a = Arc::new(ConstantRateEnvelope::new(BitsPerSec::new(1.0)));
        let b = lb(1.0, 1.0); // peak f64::MAX
        let agg = Aggregate::new(vec![a, b]);
        assert!(agg.peak_rate().value() <= f64::MAX / 2.0);
    }

    #[test]
    fn scaled_inflates() {
        let s = Scaled::new(lb(48.0, 48.0), 53.0 / 48.0);
        assert_eq!(s.arrivals(Seconds::ZERO).value(), 53.0);
        assert_eq!(s.arrivals(Seconds::new(1.0)).value(), 106.0);
        assert_eq!(s.sustained_rate().value(), 53.0);
    }

    #[test]
    fn quantized_matches_theorem2_shape() {
        // Frames of 1000 bits become 3 cells of 384 payload bits each.
        let inner = Arc::new(ConstantRateEnvelope::new(BitsPerSec::new(1000.0)));
        let q = Quantized::new(inner, Bits::new(1000.0), Bits::new(3.0 * 384.0));
        // A_in(0.5) = 500 -> ceil(0.5) = 1 frame -> 1152 bits.
        assert_eq!(q.arrivals(Seconds::new(0.5)).value(), 1152.0);
        // A_in(1.0) = 1000 -> exactly 1 frame.
        assert_eq!(q.arrivals(Seconds::new(1.0)).value(), 1152.0);
        // A_in(1.5) = 1500 -> 2 frames.
        assert_eq!(q.arrivals(Seconds::new(1.5)).value(), 2304.0);
        assert_eq!(q.arrivals(Seconds::ZERO), Bits::ZERO);
        assert!((q.inflation() - 1.152).abs() < 1e-12);
        assert_eq!(q.sustained_rate().value(), 1152.0);
    }

    #[test]
    fn quantized_breakpoints_cover_crossings() {
        let inner = Arc::new(ConstantRateEnvelope::new(BitsPerSec::new(1000.0)));
        let q = Quantized::new(inner, Bits::new(1000.0), Bits::new(1152.0));
        let mut pts = Vec::new();
        q.breakpoints(Seconds::new(3.5), &mut pts);
        for expect in [1.0, 2.0, 3.0] {
            assert!(
                pts.iter().any(|p| (p.value() - expect).abs() < 1e-6),
                "missing crossing at {expect}: {pts:?}"
            );
        }
    }

    #[test]
    fn quantized_dominates_input() {
        let inner: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(
                Bits::new(2500.0),
                Seconds::new(1.0),
                BitsPerSec::new(10_000.0),
            )
            .unwrap(),
        );
        let q = Quantized::new(Arc::clone(&inner), Bits::new(1000.0), Bits::new(1000.0));
        // With unit_out == unit_in, quantization only rounds up (modulo
        // the ~1e-9 relative nudge of ceil_div).
        for k in 0..100 {
            let i = Seconds::new(k as f64 * 0.03);
            assert!(q.arrivals(i) >= inner.arrivals(i) - Bits::new(1e-4));
        }
    }

    #[test]
    fn min_of_takes_pointwise_min() {
        let m = MinOf::new(lb(100.0, 10.0), lb(10.0, 50.0));
        // At I=0: min(100, 10) = 10. At I=10: min(200, 510) = 200.
        assert_eq!(m.arrivals(Seconds::ZERO).value(), 10.0);
        assert_eq!(m.arrivals(Seconds::new(10.0)).value(), 200.0);
        assert_eq!(m.sustained_rate().value(), 10.0);
        // Crossing at 100+10I = 10+50I => I = 2.25
        let mut pts = Vec::new();
        m.breakpoints(Seconds::new(10.0), &mut pts);
        assert!(pts.iter().any(|p| (p.value() - 2.25).abs() < 1e-6));
    }

    #[test]
    fn composition_chains() {
        // Delay, then cap, then quantize: a miniature server chain.
        let src = lb(1000.0, 100.0);
        let after_mac = Arc::new(Delayed::new(src, Seconds::new(0.1)));
        let on_ring = Arc::new(RateCapped::new(after_mac, BitsPerSec::new(5000.0)));
        let cells = Quantized::new(on_ring, Bits::new(500.0), Bits::new(530.0));
        let a = cells.arrivals(Seconds::new(1.0));
        // A_in(1.1) = 1000 + 110 = 1110; capped: min(1110, 5000) = 1110;
        // ceil(1110/500) = 3 frames -> 1590.
        assert_eq!(a.value(), 1590.0);
    }

    /// A leaky bucket that counts how often its breakpoints are enumerated.
    #[derive(Debug)]
    struct CountingRoot {
        inner: LeakyBucketEnvelope,
        enumerations: AtomicUsize,
    }

    impl CountingRoot {
        fn new() -> Arc<Self> {
            let inner = LeakyBucketEnvelope::new(Bits::new(4000.0), BitsPerSec::new(1.0e5))
                .unwrap()
                .with_peak(BitsPerSec::new(1.0e6))
                .unwrap();
            Arc::new(Self {
                inner,
                enumerations: AtomicUsize::new(0),
            })
        }

        fn enumerations(&self) -> usize {
            self.enumerations.load(Ordering::Relaxed)
        }
    }

    impl Envelope for CountingRoot {
        fn arrivals(&self, interval: Seconds) -> Bits {
            self.inner.arrivals(interval)
        }

        fn sustained_rate(&self) -> BitsPerSec {
            self.inner.sustained_rate()
        }

        fn peak_rate(&self) -> BitsPerSec {
            self.inner.peak_rate()
        }

        fn breakpoints(&self, horizon: Seconds, out: &mut Vec<Seconds>) {
            self.enumerations.fetch_add(1, Ordering::Relaxed);
            self.inner.breakpoints(horizon, out);
        }
    }

    #[test]
    fn hop_chain_enumerates_root_once() {
        // Eight hops, each a FIFO delay behind a rate cap: one path from
        // the top to the root, so one enumeration of the root.
        let root = CountingRoot::new();
        let mut chain: SharedEnvelope = root.clone();
        for hop in 0..8 {
            let delayed = Arc::new(Delayed::new(chain, Seconds::from_millis(1.0 + hop as f64)));
            chain = Arc::new(RateCapped::new(
                delayed,
                BitsPerSec::new(5.0e5 - 2.0e4 * hop as f64),
            ));
        }
        let mut pts = Vec::new();
        chain.breakpoints(Seconds::new(0.2), &mut pts);
        assert_eq!(root.enumerations(), 1);
        assert!(!pts.is_empty());
    }

    #[test]
    fn min_of_tree_enumerates_root_once_per_leaf() {
        // Two levels of MinOf over four leaves that all reach one root.
        let root = CountingRoot::new();
        let leaf = |delay_ms: f64| -> SharedEnvelope {
            Arc::new(Delayed::new(root.clone(), Seconds::from_millis(delay_ms)))
        };
        let left = Arc::new(MinOf::new(leaf(0.0), leaf(2.0)));
        let right = Arc::new(MinOf::new(leaf(4.0), leaf(6.0)));
        let tree = MinOf::new(left, right);
        let mut pts = Vec::new();
        tree.breakpoints(Seconds::new(0.2), &mut pts);
        assert_eq!(root.enumerations(), 4);
    }
    /// Reference bisection: always 60 halvings.
    fn bisect_60(a: f64, b: f64, side_a: bool, side: impl Fn(f64) -> bool) -> f64 {
        let (mut lo, mut hi) = (a, b);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if side(mid) == side_a {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Stopping once the midpoint rounds onto the bracket returns the
        /// bits of the full 60 halvings, for thresholds anywhere in random
        /// brackets (including a hair from either end) and both sides.
        #[test]
        fn bisect_early_exit_matches_sixty_halvings(
            a in -3.0_f64..3.0,
            width_exp in -14.0_f64..3.0,
            frac in 0.0_f64..1.0,
            snap in 0_u32..4,
            rising in proptest::bool::ANY,
        ) {
            let b = a + 10.0_f64.powf(width_exp);
            // Threshold strictly inside (a, b]: interior, the ulp next to
            // either end, or `b` itself.
            let t = match snap {
                0 => (a + frac * (b - a)).clamp(a.next_up(), b),
                1 => a.next_up(),
                2 => b.next_down(),
                _ => b,
            };
            // `rising`: false below the threshold; otherwise true below it.
            let side = |x: f64| (x >= t) == rising;
            let side_a = side(a);
            let fast = bisect(Seconds::new(a), Seconds::new(b), side_a, |x| side(x.value()));
            proptest::prop_assert_eq!(
                fast.value().to_bits(),
                bisect_60(a, b, side_a, side).to_bits()
            );
        }
    }
}

#[cfg(test)]
mod sampled_tests {
    use super::*;
    use crate::models::{DualPeriodicEnvelope, PeriodicEnvelope};
    use crate::units::BitsPerSec;
    use std::sync::Arc;

    fn dual() -> SharedEnvelope {
        Arc::new(
            DualPeriodicEnvelope::new(
                Bits::new(300.0),
                Seconds::new(1.0),
                Bits::new(100.0),
                Seconds::new(0.25),
                BitsPerSec::new(1000.0),
            )
            .unwrap(),
        )
    }

    #[test]
    fn matches_inner_at_and_between_samples() {
        let inner = dual();
        let s = Sampled::flatten(Arc::clone(&inner), Seconds::new(2.0), 2);
        assert!(!s.is_empty());
        assert!(s.len() > 10);
        for k in 0..400 {
            let i = Seconds::new(k as f64 * 0.005);
            let (a, b) = (s.arrivals(i).value(), inner.arrivals(i).value());
            // The dual-periodic envelope is PWL with corners in the
            // candidate set, so interpolation is exact.
            assert!((a - b).abs() < 1e-6, "mismatch at {i}: {a} vs {b}");
        }
    }

    #[test]
    fn falls_through_beyond_horizon() {
        let inner = dual();
        let s = Sampled::flatten(Arc::clone(&inner), Seconds::new(1.0), 0);
        let far = Seconds::new(5.3);
        assert_eq!(s.arrivals(far), inner.arrivals(far));
    }

    #[test]
    fn metadata_passthrough() {
        let inner = dual();
        let s = Sampled::flatten(Arc::clone(&inner), Seconds::new(1.0), 0);
        assert_eq!(s.sustained_rate(), inner.sustained_rate());
        assert_eq!(s.peak_rate(), inner.peak_rate());
        assert_eq!(s.period_hint(), inner.period_hint());
    }

    #[test]
    fn breakpoints_within_horizon_are_samples() {
        let inner: SharedEnvelope = Arc::new(
            PeriodicEnvelope::new(Bits::new(100.0), Seconds::new(0.5), BitsPerSec::new(1000.0))
                .unwrap(),
        );
        let s = Sampled::flatten(inner, Seconds::new(1.0), 0);
        let mut pts = Vec::new();
        s.breakpoints(Seconds::new(0.8), &mut pts);
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|p| p.value() > 0.0 && p.value() <= 0.8));
    }

    #[test]
    fn monotone_lookup() {
        let s = Sampled::flatten(dual(), Seconds::new(2.0), 3);
        let mut prev = Bits::ZERO;
        for k in 0..500 {
            let v = s.arrivals(Seconds::new(k as f64 * 0.004));
            assert!(v >= prev - Bits::new(1e-9));
            prev = v;
        }
    }
}
