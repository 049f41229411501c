//! Exact order statistics over per-call samples.
//!
//! Every latency the benchmark reports is read off the sorted vector of
//! the samples themselves — never off a bucketed histogram — so a
//! reported p50 or tail value is a time some call really took.

/// Percentile ladder the tail statistic climbs, as fractions. It stops
/// at p99: above that, the tail of a run of a few seconds is timer and
/// scheduler jitter of the host, not the program. Its rungs are far
/// apart, so a run size only moves the rung at a 2–5× step.
const LADDER: [f64; 5] = [0.5, 0.75, 0.9, 0.95, 0.99];

/// Minimum number of samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sorted samples with nearest-rank quantiles.
#[derive(Debug)]
pub struct Sorted(Vec<f64>);

impl Sorted {
    /// Sorts `samples` (NaN-free by construction: they are durations).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self(samples)
    }

    /// Nearest-rank quantile: the sample of 1-based rank `ceil(q·n)`.
    /// `q = 0.5` is the lower median. Panics on an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        self.0[rank(q, self.0.len()) - 1]
    }

    /// The highest ladder percentile with at least [`TAIL_BEYOND`]
    /// samples ranked beyond it, and its value. Falls back to the
    /// median when the sample is too small for any rung.
    pub fn tail(&self) -> (f64, f64) {
        let q = tail_percentile(self.0.len());
        (q, self.quantile(q))
    }
}

/// The highest ladder percentile leaving [`TAIL_BEYOND`] of `n`
/// samples beyond it (the median when none does).
fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| beyond(q, n) >= TAIL_BEYOND)
        .unwrap_or(0.5)
}

/// Samples of `n` ranked beyond the `q`-quantile.
pub fn beyond(q: f64, n: usize) -> usize {
    n - rank(q, n)
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    // The epsilon keeps exact products (0.9 × 100 = 90.00000000000001)
    // from rounding up a rank.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Quartiles over consecutive chunks of a run.
///
/// Host interference on a shared machine arrives in bursts that slow a
/// process by up to ~2× for seconds at a time. Splitting the timed
/// phase into [`CHUNKS`] consecutive, equal-length chunks and reading a
/// quartile across them reports the program's speed outside those
/// bursts, as long as a quarter of the run escaped them.
pub const CHUNKS: usize = 32;

/// Upper quartile over chunks of `len / Σ walls`: decisions per second.
pub fn chunked_rate(walls: &[f64]) -> f64 {
    let rates: Vec<f64> = chunks(walls)
        .map(|part| part.len() as f64 / part.iter().sum::<f64>())
        .collect();
    Sorted::new(rates).quantile(0.75)
}

/// Lower quartile over chunks of each chunk's exact `q`-quantile.
pub fn chunked_quantile(latencies: &[f64], q: f64) -> f64 {
    let per_chunk: Vec<f64> = chunks(latencies)
        .map(|part| Sorted::new(part.to_vec()).quantile(q))
        .collect();
    Sorted::new(per_chunk).quantile(0.25)
}

/// The tail percentile a chunk supports (see [`Sorted::tail`]) and the
/// lower quartile over chunks of each chunk's exact value there.
pub fn chunked_tail(latencies: &[f64]) -> (f64, f64) {
    let size = latencies.len() / CHUNKS.clamp(1, latencies.len().max(1));
    let q = tail_percentile(size);
    (q, chunked_quantile(latencies, q))
}

fn chunks(values: &[f64]) -> impl Iterator<Item = &[f64]> {
    let n = CHUNKS.clamp(1, values.len().max(1));
    let size = values.len() / n;
    (0..n).map(move |c| &values[c * size..(c + 1) * size])
}

/// Median of a small set of repeated measurements (lower median).
pub fn median(values: &[f64]) -> f64 {
    Sorted::new(values.to_vec()).quantile(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_vector() {
        // 1..=100 shuffled: the q-quantile is exactly 100·q.
        let v: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100 + 1)).collect();
        let s = Sorted::new(v);
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s = Sorted::new((1..=100).map(f64::from).collect());
        // p90 leaves exactly 10 beyond; p95 would leave 5.
        assert_eq!(s.tail(), (0.9, 90.0));
        let s = Sorted::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.tail(), (0.99, 990.0));
        let s = Sorted::new((1..=100_000).map(f64::from).collect());
        assert_eq!(s.tail(), (0.99, 99_000.0));
        let s = Sorted::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.tail(), (0.5, 2.0));
    }

    #[test]
    fn chunk_quartiles_ignore_a_slow_half() {
        // Half the run twice as slow: the quartiles still read the
        // fast half.
        let walls: Vec<f64> = (0..3200)
            .map(|i| if i < 1600 { 0.002 } else { 0.001 })
            .collect();
        assert!((chunked_rate(&walls) - 1000.0).abs() < 1e-6);
        assert_eq!(chunked_quantile(&walls, 0.5), 0.001);
        // 100 samples per chunk: p90 leaves exactly 10 beyond.
        assert_eq!(chunked_tail(&walls), (0.9, 0.001));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[0.3, 0.1, 0.2]), 0.2);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
