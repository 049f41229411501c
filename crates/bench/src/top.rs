//! `hetnet-top`: parsing and rendering for live run telemetry.
//!
//! The service layer cuts periodic OpenMetrics-text snapshots of its
//! [`hetnet_obs::MetricsRegistry`] into a shared ring (see
//! `hetnet_service::ObsOptions::telemetry_period`). This module turns
//! one such frame back into numbers ([`parse`]) and into the aligned
//! one-screen dashboard the `hetnet_top` binary redraws while a
//! sharded run is going ([`render_frame`]).
//!
//! The parser covers exactly what
//! [`MetricsRegistry::to_openmetrics`](hetnet_obs::MetricsRegistry)
//! emits — `# HELP`/`# TYPE` headers, label sets with `\\`, `\"` and
//! `\n` escapes, plain f64 values — and ignores anything else rather
//! than failing: a dashboard that dies on a new metric family would be
//! worse than one that omits it.

use std::fmt::Write as _;

/// One parsed sample line of an OpenMetrics exposition.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricLine {
    /// Family (or `_count`/`_sum`/`_max` series) name.
    pub name: String,
    /// Label pairs in exposition order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Parses every sample line of an OpenMetrics text exposition,
/// skipping comments (`# HELP`, `# TYPE`), blank lines, and anything
/// malformed.
#[must_use]
pub fn parse(text: &str) -> Vec<MetricLine> {
    text.lines().filter_map(parse_line).collect()
}

fn parse_line(line: &str) -> Option<MetricLine> {
    let line = line.trim_end();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (name_and_labels, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match name_and_labels.split_once('{') {
        None => (name_and_labels.to_string(), Vec::new()),
        Some((name, rest)) => (name.to_string(), parse_labels(rest.strip_suffix('}')?)?),
    };
    Some(MetricLine {
        name,
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b',' {
            i += 1;
        }
        let eq = body[i..].find('=')? + i;
        let key = body[i..eq].to_string();
        if bytes.get(eq + 1) != Some(&b'"') {
            return None;
        }
        let mut value = String::new();
        let mut j = eq + 2;
        loop {
            match *bytes.get(j)? {
                b'\\' => {
                    match bytes.get(j + 1)? {
                        b'n' => value.push('\n'),
                        &c => value.push(c as char),
                    }
                    j += 2;
                }
                b'"' => {
                    j += 1;
                    break;
                }
                _ => {
                    let ch_start = j;
                    j += 1;
                    while j < bytes.len() && !body.is_char_boundary(j) {
                        j += 1;
                    }
                    value.push_str(&body[ch_start..j]);
                }
            }
        }
        labels.push((key, value));
        i = j;
    }
    Some(labels)
}

/// The value of the sample matching `name` with exactly `labels`
/// (order-sensitive, as the registry emits a canonical sorted order).
#[must_use]
pub fn find(lines: &[MetricLine], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    lines
        .iter()
        .find(|l| {
            l.name == name
                && l.labels.len() == labels.len()
                && l.labels
                    .iter()
                    .zip(labels)
                    .all(|((lk, lv), (k, v))| lk == k && lv == v)
        })
        .map(|l| l.value)
}

/// Sum over every sample of family `name`, regardless of labels.
#[must_use]
pub fn sum(lines: &[MetricLine], name: &str) -> f64 {
    lines
        .iter()
        .filter(|l| l.name == name)
        .map(|l| l.value)
        .sum()
}

fn get(lines: &[MetricLine], name: &str, labels: &[(&str, &str)]) -> f64 {
    find(lines, name, labels).unwrap_or(0.0)
}

fn hit_pct(lines: &[MetricLine], stage: &str) -> f64 {
    let hits = get(
        lines,
        "hetnet_cache_lookups_total",
        &[("result", "hit"), ("stage", stage)],
    );
    let misses = get(
        lines,
        "hetnet_cache_lookups_total",
        &[("result", "miss"), ("stage", stage)],
    );
    if hits + misses > 0.0 {
        hits / (hits + misses) * 100.0
    } else {
        0.0
    }
}

/// Renders one telemetry frame as the `hetnet-top` dashboard: a fixed
/// set of aligned lines covering decisions, latency quantiles, cache
/// hit rates, per-shard speculation counts, and the flight recorder.
/// Families absent from the frame render as zeros, so the dashboard is
/// stable from the first frame on.
#[must_use]
pub fn render_frame(at: f64, text: &str) -> String {
    let lines = parse(text);
    let mut out = String::with_capacity(512);
    let _ = writeln!(out, "hetnet-top   t = {at:.1} s simulated");
    let _ = writeln!(
        out,
        "decisions    admitted {:>8}  rejected {:>8}  active {:>8}  ledger v{}",
        get(&lines, "hetnet_decisions_total", &[("outcome", "admit")]),
        get(&lines, "hetnet_decisions_total", &[("outcome", "reject")]),
        get(&lines, "hetnet_active_connections", &[]),
        get(&lines, "hetnet_ledger_version", &[]),
    );
    let q = |p: &str| {
        get(
            &lines,
            "hetnet_decision_latency_seconds",
            &[("quantile", p)],
        ) * 1e6
    };
    let _ = writeln!(
        out,
        "latency      p50 {:>8.1}us  p95 {:>8.1}us  p99 {:>8.1}us  max {:>8.1}us",
        q("0.5"),
        q("0.95"),
        q("0.99"),
        get(&lines, "hetnet_decision_latency_seconds_max", &[]) * 1e6,
    );
    let _ = writeln!(
        out,
        "cache        stage1 {:>5.1}%  mux {:>5.1}%  receive {:>5.1}%  screen {:>5.1}%",
        hit_pct(&lines, "stage1"),
        hit_pct(&lines, "mux"),
        hit_pct(&lines, "receive"),
        hit_pct(&lines, "screen"),
    );
    let mut shards: Vec<(&str, f64)> = lines
        .iter()
        .filter(|l| l.name == "hetnet_shard_speculations_total")
        .filter_map(|l| {
            l.labels
                .iter()
                .find(|(k, _)| k == "shard")
                .map(|(_, v)| (v.as_str(), l.value))
        })
        .collect();
    shards.sort_by_key(|(s, _)| s.parse::<u64>().unwrap_or(u64::MAX));
    out.push_str("shards       ");
    if shards.is_empty() {
        out.push_str("(sequential engine)");
    } else {
        for (s, v) in &shards {
            let _ = write!(out, "[{s}] {v:>7} ");
        }
    }
    let _ = writeln!(
        out,
        " conflicts {:>6}  inline {:>6}",
        get(&lines, "hetnet_commit_conflicts_total", &[]),
        get(&lines, "hetnet_inline_decisions_total", &[]),
    );
    let _ = writeln!(
        out,
        "flight       outliers {:>6}  telemetry frames {:>6}",
        get(&lines, "hetnet_flight_outliers_total", &[]),
        get(&lines, "hetnet_telemetry_frames_total", &[]),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetnet_obs::MetricsRegistry;

    #[test]
    fn parses_the_registry_exposition_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter("hetnet_decisions_total", "d", &[("outcome", "admit")])
            .add(7);
        reg.gauge("hetnet_active_connections", "a", &[]).set(3.0);
        let h = reg.histogram("hetnet_decision_latency_seconds", "l", &[]);
        h.observe(1e-4);
        let lines = parse(&reg.to_openmetrics());
        assert_eq!(
            find(&lines, "hetnet_decisions_total", &[("outcome", "admit")]),
            Some(7.0)
        );
        assert_eq!(find(&lines, "hetnet_active_connections", &[]), Some(3.0));
        assert_eq!(
            find(&lines, "hetnet_decision_latency_seconds_count", &[]),
            Some(1.0)
        );
        assert!(find(
            &lines,
            "hetnet_decision_latency_seconds",
            &[("quantile", "0.5")]
        )
        .is_some());
        assert_eq!(find(&lines, "no_such_family", &[]), None);
    }

    #[test]
    fn label_escapes_unparse() {
        let lines = parse("f{path=\"a\\\\b \\\"q\\\" \\nnl\"} 1\n");
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].labels[0].1, "a\\b \"q\" \nnl");
    }

    #[test]
    fn sums_span_label_sets() {
        let reg = MetricsRegistry::new();
        for shard in ["0", "1", "2"] {
            reg.counter("hetnet_shard_speculations_total", "s", &[("shard", shard)])
                .add(10);
        }
        let lines = parse(&reg.to_openmetrics());
        let total = sum(&lines, "hetnet_shard_speculations_total");
        assert!((total - 30.0).abs() < 1e-9);
    }

    #[test]
    fn renders_a_stable_dashboard() {
        let reg = MetricsRegistry::new();
        reg.counter("hetnet_decisions_total", "d", &[("outcome", "admit")])
            .add(12);
        reg.counter("hetnet_decisions_total", "d", &[("outcome", "reject")])
            .add(3);
        reg.counter(
            "hetnet_cache_lookups_total",
            "c",
            &[("stage", "stage1"), ("result", "hit")],
        )
        .add(9);
        reg.counter(
            "hetnet_cache_lookups_total",
            "c",
            &[("stage", "stage1"), ("result", "miss")],
        )
        .add(1);
        reg.counter("hetnet_shard_speculations_total", "s", &[("shard", "1")])
            .add(5);
        reg.counter("hetnet_shard_speculations_total", "s", &[("shard", "0")])
            .add(6);
        let frame = render_frame(42.0, &reg.to_openmetrics());
        assert!(frame.contains("t = 42.0 s"));
        assert!(frame.contains("admitted       12"));
        assert!(frame.contains("stage1  90.0%"));
        assert!(frame.contains("[0]       6 [1]       5"));
        assert_eq!(frame.lines().count(), 6);
    }

    #[test]
    fn empty_frame_renders_zeros() {
        let frame = render_frame(0.0, "");
        assert!(frame.contains("(sequential engine)"));
        assert!(frame.contains("admitted        0"));
    }
}
