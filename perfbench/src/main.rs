//! Admission benchmark for the β-CAC workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--workers <n>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! Run from the repository root. An untraced run (`--trace 0`) prints
//! the end-to-end metrics; a traced run (`--trace 1`) repeats the same
//! workload under the `hetnet_obs` collector and prints the per-layer
//! metrics. The second-to-last line of standard output is a detail
//! object (run conditions, sample counts, the tail percentile, the
//! correctness check and the decision digest); the last line is the
//! result object `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod layers;
mod stats;
mod workloads;

use hetnet_bench::json::Json;
use std::process::ExitCode;
use workloads::{Measured, Params, NAMES};

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: Option<usize>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        workers: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cli.workload = value.to_string(),
            "--seed" => cli.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cli.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cli.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--workers" => cli.workers = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.workload.is_empty() {
        return Err(format!("--workload is required (one of {NAMES:?})"));
    }
    if cli.seconds.is_nan() || cli.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(cli)
}

fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checkout's commit, read from `.git` without running git; the
/// benchmark may run from an export that is not a repository.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Checks that `BENCHMARK.json` declares exactly the workloads this
/// binary runs and the metrics it emits, with the same units.
fn check_declared() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text)?;
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if workloads != NAMES {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} differ from {NAMES:?}"
        ));
    }
    for (key, table) in [
        ("end_to_end", &layers::END_TO_END[..]),
        ("per_layer", &layers::PER_LAYER[..]),
    ] {
        let declared: Vec<(String, String)> = json
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let emitted: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        if declared != emitted {
            return Err(format!(
                "BENCHMARK.json {key} differs from the emitted metrics:\n  declared {declared:?}\n  emitted  {emitted:?}"
            ));
        }
    }
    Ok(())
}

fn result_line(m: &Measured, trace: bool) -> String {
    let table = if trace {
        &layers::PER_LAYER[..]
    } else {
        &layers::END_TO_END[..]
    };
    let metrics: Vec<String> = m
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = table
                .iter()
                .find(|(n, _)| n == name)
                .map_or("", |(_, u)| *u);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct,
        m.attempted,
        m.failed,
        metrics.join(", ")
    )
}

/// Runs every workload at its smallest size in both modes and checks
/// that each emits every declared metric, finite, with its unit.
fn self_check() -> Result<(), String> {
    check_declared()?;
    let s = stats::Sorted::new((1..=100).rev().map(f64::from).collect());
    if (s.quantile(0.5), s.tail()) != (50.0, (0.9, 90.0)) {
        return Err("quantile function is wrong on 1..=100".into());
    }
    for name in NAMES {
        for trace in [false, true] {
            let p = Params {
                seed: 1,
                seconds: 0.01,
                trace,
                workers: hw_threads(),
            };
            let m = workloads::run(name, p)?;
            let table = if trace {
                &layers::PER_LAYER[..]
            } else {
                &layers::END_TO_END[..]
            };
            let names: Vec<&str> = m.metrics.iter().map(|(n, _)| *n).collect();
            let expected: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            if names != expected || m.metrics.iter().any(|(_, v)| !v.is_finite()) {
                return Err(format!("{name} (trace {trace}) emitted {:?}", m.metrics));
            }
            if !m.correct {
                return Err(format!(
                    "{name} (trace {trace}) failed its correctness check"
                ));
            }
            eprintln!("self-check: {name} trace={} ok", u8::from(trace));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--self-check") {
        return match self_check() {
            Ok(()) => {
                println!("self-check passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cli = parse(args)?;
    check_declared()?;
    let hw = hw_threads();
    let workers = cli.workers.unwrap_or(hw);
    if workers == 0 || workers > hw {
        return Err(format!(
            "--workers {workers} must be between 1 and the {hw} hardware threads"
        ));
    }
    let p = Params {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        workers,
    };
    let m = workloads::run(&cli.workload, p)?;
    let mut detail = format!(
        concat!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"hw_threads\": {}, \"workers\": {}, \"rustc\": {:?}, \"commit\": {:?}"
        ),
        cli.workload,
        cli.seed,
        cli.seconds,
        cli.trace,
        hw,
        if cli.workload == "grid_sharded" {
            workers.to_string()
        } else {
            "null".into()
        },
        env!("PERFBENCH_RUSTC"),
        git_commit(),
    );
    for (k, v) in &m.details {
        detail.push_str(&format!(", \"{k}\": {v}"));
    }
    detail.push('}');
    println!("{detail}");
    println!("{}", result_line(&m, cli.trace));
    Ok(())
}
