#!/usr/bin/env bash
# Local CI gate, stage-addressable so the CI workflow can run stages as
# separate jobs. No Python anywhere: the benchmark-JSON gates live in
# the Rust `bench_gate` binary.
#
# Usage: scripts/check.sh [build|test|lint|reconfig|bench|perfbench|all]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

build() {
    echo "==> cargo build --release"
    cargo build --release --workspace

    echo "==> hetnet-obs compiles out cleanly (--no-default-features)"
    cargo build --release -p hetnet-obs --no-default-features
}

test_stage() {
    echo "==> cargo test"
    cargo test --workspace -q

    echo "==> obs-schema gate (exporter JSON-lines shapes match the golden file)"
    cargo test --release -p hetnet-cac --test obs_schema -q

    echo "==> snapshot gate (state snapshot round-trip + pinned golden file)"
    cargo test --release -p hetnet-cac --test snapshot_roundtrip -q

    echo "==> recovery gate (faulted runs replay bit-identically from checkpoints)"
    cargo test --release -p hetnet-service --test churn_replay -q

    echo "==> sharded gate (sharded runs replay the sequential engine: full tracing, faults, reconfigurations, checkpoints)"
    cargo test --release -p hetnet-service --test sharded_replay -q
}

reconfig() {
    echo "==> reconfig certification (retuned state bit-identical to a fresh engine + pinned golden)"
    cargo test --release -p hetnet-cac --test reconfig -q

    echo "==> reconfig recovery gate (checkpointed runs replay through reconfigurations bit for bit)"
    cargo test --release -p hetnet-service --test reconfig_replay -q

    echo "==> autotune sweep/bisection unit gate"
    cargo test --release -p hetnet-sim autotune -q
}

lint() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (warnings denied)"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> deprecated-API gate (legacy request/request_fixed removed from the public API)"
    # The wrappers are gone; nothing may reintroduce them or re-open the
    # allow(deprecated) quarantine they used to need.
    if grep -rnE "fn request(_fixed)?\(|allow\(deprecated\)" --include="*.rs" \
        crates src tests examples; then
        echo "FAIL: legacy request/request_fixed surface reintroduced"
        exit 1
    fi
    echo "ok: no deprecated-API escapes"

    echo "==> one-event-loop gate (per-event bookkeeping is defined once in crates/service/src)"
    # Both engines run engine.rs's EventLoop; a second copy of its
    # event handling is how the sharded engine once drifted from it.
    local fn count
    for fn in advance_to readmit_parked take_checkpoint; do
        count=$(grep -rE "fn ${fn}\b" --include="*.rs" crates/service/src | wc -l)
        if [ "$count" -gt 1 ]; then
            grep -rnE "fn ${fn}\b" --include="*.rs" crates/service/src
            echo "FAIL: fn $fn is defined $count times under crates/service/src"
            exit 1
        fi
    done
    echo "ok: advance_to, readmit_parked and take_checkpoint are each defined once"
}

bench() {
    echo "==> bench_json smoke run"
    cargo run --release -p hetnet-bench --bin bench_json -- \
        --quick --out target/BENCH_region.quick.json

    echo "==> bench gate (maps identical, frontier cheaper, churn + obs + obs_sharded + fault-recovery smoke)"
    cargo run --release -p hetnet-bench --bin bench_gate -- \
        quick target/BENCH_region.quick.json

    echo "==> committed-benchmark gate (BENCH_region.json: obs + sharded-tracing overhead ceilings + fault recovery)"
    cargo run --release -p hetnet-bench --bin bench_gate -- \
        committed BENCH_region.json

    echo "==> hetnet_top smoke (live telemetry dashboard renders over a short sharded run)"
    cargo run --release -p hetnet-bench --bin hetnet_top -- \
        --rings 16 --requests 400 --rate 30 --period 5 --plain
}

perfbench() {
    # perfbench/ is a cargo package with its own [workspace]; the
    # workspace-wide stages above never build it. Its `--self-check` is
    # not run here yet: at `--seconds 0.01` `grid_retune` records no
    # timed decision and the check panics on an empty sample. The smoke
    # runs below use `--seconds 0.1`, which decides enough requests.
    #
    # Decision-digest pins: a run's `digest` hashes every decision it
    # makes with the exact bits of each admission's allocations and
    # delay bound, so a change that moves any of those bits fails here,
    # not just one that flips an admit or reject. The pins assume x86-64
    # floating point and the decision stream of the analysis as it
    # stands; a change meant to alter decisions re-pins them in the same
    # commit.
    local sharded_pin=d7fb7e9a6c19f3a5 retune_pin=c92aeca284f88228
    local pb=(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml --)
    # The `"digest"` field of a run's detail line (the second-to-last).
    digest_of() { printf '%s\n' "$1" | tail -n 2 | head -n 1 | grep -o '"digest": "[0-9a-f]*"' | grep -o '[0-9a-f]\{16\}'; }

    echo "==> perfbench unit tests (admission benchmark package builds against the workspace)"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

    echo "==> perfbench correctness smoke (both workloads, untraced and traced, 0.1 s each)"
    local workload trace out detail result digest
    for workload in grid_sharded grid_retune; do
        for trace in 0 1; do
            out=$("${pb[@]}" --workload "$workload" --seed 1 --seconds 0.1 --trace "$trace")
            detail=$(printf '%s\n' "$out" | tail -n 2 | head -n 1)
            result=$(printf '%s\n' "$out" | tail -n 1)
            if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
                echo "FAIL: perfbench $workload --trace $trace: $result"
                exit 1
            fi
            if [ "$trace" = 1 ] && ! grep -q '"digests_equal": true' <<<"$detail"; then
                echo "FAIL: perfbench $workload --trace 1: traced digest differs: $detail"
                exit 1
            fi
            if [ "$workload" = grid_sharded ]; then
                digest=$(digest_of "$out")
                if [ "$digest" != "$sharded_pin" ]; then
                    echo "FAIL: grid_sharded --trace $trace digest ${digest:-missing} != pinned $sharded_pin"
                    exit 1
                fi
            fi
            echo "ok: $workload --trace $trace"
        done
    done

    echo "==> perfbench worker-count neutrality (grid_sharded at one worker keeps the pinned digest)"
    out=$("${pb[@]}" --workload grid_sharded --seed 1 --seconds 0.1 --trace 0 --workers 1)
    digest=$(digest_of "$out")
    if [ "$digest" != "$sharded_pin" ]; then
        echo "FAIL: grid_sharded --workers 1 digest ${digest:-missing} != pinned $sharded_pin"
        exit 1
    fi
    echo "ok: grid_sharded --workers 1 digest $digest"

    echo "==> perfbench retune pin (grid_retune 1 s: 550 requests through 7 TTRT retunes and 7 teardowns)"
    out=$("${pb[@]}" --workload grid_retune --seed 1 --seconds 1 --trace 0)
    result=$(printf '%s\n' "$out" | tail -n 1)
    digest=$(digest_of "$out")
    if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
        echo "FAIL: perfbench grid_retune --seconds 1: $result"
        exit 1
    fi
    if [ "$digest" != "$retune_pin" ]; then
        echo "FAIL: grid_retune --seconds 1 digest ${digest:-missing} != pinned $retune_pin"
        exit 1
    fi
    echo "ok: grid_retune --seconds 1 digest $digest"
}

case "$stage" in
    build) build ;;
    test) test_stage ;;
    lint) lint ;;
    reconfig) reconfig ;;
    bench) bench ;;
    perfbench) perfbench ;;
    all)
        build
        test_stage
        reconfig
        lint
        bench
        perfbench
        echo "==> all checks passed"
        ;;
    *)
        echo "usage: scripts/check.sh [build|test|lint|reconfig|bench|perfbench|all]" >&2
        exit 2
        ;;
esac
