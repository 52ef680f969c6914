#!/usr/bin/env bash
# One-command gate for PRs: formatting, lints, and the tier-1 tests.
#
#   scripts/check.sh          # everything
#   scripts/check.sh --fast   # skip the release builds of the workspace and
#                             # of perfbench/, the release kernel tests and
#                             # the `bitflow plan` smoke (lints, a
#                             # type-check of perfbench/, debug tests)
#   scripts/check.sh --serve  # additionally run the serving-runtime gate:
#                             # strict clippy on bitflow-serve (warnings,
#                             # incl. unwrap/expect, denied), the chaos
#                             # soaks in quick mode (single-model and the
#                             # multi-model batched variant), and the
#                             # goodput micro-batching comparison (quick,
#                             # informational — appended to
#                             # results/history/goodput.jsonl)
#   scripts/check.sh --net    # additionally run the network front-end gate:
#                             # strict clippy on bitflow-net (warnings,
#                             # incl. unwrap/expect, denied), the hostile-
#                             # client + tracing suites, the trace-export
#                             # round-trip proptests, the TCP chaos soak in
#                             # quick mode with the flight recorder enabled,
#                             # and the load-to-failure sweep (quick,
#                             # twice: blesses a capacity baseline if
#                             # missing, then gates against it — appended
#                             # to results/history/load.jsonl)
#   scripts/check.sh --govern # additionally run the resource-governance
#                             # gate: strict clippy on bitflow-serve,
#                             # the governor/chaos fault-injection unit
#                             # tests, the model-header hostile-size fuzz,
#                             # and the exhaustion soak in quick mode
#                             # (mixed-priority tenants under injected
#                             # allocation failure, conservation incl.
#                             # rejected_memory, brownout + recovery)
#   scripts/check.sh --perf   # additionally run the bench-regression gate
#                             # (quick mode, twice: blesses a baseline if
#                             # missing, then gates against it) and print
#                             # the roofline summary. Off by default —
#                             # sandboxes without a PMU still work (the
#                             # gate degrades to wall-clock-only), but CI
#                             # machines with unstable clocks should opt in
#                             # deliberately.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
perf=0
serve=0
net=0
govern=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        --perf) perf=1 ;;
        --serve) serve=1 ;;
        --net) net=1 ;;
        --govern) govern=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -p bitflow-telemetry -- -D warnings"
cargo clippy -p bitflow-telemetry --all-targets -- -D warnings

if [[ $fast -eq 0 ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --release
    echo "==> benchmark crate builds against the engine API it calls"
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    echo "==> kernel tests in release (conv_window bounds checks are assert!, not debug_assert!)"
    cargo test --release -q -p bitflow-simd
    echo "==> bitflow plan smoke (per-conv measured tiers)"
    cargo run --release -q --bin bitflow -- plan tiered_cnn
else
    echo "==> benchmark crate type-checks against the engine API it calls"
    cargo check --offline --manifest-path perfbench/Cargo.toml
fi

echo "==> cargo test -q (tier-1: root suite incl. differential/golden/no-alloc harnesses)"
cargo test -q

echo "==> fusion gate: fused-vs-unfused differential (goldens pin both plans)"
cargo test -q --test fusion_differential

echo "==> BITFLOW_BENCH_QUICK=1 cargo test -q --workspace (all crates, bench in quick mode)"
BITFLOW_BENCH_QUICK=1 cargo test -q --workspace

if [[ $serve -eq 1 ]]; then
    echo "==> clippy -p bitflow-serve (unwrap/expect denied on the serving runtime)"
    # The crate roots carry #![warn(clippy::unwrap_used, clippy::expect_used)];
    # -D warnings promotes those to errors for this crate without leaking
    # the lint into vendored path dependencies.
    cargo clippy -p bitflow-serve --all-targets -- -D warnings
    echo "==> serving unit tests"
    cargo test -q -p bitflow-serve
    echo "==> chaos soaks (quick mode: single-model + multi-model batched)"
    BITFLOW_QUICK=1 cargo test -q --test serve_soak
    echo "==> goodput micro-batching comparison (quick, informational)"
    cargo run --release -q -p bitflow-bench --bin goodput -- --quick
fi

if [[ $net -eq 1 ]]; then
    echo "==> clippy -p bitflow-net (unwrap/expect denied on the front-end)"
    cargo clippy -p bitflow-net --all-targets -- -D warnings
    echo "==> net unit tests + hostile-client and tracing suites"
    cargo test -q -p bitflow-net
    echo "==> trace-export round-trip proptests (Chrome + Prometheus)"
    cargo test -q -p bitflow-telemetry --test chrome_props --test prometheus_props
    echo "==> TCP chaos soak (quick mode, flight recorder enabled)"
    BITFLOW_QUICK=1 BITFLOW_TRACE=1 cargo test -q --test net_soak
    echo "==> load-to-failure sweep (quick, twice: bless-if-needed then gate)"
    cargo run --release -q -p bitflow-bench --bin loadgen -- --quick
    cargo run --release -q -p bitflow-bench --bin loadgen -- --quick
fi

if [[ $govern -eq 1 ]]; then
    echo "==> clippy -p bitflow-serve (unwrap/expect denied on the serving runtime)"
    cargo clippy -p bitflow-serve --all-targets -- -D warnings
    echo "==> governor + chaos fault-injection unit tests"
    cargo test -q -p bitflow-serve govern
    cargo test -q -p bitflow-serve chaos
    echo "==> model-header hostile-size fuzz (near-usize::MAX declared counts)"
    cargo test -q -p bitflow-graph --test model_fuzz
    echo "==> exhaustion soak (quick mode: injected allocation failure, brownout, recovery)"
    BITFLOW_QUICK=1 cargo test -q --test exhaustion_soak
fi

if [[ $perf -eq 1 ]]; then
    echo "==> bench-regression gate (quick, twice: bless-if-needed then gate)"
    cargo run --release -q -p bitflow-bench --bin regress -- --quick
    cargo run --release -q -p bitflow-bench --bin regress -- --quick
    echo "==> roofline summary (quick telemetry bench)"
    cargo run --release -q -p bitflow-bench --bin telemetry -- --quick 2>/dev/null | grep '^roofline:'
fi

echo "OK"
