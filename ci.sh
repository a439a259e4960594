#!/usr/bin/env bash
# CI gate: build, test, lint — all offline (no network, no new deps).
# Tier-1 (ROADMAP.md) is the build + root test suite; the workspace test
# run, clippy -D warnings and rustdoc -D warnings are the full gate.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== cargo build --release (RUSTFLAGS=-D warnings)"
# Warnings-as-errors on the release build: a perf PR that leaves dead code
# or unused results behind fails here, not in review.
RUSTFLAGS="-D warnings" cargo build --release --offline

echo "== cargo test -q (tier-1)"
cargo test -q --offline

echo "== cargo test --workspace -q"
cargo test --workspace -q --offline

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
# Docs-as-a-gate: a public doc that links a private, renamed or deleted
# item fails here instead of rendering as a dead link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== examples (release build, each under timeout 60)"
# Every root example must run to completion: one that hangs (an event loop
# that never drains) or exits nonzero fails here. Each finishes in seconds.
RUSTFLAGS="-D warnings" cargo build --release --offline --examples
for src in examples/*.rs; do
    ex=$(basename "$src" .rs)
    echo "-- $ex"
    if ! out=$(timeout 60 "target/release/examples/$ex" 2>&1); then
        echo "$out" | tail -20 >&2
        echo "example $ex failed or ran past 60 s" >&2
        exit 1
    fi
done

echo "== gfsbench --self-test (the benchmark's own checks)"
# The benchmark (gfsbench/, a package of its own) gates every run on byte
# checks of each read, bit-for-bit determinism and a liveness/integrity
# gate. Its self-test runs an honest small round of every workload and
# shows each planted defect trips its check, so a data-path change that
# breaks one of them fails here rather than in a benchmark run.
cargo run --release --offline --quiet --manifest-path gfsbench/Cargo.toml -- --self-test

echo "== gfsbench unit tests"
# The benchmark's own unit tests, among them the LogHist quantile tests
# behind every p50/p99 it reports.
cargo test --release --offline --quiet --manifest-path gfsbench/Cargo.toml

echo "== gfsbench: every workload once at full size"
# The self-test plays small shapes only; one untraced round of each
# workload at the benchmark's own size puts the integrity gate (fsck,
# world invariants such as every cached page lying under a held token)
# on full-size worlds. A failed gate exits nonzero.
for wl in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    echo "-- $wl"
    cargo run --release --offline --quiet --manifest-path gfsbench/Cargo.toml -- \
        --workload "$wl" --seed 1 --seconds 0 --trace 0 | tail -1
done

echo "== perf smoke (benches/perf.rs -> BENCH_perf.json)"
# Runs the heavy scenarios end-to-end under a wall clock; benches/perf.rs
# is the one table of the claims made of them (paper values within a
# tolerance, floors and ceilings), and any row reading [OFF] fails here.
perf_out=$(cargo bench -q -p gfs-bench --bench perf --offline)
echo "$perf_out"
test -f BENCH_perf.json
if echo "$perf_out" | grep -q '\[OFF\]'; then
    echo "perf smoke: a gate row of benches/perf.rs reads [OFF]" >&2
    exit 1
fi

echo "== non-test Rust lines (ROADMAP's \"net .rs lines go down\" gate)"
# Every tracked .rs file outside tests/ and gfsbench/, each cut at its first
# #[cfg(test)]: the one way every change reports the size of the program.
git ls-files '*.rs' | grep -v -e '^tests/' -e '^gfsbench/' | while read -r f; do
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
done | awk '{ s += $1 } END { print s " non-test .rs lines" }'

echo "CI OK"
