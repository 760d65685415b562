#!/usr/bin/env bash
# Full local gate: format, lints, build, the whole test suite, and the
# BENCH regression gate against the committed seed baseline. CI runs
# exactly this script. Every leg's artifacts stay in target/check (wiped
# at the start of each run) for inspection and upload.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
# --locked throughout: a change that makes cargo rewrite Cargo.lock or
# perfbench/Cargo.lock fails here instead of silently dirtying a lock.
cargo clippy --locked --workspace --all-targets -- -D warnings
cargo build --locked --release
# The workspace's default members are the facade plus every library
# crate, so this runs the crates' unit tests too.
cargo test --locked -q
# The benchmark (perfbench/) is its own workspace over the library
# crates; build and test it so a library change cannot break it unseen.
cargo test --locked --offline -q --manifest-path perfbench/Cargo.toml
# Benchmark-oracle smoke leg: a traced `ledger` run rebuilds every
# Figure-4 cell and estimator entry as separate single-scheme runs and
# compares them with the library's (lane-folded) artifact.
ledger_out="$(cargo run --locked --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload ledger --seed 0 --seconds 1 --trace 1)"
last_line="$(printf '%s\n' "$ledger_out" | tail -n 1)"
if [[ "$last_line" != *'"correct": true'* || "$last_line" != *'"failed": 0'* ]]; then
  echo "perfbench ledger smoke run failed: $last_line" >&2
  exit 1
fi
if [[ "$ledger_out" != *"replay reproduces the artifact's figures and estimator entries: true; scheme mismatches: 0"* ]]; then
  echo "perfbench ledger replay disagrees with the library" >&2
  exit 1
fi
# Untraced ledger leg: the path the benchmark gate times, without the
# replay and per-layer probes.
ledger_out="$(cargo run --locked --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload ledger --seed 0 --seconds 1 --trace 0)"
last_line="$(printf '%s\n' "$ledger_out" | tail -n 1)"
if [[ "$last_line" != *'"correct": true'* || "$last_line" != *'"failed": 0'* ]]; then
  echo "perfbench untraced ledger smoke run failed: $last_line" >&2
  exit 1
fi
# Engine smoke leg: the `engine` workload runs each program on one lane
# that measures every class, the other path of the lane loop that the
# sweeps' class-restricted lanes take.
engine_out="$(cargo run --locked --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload engine --seed 0 --seconds 1 --trace 0)"
last_line="$(printf '%s\n' "$engine_out" | tail -n 1)"
if [[ "$last_line" != *'"correct": true'* || "$last_line" != *'"failed": 0'* ]]; then
  echo "perfbench engine smoke run failed: $last_line" >&2
  exit 1
fi

# Docs gate: every public item is documented (deny(missing_docs)) and
# rustdoc itself is warning-clean (broken intra-doc links, bad HTML).
RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps --workspace

# Observability gate: a fresh quick-suite BENCH artifact must pass the
# tolerance-banded comparison against the committed seed baseline.
repo="$(pwd)"
outdir="$repo/target/check"
rm -rf "$outdir"
mkdir -p "$outdir"
(
  cd "$outdir"
  "$repo/target/release/fua" bench-suite --tag check
  "$repo/target/release/fua" report \
    --baseline "$repo/BENCH_seed.json" --current BENCH_check.json
)

# Shape-regression gate: an artifact whose first hardware-swap
# reduction is seeded to -40% must fail the report gate.
(
  cd "$outdir"
  sed '0,/"hardware_pct": [0-9.eE+-]*/s//"hardware_pct": -40.0/' BENCH_check.json \
    > BENCH_corrupt.json
  if "$repo/target/release/fua" report \
      --baseline "$repo/BENCH_seed.json" --current BENCH_corrupt.json; then
    echo "corrupted artifact unexpectedly passed the gate" >&2
    exit 1
  fi
)

# Parallel-determinism gate: a --jobs 4 artifact must diff to exactly
# zero findings against the serial (--jobs 1) artifact of the same
# configuration — byte-identical model output, wall-clock aside.
(
  cd "$outdir"
  "$repo/target/release/fua" bench-suite --jobs 1 --tag serial
  "$repo/target/release/fua" bench-suite --jobs 4 --tag parallel
  out="$("$repo/target/release/fua" report \
    --baseline BENCH_serial.json --current BENCH_parallel.json)"
  echo "$out" | tee parallel-vs-serial-diff.txt
  if [[ "$out" != *"PASS: 0 finding(s)"* ]]; then
    echo "serial-vs-parallel diff produced findings" >&2
    exit 1
  fi
)

# Rerun gate: two artifacts of the same configuration must diff to
# exactly zero findings — the model output is deterministic, and no
# measured harness quantity raises a finding short of a collapse.
(
  cd "$outdir"
  for tag in rerun-a rerun-b; do
    "$repo/target/release/fua" bench-suite --limit 1500 --tag "$tag"
  done
  out="$("$repo/target/release/fua" report \
    --baseline BENCH_rerun-a.json --current BENCH_rerun-b.json)"
  echo "$out"
  if [[ "$out" != *"PASS: 0 finding(s)"* ]]; then
    echo "same-config rerun diff produced findings" >&2
    exit 1
  fi
)

# Attribution-determinism gate: the energy profiler's flamegraph, site
# table and naive-vs-lut4 differential report (text and JSON; both
# schemes are lanes of one run per workload) must be byte-identical
# between --jobs 1 and --jobs 4.
(
  cd "$outdir"
  "$repo/target/release/fua" profile-energy all --jobs 1 \
    --flame flame-serial.txt --json > attr-serial.json
  "$repo/target/release/fua" profile-energy all --jobs 4 \
    --flame flame-parallel.txt --json > attr-parallel.json
  cmp flame-serial.txt flame-parallel.txt
  cmp attr-serial.json attr-parallel.json
  for format in txt json; do
    flag=""
    [[ "$format" == json ]] && flag=--json
    "$repo/target/release/fua" profile-energy all --jobs 1 \
      --compare naive lut4 $flag > "diff-naive-vs-lut4-serial.$format"
    "$repo/target/release/fua" profile-energy all --jobs 4 \
      --compare naive lut4 $flag > "diff-naive-vs-lut4.$format"
    cmp "diff-naive-vs-lut4-serial.$format" "diff-naive-vs-lut4.$format"
  done
)

# Cycle-attribution gates: the stall partition must account every
# issue slot of every cycle for every workload (profile-cycles exits
# nonzero on an inexact partition), and the profiler's flamegraph,
# JSON slot table and critical path must be byte-identical between
# --jobs 1 and --jobs 4.
(
  cd "$outdir"
  "$repo/target/release/fua" profile-cycles all --jobs 1 --critical-path \
    --flame cycles-flame-serial.txt --json > cycles-serial.json
  "$repo/target/release/fua" profile-cycles all --jobs 4 --critical-path \
    --flame cycles-flame-parallel.txt --json > cycles-parallel.json
  cmp cycles-flame-serial.txt cycles-flame-parallel.txt
  cmp cycles-serial.json cycles-parallel.json
  "$repo/target/release/fua" profile-cycles all --jobs 4 --critical-path \
    > cycles-critical-path.txt
)

# Stall-partition gate: a BENCH artifact whose stall digest violates
# the exact-partition invariant must fail the report gate.
(
  cd "$outdir"
  awk '
    /"stalls": \{/ { in_stalls = 1 }
    in_stalls && /"exact": true/ { sub(/"exact": true/, "\"exact\": false"); in_stalls = 0 }
    { print }
  ' BENCH_check.json > BENCH_stallcorrupt.json
  if "$repo/target/release/fua" report \
      --baseline "$repo/BENCH_seed.json" --current BENCH_stallcorrupt.json; then
    echo "inexact stall partition unexpectedly passed the gate" >&2
    exit 1
  fi
)

# Estimator gates: static bounds must be byte-identical across job
# counts, and must dominate the measured attribution for every
# workload x scheme (nonzero exit on any violated bound).
(
  cd "$outdir"
  "$repo/target/release/fua" estimate all --jobs 1 --json > est-serial.json
  "$repo/target/release/fua" estimate all --jobs 4 --json > est-parallel.json
  cmp est-serial.json est-parallel.json
  "$repo/target/release/fua" estimate all --verify --jobs 4 > estimator-precision.txt
  cat estimator-precision.txt
)

# Throughput gate (see docs/PERFORMANCE.md): two fresh runs must pass
# the slowdown-only sim-rate band of the report gate.
(
  cd "$outdir"
  mkdir -p rate && cd rate
  "$repo/target/release/fua" bench-suite --tag rate1
  "$repo/target/release/fua" bench-suite --tag rate2
  out="$("$repo/target/release/fua" report \
    --baseline BENCH_rate1.json --current BENCH_rate2.json)"
  echo "$out" | tee sim-rate-gate.txt
  if [[ "$out" != *"PASS: 0 finding(s)"* ]]; then
    echo "the sim-rate gate produced findings" >&2
    exit 1
  fi
)

# Ablation gate: every study `fua ablation` prints must run, print a
# table and print the same bytes twice; an unknown study must exit
# nonzero and list the four names.
(
  cd "$outdir"
  for name in fp-info-bits modules homes multiplier; do
    "$repo/target/release/fua" ablation "$name" --limit 5000 > "ablation-$name.txt"
    test -s "ablation-$name.txt"
    "$repo/target/release/fua" ablation "$name" --limit 5000 | cmp - "ablation-$name.txt"
  done
  if "$repo/target/release/fua" ablation nosuch 2> ablation-unknown.txt; then
    echo "an unknown ablation unexpectedly succeeded" >&2
    exit 1
  fi
  grep -q "fp-info-bits, modules, homes, multiplier" ablation-unknown.txt
)

# Progress-isolation gate: --progress must not change a single stdout
# byte (heartbeat lines are stderr-only).
(
  cd "$outdir"
  "$repo/target/release/fua" figure4 ialu --limit 2000 > fig-plain.txt
  "$repo/target/release/fua" figure4 ialu --limit 2000 --progress > fig-progress.txt \
    2> fig-progress-err.txt
  cmp fig-plain.txt fig-progress.txt
  grep -q "progress:" fig-progress-err.txt
)

# Harness self-observability gates. The zero-allocation steady-state
# gate runs inside the suite above; run it by name so a hot-loop heap
# regression fails with its own headline. Then the binary (which always
# installs the counting allocator) must produce a harness-report whose
# stdout is byte-identical between --jobs 1 and --jobs 4 while emitting
# the Perfetto timeline and folded stacks.
cargo test --locked -q --test alloc_gate
(
  cd "$outdir"
  "$repo/target/release/fua" harness-report --jobs 1 \
    --out harness-timeline.json --flame harness.folded > harness-serial.txt
  "$repo/target/release/fua" harness-report --jobs 4 > harness-parallel.txt
  cmp harness-serial.txt harness-parallel.txt
  grep -q "alloc(s)" harness-serial.txt
)
echo "all checks passed"
