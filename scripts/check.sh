#!/usr/bin/env bash
# Repo gate: build, test, lint, seeded fuzzers, and the bench gates.
#
# Usage:
#   scripts/check.sh           # the full gate (benches included)
#   scripts/check.sh --quick   # build + tests + lints only (edit loop)
#
# Each bench in BENCHES records its rows in BENCH_<name>.json at the repo
# root, as {"bench": <name>, "rows": [...]}, and checks them with the gate
# table (floor, ceiling, drift and exact bounds) declared at the top of
# crates/bench/benches/<bench>.rs, plus the few checks that are not a row
# against its recording. Every bound lives there, in one place. A row
# measured but not recorded, or recorded but not measured, fails too.
#
# Re-record an intentional change with:
#
#   EHDL_WRITE_BENCH=1 cargo bench -p ehdl-bench --bench <bench>

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
  quick=1
fi

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test --workspace -q

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings
# Every library crate carries #![deny(clippy::unwrap_used)]; lint them
# standalone so a workspace-level cap change can't mask it.
cargo clippy -p ehdl-hwsim -- -D warnings
cargo clippy -p ehdl-core --all-targets -- -D warnings
cargo clippy -p ehdl-runtime --all-targets -- -D warnings
cargo clippy -p ehdl-programs --all-targets -- -D warnings
cargo clippy -p ehdl-net --all-targets -- -D warnings
cargo clippy -p ehdl-baselines --all-targets -- -D warnings
cargo clippy -p ehdl-rng --all-targets -- -D warnings
cargo clippy -p ehdl-bench --all-targets -- -D warnings
cargo clippy -p ehdl-serve --all-targets -- -D warnings

echo "== fmt =="
cargo fmt --all -- --check

echo "== docs (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if [[ "$quick" == "1" ]]; then
  echo "check.sh --quick: build, tests and lints passed (bench gates skipped)"
  exit 0
fi

echo "== seeded fuzzers and sharding soundness =="
cargo test -p ehdl-ebpf --test fuzz_loader -q
cargo test -p ehdl-hwsim --test fuzz_ctrl -q
cargo test -p ehdl-hwsim --test shardplan -q

BENCHES=(scale_out flush_opt runtime_ops absint_stats fault_campaign chaos shardcheck slo sim_speed)
for bench in "${BENCHES[@]}"; do
  echo "== bench gate: $bench =="
  EHDL_CHECK_BENCH=1 cargo bench -p ehdl-bench --bench "$bench"
done

echo "check.sh: all gates passed"
