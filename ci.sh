#!/usr/bin/env bash
# Local CI gate — the same steps .github/workflows/ci.yml runs.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, deny warnings; holistic-sql denies missing_docs)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> perfbench driver smoke test (the benchmark package is outside the workspace)"
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "==> SQL quickstart example (the README snippet must not rot)"
cargo run --release -q --example sql_quickstart > /dev/null

echo "==> strategy equivalence (adaptive vs forced-MST, serial vs parallel)"
cargo test --release -q -p holistic-window --test strategy_equivalence

echo "==> fuzz smoke (differential: naive vs adaptive/forced configs, fixed seed)"
# Deterministic and time-budgeted; failures print a --replay command.
cargo run --release -q -p holistic-fuzz --bin fuzz -- \
  --cases 600 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120

echo "==> fuzz (differential at a size where Adaptive itself picks alternates, fixed seed)"
# At --max-n 40 Adaptive is all-naive and only the forced configs reach
# eval/alt.rs. These 100 cases hold 3 queries whose partitions run tree-free
# (incremental, no MST) and 8 mixing incremental and MST calls.
cargo run --release -q -p holistic-fuzz --bin fuzz -- \
  --cases 100 --seed 0xD15C0 --max-n 4000 --time-budget-secs 180

echo "==> fuzz smoke (append delta API: bit-identity vs from-scratch, fixed seed)"
cargo run --release -q -p holistic-fuzz --bin fuzz -- \
  --append --cases 600 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120

echo "==> fuzz panic sweep (invalid specs must Error, never panic; incl. tiny-budget configs)"
cargo run --release -q -p holistic-fuzz --bin fuzz -- --panic-sweep --cases 400 --seed 0x5EED

echo "==> fuzz smoke (budget mode: bit-identical under budget or typed BudgetExceeded)"
cargo run --release -q -p holistic-fuzz --bin fuzz -- \
  --cases 500 --seed 0xB4D6E7 --max-n 40 --budget 8192 --time-budget-secs 120

echo "==> fuzz smoke (sql-roundtrip: print → parse → plan structural + session bit-identity)"
cargo run --release -q -p holistic-fuzz --bin fuzz -- \
  --sql-roundtrip --cases 500 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120

echo "==> fuzz legs again through an overflow-checked release build (arithmetic at the edges)"
# Release builds wrap on integer overflow; this build panics instead, and a
# panic is a fuzz failure. Own target dir, so the flags never touch ./target.
CARGO_TARGET_DIR=target/overflow-checks RUSTFLAGS="-C overflow-checks=on" \
  cargo build --release -q -p holistic-fuzz --bin fuzz
OFUZZ=target/overflow-checks/release/fuzz
$OFUZZ --cases 600 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120
$OFUZZ --cases 100 --seed 0xD15C0 --max-n 4000 --time-budget-secs 180
$OFUZZ --append --cases 600 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120
$OFUZZ --panic-sweep --cases 400 --seed 0x5EED
$OFUZZ --cases 500 --seed 0xB4D6E7 --max-n 40 --budget 8192 --time-budget-secs 120
$OFUZZ --sql-roundtrip --cases 500 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120

echo "==> bench smoke (tiny n; asserts shared/private identity)"
N=3000 W=64 REPS=1 cargo run --release -q -p holistic-bench --bin sharing_ext -- --json
# Asserts append outputs bit-identical across every config and vs from-scratch;
# the ≥5×-vs-rebuild and beats-per-row gates self-skip below n = 500k.
N=6000 B=200 REBUILD_SAMPLES=4 cargo run --release -q -p holistic-bench --bin append_ext -- --json
N=4000 REPS=1 cargo run --release -q -p holistic-bench --bin crossover_ext -- --json
# Asserts budgeted execution bit-identical to unbudgeted, peak resident within
# 1.25x budget, and that the auto-derived budget actually spills.
N=60000 PARTS=6 BUDGET=0 REPS=1 cargo run --release -q -p holistic-bench --bin spill_ext -- --json

echo "CI OK"
