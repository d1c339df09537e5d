#!/usr/bin/env bash
# The CI gate: .github/workflows/ci.yml installs the toolchain and runs this
# script, so the steps are defined here and nowhere else.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# `step` announces the next step, after the seconds the step that just ended
# took. Under GitHub Actions each step is a log group, so the job log folds
# per step.
took() {
  if [ -n "${step_started:-}" ]; then echo "    took $((SECONDS - step_started)) s"; fi
}
step() {
  took
  step_started=$SECONDS
  if [ -n "${GITHUB_ACTIONS:-}" ]; then
    if [ -n "${open_group:-}" ]; then echo "::endgroup::"; fi
    echo "::group::$1"
    open_group=1
  else
    echo "==> $1"
  fi
}

step "size (non-test Rust lines per crate: every src/**/*.rs up to its first #[cfg(test)])"
# The one definition of the SIZE line a simplicity PR reports. Printed, never
# gated: a number to read next to the diff, not a budget.
size() {
  find "$@" -name '*.rs' -print0 | xargs -0 awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }'
}
for src in src crates/*/src crates/window/src/eval perfbench/src; do
  printf '%8d  %s\n' "$(size "$src")" "$src"
done

step "cargo fmt --check"
cargo fmt --all --check

step "oracle independence (crates/baselines groups and deduplicates on its own)"
# The naive oracle is what every differential leg compares the engine with: a
# partitioner or value hash borrowed from the engine would agree with the
# engine's faults.
if grep -rnE "holistic_window::(partition|hash)\b|\b(partition|hash)::|partition_rows|Partitioner|hash_value" \
  crates/baselines/src; then
  echo "crates/baselines/src must not use holistic_window::partition or holistic_window::hash" >&2
  exit 1
fi

step "one value identity (no hash_column, prev_idcs_u64 or prev_idcs_by_key in crates/window/src; hash_value only in hash.rs)"
# PARTITION BY, the DISTINCT aggregates and MODE number values by equality in
# one dictionary (crates/window/src/dictionary.rs), and prevIdcs is one pass
# over its codes. A 64-bit value hash decides nothing in the engine: chosen
# values collide under it, and a count over hashes merges them.
if grep -rnE "\b(hash_column|prev_idcs_u64|prev_idcs_by_key)\b" crates/window/src ||
  grep -rn "hash_value" crates/window/src | grep -v "^crates/window/src/hash\.rs:"; then
  echo "crates/window/src decides value equality in its dictionary only" >&2
  exit 1
fi

step "artifact keys live where they are built (plan.rs names no ArtifactKey)"
# A call's plan holds what its artifacts are made from; which products a
# family reads is decided only where they are read, by the getters in
# artifacts.rs. A key table in the plan would be a second copy of that.
if grep -n "ArtifactKey" crates/window/src/plan.rs; then
  echo "crates/window/src/plan.rs must not mention ArtifactKey" >&2
  exit 1
fi

step "typed probe path (no Vec<Value> in the evaluators, the artifact cache, the executor, the append engine, the partitioner or the SQL session)"
# A call's arguments and outputs, PARTITION BY keys and the session's columns
# are typed columns between the VM and the result table; `Value` stays in the
# per-row interpreter, the naive oracle, `Column::get` and literals. The count
# may only go down.
vec_values=$(cat crates/window/src/eval/*.rs crates/window/src/artifacts.rs \
  crates/window/src/executor.rs crates/window/src/append.rs \
  crates/window/src/partition.rs crates/sql/src/session.rs | grep -c 'Vec<Value>' || true)
if ((vec_values > 0)); then
  echo "Vec<Value> appears $vec_values times on the probe path (at most 0)" >&2
  exit 1
fi

step "one way from rows to a column (only vm.rs and frame.rs run the VM; no eval_all)"
# Keys, arguments, masks and the session's columns evaluate through
# `vm::eval`; frame.rs reads the VM's block itself, because a constant block
# is a constant offset. A second batch evaluator would be a second copy of
# the size rule and the fallback to the interpreter's first error.
if grep -rlnE "ExprVm|vm::run\b|vm::\{[^}]*\brun\b" crates/window/src crates/sql/src | grep -vE "crates/window/src/(vm|frame)\.rs$"; then
  echo "only crates/window/src/vm.rs and frame.rs may run the VM (vm::run)" >&2
  exit 1
fi
if grep -rn "eval_all" crates src tests examples; then
  echo "eval_all is gone: evaluate batches through vm::eval" >&2
  exit 1
fi

step "one row loop (no count_rows or select_rows beside eval::probe_rows)"
# Every index but the merge sort tree's block kernels answers a chunk a row
# at a time through `eval::probe_rows`: a scan takes the rows as they come,
# a sliding window in frame order. A second row-at-a-time loop beside it
# would be a second copy of how rows are planned and finished, and one that
# cannot reorder what it answers.
if grep -rnE "\b(count_rows|select_rows)\b" crates/window/src; then
  echo "count_rows and select_rows are gone: every row loop goes through probe_rows" >&2
  exit 1
fi

step "one sliding index (no counted B-tree or sorted-list segment tree in the engine)"
# The incremental strategy slides one index, the counted bitset. The
# order-statistic tree and the sorted-list segment tree are the paper's
# competitors (Table 1) and stay outside the engine, and so does the ordered
# vector's per-shift price: a second sliding index would need a strategy, a
# price and a fuzz config of its own.
if grep -rnE "\b(CountedBTree|sorted_lists|SortedListSegTree|OrderStatisticTree|incr_shift)\b" \
  crates/window/src; then
  echo "crates/window/src slides the counted bitset only" >&2
  exit 1
fi

step "one sort kernel (no sort_pairs, sort_rows, radix_sort_run or sort_pair_run under crates/)"
# The engine sorts indices by (key, index) through core::sort::sort_indices:
# only the indices move, and each key is read through the caller's key array.
# A pair sort beside it would be a second copy of the radix passes, the
# comparison fallback and the thresholds between them.
if grep -rnwE "sort_pairs|sort_rows|radix_sort_run|sort_pair_run" crates; then
  echo "crates/ sorts through core::sort::sort_indices only" >&2
  exit 1
fi

step "options only shrink (ExecOptions has at most 4 pub fields; CostModel no pub field and at most 6 constants; PartitionStats at most 5 pub fields)"
# A knob nothing sets is a constant: the merge sort tree's (f, k) and the
# cost model's constants are not options. A field may go; none comes back,
# and neither does a statistic the cost model no longer prices.
# `fields STRUCT FILE [pub ]` counts the fields (with `pub `, the pub ones)
# STRUCT declares in FILE and fails when FILE declares no such struct.
fields() {
  awk -v s="pub struct $1 {" -v f="^    ${3:-}[a-z_0-9]+:" '
    index($0, s) == 1 { on = 1; next }
    on && /^}/ { exit }
    on && $0 ~ f { n++ }
    END { if (!on) { print "no " s " in " FILENAME > "/dev/stderr"; exit 1 } print n + 0 }' "$2"
}
exec_fields=$(fields ExecOptions crates/window/src/executor.rs "pub ")
cost_pub=$(fields CostModel crates/window/src/strategy.rs "pub ")
cost_constants=$(fields CostModel crates/window/src/strategy.rs)
stats_fields=$(fields PartitionStats crates/window/src/strategy.rs "pub ")
if ((exec_fields > 4 || cost_pub > 0 || cost_constants > 6 || stats_fields > 5)); then
  echo "ExecOptions declares $exec_fields pub fields (at most 4), CostModel $cost_pub pub" \
    "fields (none) and $cost_constants constants (at most 6), PartitionStats" \
    "$stats_fields pub fields (at most 5)" >&2
  exit 1
fi

step "the chooser reads no peer groups (no peer_start or peer_end in strategy.rs outside #[cfg(test)])"
# A ROWS frame resolves no peer groups unless an EXCLUDE GROUP / TIES hole
# reads them: a statistic read off them would make every frame pay for them
# again, and how often the window ORDER BY key repeats says nothing about the
# values a call aggregates.
if awk '/#\[cfg\(test\)\]/ { exit } /peer_(start|end)/ { print FILENAME ":" FNR ": " $0; found = 1 }
  END { exit !found }' crates/window/src/strategy.rs; then
  echo "crates/window/src/strategy.rs must not read peer_start or peer_end" >&2
  exit 1
fi

step "cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc (workspace, deny warnings; holistic-sql denies missing_docs)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

step "cargo build --release (--locked: a dependency edit that would rewrite Cargo.lock fails here)"
cargo build --release --workspace --locked

step "cargo test (workspace)"
cargo test --workspace -q

step "perfbench driver smoke test (the benchmark package is outside the workspace)"
cargo test --release -q --locked --manifest-path perfbench/Cargo.toml

step "SQL quickstart example (the README snippet must not rot)"
cargo run --release -q --example sql_quickstart > /dev/null

step "strategy equivalence (adaptive vs forced-MST, serial vs parallel)"
cargo test --release -q -p holistic-window --test strategy_equivalence

step "thread counts (strategy equivalence, worker panics and the 600-case fuzz smoke under 1, 3 and 7 threads)"
# The vendored pool reads RAYON_NUM_THREADS once per process; unset, it is the
# core count. Probe chunks (the naive batch's included), parallel builds and
# the partition fold must give bit-identical output for every count: both
# checks compare the parallel configurations bit for bit with the serial ones.
# A worker's panic must reach the caller with its own message at every count.
# Adds about 4 s once all are built.
for threads in 1 3 7; do
  RAYON_NUM_THREADS=$threads cargo test --release -q -p holistic-window --test strategy_equivalence
  RAYON_NUM_THREADS=$threads cargo test --release -q -p holistic-window --test worker_panic
  RAYON_NUM_THREADS=$threads cargo run --release -q -p holistic-fuzz --bin fuzz -- \
    --cases 600 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120
done

step "fuzz smoke (differential: naive vs adaptive/forced configs, fixed seed)"
# Deterministic and time-budgeted; failures print a --replay command. One
# LEAD/LAG in five takes a default of the other numeric type, so some output
# columns mix Int and Float and the result column's typing rules (widen, or
# TypeMismatch, by the first non-NULL row) are checked against the oracle:
# the leg fails when no case's reference output mixed them (5 of 600 here).
# `differential_leg RE WHAT CMD...` runs a fuzz leg and prints all it printed,
# a divergence's report and replay command included, then fails with the leg
# if it failed, and otherwise when its summary line is missing or any of RE's
# groups counts no case: WHAT says what one of them must count.
differential_leg() {
  local re=$1 what=$2 out status=0
  shift 2
  out=$("$@") || status=$?
  echo "$out"
  if ((status != 0)); then
    exit "$status"
  fi
  if ! [[ $out =~ $re ]]; then
    echo "the differential leg printed no summary line" >&2
    exit 1
  fi
  local count
  for count in "${BASH_REMATCH[@]:1}"; do
    if ((count == 0)); then
      echo "no case of the differential leg $what" >&2
      exit 1
    fi
  done
}
differential_leg 'fuzz OK: [0-9]+ cases, .*; ([0-9]+) cases mixed Int and Float in a reference output' \
  "mixed Int and Float in an output column" \
  cargo run --release -q -p holistic-fuzz --bin fuzz -- \
  --cases 600 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120

step "fuzz (differential at a size where Adaptive itself slides, fixed seed)"
# At --max-n 40 Adaptive is all-naive and only the forced configs reach the
# sliding index. These 100 cases hold 2 queries whose partitions run tree-free
# (incremental, no MST), 9 mixing incremental and MST calls, and 58 with a
# PARTITION BY (every shape of gen_partition_by but `-f`, which the max-n 40
# legs draw). In 8 of them Adaptive runs a rank-family call on the sliding
# window of codes, which counts below a code, and in 6 of them a
# percentile, which selects one; the leg fails when either count is 0.
differential_leg 'fuzz OK: .*, ([0-9]+) ran a rank-family call and ([0-9]+) a percentile on the sliding window' \
  "ran a rank-family call, or a percentile, on the sliding window" \
  cargo run --release -q -p holistic-fuzz --bin fuzz -- \
  --cases 100 --seed 0xD15C0 --max-n 4000 --time-budget-secs 180

step "fuzz smoke (append delta API: bit-identity vs from-scratch, fixed seed)"
# An append leg exists to hold the splice path against from-scratch
# execution, so it fails when fewer than a quarter of its cases spliced, or
# when no case read a rank off the peer groups or probed a forest two calls
# share. Half of --append's cases are shaped to splice (gen::splice_case);
# at the seeds below 223 of 600 and 35 of 100 do.
append_leg() {
  local out
  out=$("$@")
  echo "$out"
  local re='([0-9]+) cases, seed .*; ([0-9]+) cases spliced, ([0-9]+) read a rank off the peer groups, ([0-9]+) probed a shared forest'
  if ! [[ $out =~ $re ]]; then
    echo "the append leg printed no summary line" >&2
    exit 1
  fi
  local ran=${BASH_REMATCH[1]} spliced=${BASH_REMATCH[2]} peer=${BASH_REMATCH[3]} shared=${BASH_REMATCH[4]}
  if ((spliced * 4 < ran || peer == 0 || shared == 0)); then
    echo "append leg: $spliced of $ran cases spliced (want at least 25 %), $peer read a" \
      "peer-group rank and $shared probed a shared forest (want both above 0)" >&2
    exit 1
  fi
}
append_leg cargo run --release -q -p holistic-fuzz --bin fuzz -- \
  --append --cases 600 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120

step "fuzz (append delta API at a size where forests hold thousands of values, fixed seed)"
# At --max-n 40 no forest holds more than 40 values, so a select's value
# gallop and its per-run position gallop never travel far. About 1.5 s.
append_leg cargo run --release -q -p holistic-fuzz --bin fuzz -- \
  --append --cases 100 --seed 0xA99E4D --max-n 2000 --time-budget-secs 120

step "fuzz panic sweep (invalid specs must Error, never panic; incl. tiny-budget configs)"
cargo run --release -q -p holistic-fuzz --bin fuzz -- --panic-sweep --cases 400 --seed 0x5EED

step "fuzz smoke (budget mode: bit-identical under budget or typed BudgetExceeded)"
# 1 of the 500 cases compares a re-faulted tree and 12 end in BudgetExceeded
# (2 re-faulted while every tree a tree-served call reads was built before
# any call probed; EXPERIMENTS.md).
cargo run --release -q -p holistic-fuzz --bin fuzz -- \
  --cases 500 --seed 0xB4D6E7 --max-n 40 --budget 8192 --time-budget-secs 120

step "fuzz (budget mode at a size where trees have four levels and some build out of core, fixed seed)"
# At --max-n 40 no tree has more than two levels and none is built by
# MergeSortTree::build_spilled; a tree born parked is only probed if its
# checkout then fits. Seed and budget are picked for the cases where one
# does, and the summary line says how many there are: 2 of 60 cases compared
# a re-faulted tree, 28 ended in BudgetExceeded (EXPERIMENTS.md). The seed
# was 0xB4D6EF until the generator drew `-0.0` and DISTINCT / MODE over `f`,
# which left that seed no such case.
# A change to what the governor is charged, or to when it is charged, or to
# what the generator draws, can make that case vanish: the leg fails at 0,
# re-pick then.
budget_leg() {
  local out
  out=$("$@" --cases 60 --seed 0xB4D708 --max-n 4000 --budget 100000 --time-budget-secs 120)
  echo "$out"
  if ! grep -qE '[1-9][0-9]* cases compared a re-faulted tree' <<< "$out"; then
    echo "no case of the budget leg compared a re-faulted tree: re-pick its seed and budget" >&2
    exit 1
  fi
}
budget_leg cargo run --release -q -p holistic-fuzz --bin fuzz --

step "fuzz smoke (sql-roundtrip: print → parse → plan structural + session bit-identity)"
cargo run --release -q -p holistic-fuzz --bin fuzz -- \
  --sql-roundtrip --cases 500 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120

step "fuzz legs, the frame properties and the forest and seeded-aggregate properties again through an overflow-checked release build (arithmetic at the edges)"
# Release builds wrap on integer overflow; this build panics instead, and a
# panic is a fuzz failure. Own target dir, so the flags never touch ./target.
CARGO_TARGET_DIR=target/overflow-checks RUSTFLAGS="-C overflow-checks=on" \
  cargo build --release -q -p holistic-fuzz --bin fuzz
OFUZZ=target/overflow-checks/release/fuzz
$OFUZZ --cases 600 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120
$OFUZZ --cases 100 --seed 0xD15C0 --max-n 4000 --time-budget-secs 180
append_leg $OFUZZ --append --cases 600 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120
append_leg $OFUZZ --append --cases 100 --seed 0xA99E4D --max-n 2000 --time-budget-secs 120
$OFUZZ --panic-sweep --cases 400 --seed 0x5EED
$OFUZZ --cases 500 --seed 0xB4D6E7 --max-n 40 --budget 8192 --time-budget-secs 120
budget_leg $OFUZZ
$OFUZZ --sql-roundtrip --cases 500 --seed 0xC0FFEE --max-n 40 --time-budget-secs 120
# The fuzz oracle resolves frames with the engine's own resolver, so a wrapped
# `i + off`, `key ± off` or group index agrees with itself in the legs above.
# The frame property of proptest_window holds the resolver against its
# definition instead (keys at the i64 edges, offsets up to i64::MAX), and in
# this build a wrap panics where that can see it. `cargo test` above checks
# overflow too, as every debug build does; this is the optimized code the
# fuzz legs ran. Under a minute, nearly all of it compiling the two harnesses.
CARGO_TARGET_DIR=target/overflow-checks RUSTFLAGS="-C overflow-checks=on" \
  cargo test --release -q -p holistic-window --lib --test proptest_window
# The forest's select gallops in the value domain next to the reserved
# u64::MAX (`v + 1`, `seed ± off`, the doubling step): its property draws
# values and hints up to u64::MAX − 1, and here a wrap panics. The annotated
# tree's seeded probe gallops from seeds up to usize::MAX (`seed as u64`, the
# clamp into the run): its property draws those too.
CARGO_TARGET_DIR=target/overflow-checks RUSTFLAGS="-C overflow-checks=on" \
  cargo test --release -q -p holistic-core --lib --test proptest_forest --test proptest_cursor

step "block-vs-scalar kernel micro-timer (ignored by default; run once so it cannot rot)"
# The only timer of the block kernels against the scalar descent outside
# perfbench; it asserts equal answers before it prints.
cargo test --release -q -p holistic-core --test microbench_block -- --ignored

step "window-multiset micro-timer (ignored by default; run once so it cannot rot)"
# The sorted vector, the counted B-tree and the counted bitset slide the same
# frames, and the bitset slides Fig. 12's jittered frames in row order and in
# frame order; each timer asserts equal answers, then prints ns/row, the
# tables EXPERIMENTS.md keeps. One test thread, so the two timers neither
# share the cores nor interleave their tables. About 20 s.
cargo test --release -q -p holistic-strategies --test microbench_window -- --ignored --nocapture \
  --test-threads=1

step "bench smoke (every bin once at tiny n: a figure bin that panics at run time fails here)"
# Each bin reads only its own variables (fig10 steps through fixed sizes from
# 20 000 up, N_MAX keeps the first). The bins cross-check their algorithms
# against each other before timing, fig14 against the engine's own answer.
for bin in table1 fig09 fig10 fig11 fig12 fig13 fig14 ablation dense_rank_ext mode_ext; do
  N=2000 N_MAX=20000 W=100 REPS=1 cargo run --release -q -p holistic-bench --bin "$bin" > /dev/null
done
N=4000 REPS=1 cargo run --release -q -p holistic-bench --bin crossover_ext -- --json
# Asserts budgeted execution bit-identical to unbudgeted, peak resident within
# 1.25x budget, and that the auto-derived budget actually spills.
N=60000 PARTS=6 BUDGET=0 REPS=1 cargo run --release -q -p holistic-bench --bin spill_ext -- --json

took
if [ -n "${open_group:-}" ]; then echo "::endgroup::"; fi
echo "CI OK (${SECONDS} s)"
