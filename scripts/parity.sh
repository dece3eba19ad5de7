#!/usr/bin/env bash
# Parity report of the working tree against a base commit: the north-star
# line counts (scripts/lines.sh) of both side by side, whether
# `figures --scale 0.02 all` prints the same bytes on both, and which of
# the repo benchmark's end-to-end metrics differ between them.
#
#   scripts/parity.sh BASE
#
# BASE is any commit-ish (`main`, `origin/main`, a hash).  Its tree is
# exported with `git archive` into a temporary directory, which is deleted
# on exit, and built there into its own target directories; the working
# tree builds into its usual ones.  Both sides are counted by this
# checkout's lines.sh, so a change to the counting rule cannot pass for a
# change in the code.  The line table lists every source tree found on
# either side, 0 where a side has none, then the total and lines.sh's
# `core/client` subtotal; a line count is reported, never gated.  The
# figures section prints the first differing rows.  The benchmark section
# runs `benchmark/` on both sides at seeds 42, 7 and 3 with `--trace 0`,
# each run as long as the benchmark's own (`run_seconds` in this checkout's
# BENCHMARK.json), and prints, per seed and workload, every end-to-end
# metric but `setup_s` (a host time) that differs, as base -> work with its
# % change, and a `failed` count that differs.  Seed 3 is the one a gain was
# not tuned on: a claim that holds at 42 and 7 only is no claim.
# Every section runs; the script then exits 1 if the figures or the
# benchmark differ.  Needs `jq`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
    echo "usage: scripts/parity.sh BASE" >&2
    exit 2
fi
base_rev=$(git rev-parse --verify "$1^{commit}")
base=$(mktemp -d "${TMPDIR:-/tmp}/ditto-parity.XXXXXX")
trap 'rm -rf "$base"' EXIT
git archive "$base_rev" | tar -x -C "$base"
mkdir -p "$base/scripts"
cp scripts/lines.sh "$base/scripts/lines.sh"

echo "== lines ($(git rev-parse --short "$base_rev") -> working tree)"
printf '%-24s %8s %8s %7s\n' tree base work delta
awk 'NR == FNR { was[$1] = $2; if ($1 != "total" && $1 != "core/client") tree[++n] = $1; next }
     { now[$1] = $2; if (!($1 in was)) tree[++n] = $1 }
     END { tree[++n] = "total"; tree[++n] = "core/client"
           for (i = 1; i <= n; i++) { t = tree[i]
               printf "%-24s %8d %8d %+7d\n", t, was[t], now[t], now[t] - was[t] } }' \
    <("$base/scripts/lines.sh") <(scripts/lines.sh)

echo "== figures --scale 0.02 all"
cargo build --release --offline --quiet -p ditto-bench --bin figures \
    --manifest-path "$base/Cargo.toml" --target-dir "$base/target"
cargo build --release --offline --quiet -p ditto-bench --bin figures
"$base/target/release/figures" --scale 0.02 all > "$base/figures_base.txt"
"${CARGO_TARGET_DIR:-target}/release/figures" --scale 0.02 all > "$base/figures_work.txt"
status=0
if cmp -s "$base/figures_base.txt" "$base/figures_work.txt"; then
    echo "identical ($(wc -l < "$base/figures_work.txt") lines)"
else
    echo "figures differ; first differing rows (< base, > working tree):"
    diff "$base/figures_base.txt" "$base/figures_work.txt" | head -n 40 || true
    status=1
fi

seconds=$(jq -r .run_seconds BENCHMARK.json)
echo "== benchmark --seconds $seconds --trace 0, end-to-end metrics but setup_s"
cargo build --release --offline --quiet --manifest-path "$base/benchmark/Cargo.toml" \
    --target-dir "$base/benchmark/target"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# One `workload metric value` line per metric, and `workload failed N`.
bench_lines() {
    "$1" --seconds "$seconds" --trace 0 --seed "$2" 2>/dev/null | tail -n 1 | jq -r '
        .runs[] | .workload as $w | .result
        | "\($w) failed \(.failed)",
          (.metrics | to_entries[] | select(.key != "setup_s")
           | "\($w) \(.key) \(.value.value)")'
}
for seed in 42 7 3; do
    # A run that exits non-zero still has its lines compared.
    bench_lines "$base/benchmark/target/release/ditto-benchmark" "$seed" \
        > "$base/bench_base.txt" || status=1
    bench_lines "${CARGO_TARGET_DIR:-benchmark/target}/release/ditto-benchmark" "$seed" \
        > "$base/bench_work.txt" || status=1
    awk -v seed="$seed" '
        NR == FNR { was[$1 " " $2] = $3; next }
        { key = $1 " " $2; seen[key] = 1
          if (!(key in was)) { printf "seed %-3s %-40s (none) -> %s\n", seed, key, $3; differ = 1 }
          else if (was[key] != $3) {
              change = ($2 == "failed" || was[key] == 0) ? "" \
                  : sprintf(" (%+.4f %%)", ($3 - was[key]) / was[key] * 100)
              printf "seed %-3s %-40s %s -> %s%s\n", seed, key, was[key], $3, change
              differ = 1 } }
        END { for (key in was) if (!(key in seen)) {
                  printf "seed %-3s %-40s %s -> (none)\n", seed, key, was[key]; differ = 1 }
              if (!differ) print "seed " seed ": identical"
              exit differ }' "$base/bench_base.txt" "$base/bench_work.txt" || status=1
done
exit "$status"
