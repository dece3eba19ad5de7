#!/usr/bin/env bash
# Parity report of the working tree against a base commit: the north-star
# line counts (scripts/lines.sh) of both side by side, then whether
# `figures --scale 0.02 all` prints the same bytes on both.
#
#   scripts/parity.sh BASE
#
# BASE is any commit-ish (`main`, `origin/main`, a hash).  Its tree is
# exported with `git archive` into a temporary directory, which is deleted
# on exit, and built there into its own target directory; the working tree
# builds into its usual one.  Both sides are counted by this checkout's
# lines.sh, so a change to the counting rule cannot pass for a change in
# the code.  Exits 1, after printing the first differing rows, when the
# figures differ; a line count is reported, never gated.  The line table
# lists every source tree found on either side, 0 where a side has none.
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
awk 'NR == FNR { was[$1] = $2; if ($1 != "total") tree[++n] = $1; next }
     { now[$1] = $2; if (!($1 in was)) tree[++n] = $1 }
     END { tree[++n] = "total"
           for (i = 1; i <= n; i++) { t = tree[i]
               printf "%-24s %8d %8d %+7d\n", t, was[t], now[t], now[t] - was[t] } }' \
    <("$base/scripts/lines.sh") <(scripts/lines.sh)

echo "== figures --scale 0.02 all"
cargo build --release --offline --quiet -p ditto-bench --bin figures \
    --manifest-path "$base/Cargo.toml" --target-dir "$base/target"
cargo build --release --offline --quiet -p ditto-bench --bin figures
"$base/target/release/figures" --scale 0.02 all > "$base/figures_base.txt"
"${CARGO_TARGET_DIR:-target}/release/figures" --scale 0.02 all > "$base/figures_work.txt"
if cmp -s "$base/figures_base.txt" "$base/figures_work.txt"; then
    echo "identical ($(wc -l < "$base/figures_work.txt") lines)"
else
    echo "figures differ; first differing rows (< base, > working tree):"
    diff "$base/figures_base.txt" "$base/figures_work.txt" | head -n 40 || true
    exit 1
fi
