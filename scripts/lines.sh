#!/usr/bin/env bash
# Non-test, non-comment line count of the workspace's Rust sources: every
# `.rs` file under `crates/*/src`, `src/` and `examples/`, each counted up to
# its first `#[cfg(test)]`, without blank lines or lines that start with
# `//` (doc comments included).  Prints one count per source tree, the
# total, and then, not added into it, the `core/client` subtotal:
# `crates/core/src/client.rs` plus `crates/core/src/client/*.rs`, counted
# by the same rule.  Run from anywhere: `scripts/lines.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/src src examples; do
    n=$(count "$dir")
    printf '%-24s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-24s %6d\n' total "$total"
printf '%-24s %6d\n' core/client "$(count crates/core/src/client.rs crates/core/src/client)"
