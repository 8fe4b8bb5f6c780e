#!/usr/bin/env bash
# The ROADMAP's size metric: non-test Rust, i.e. the lines before the first
# `#[cfg(test)]` of every `.rs` under `crates/*/src` and `src`, per crate
# and in total.
#
#   tools/size.sh            # from anywhere inside the repository
#
# bash + find + awk only; writes nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting {
        crate = FILENAME
        if (crate ~ /^crates\//) { sub(/^crates\//, "", crate); sub(/\/.*/, "", crate) } else crate = "src"
        lines[crate]++; total++
    }
    END {
        for (crate in lines) printf "%6d  %s\n", lines[crate], crate | "sort -k1,1nr"
        close("sort -k1,1nr")
        printf "%6d  total\n", total
    }'
