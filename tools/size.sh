#!/usr/bin/env bash
# The ROADMAP's size metric: non-test Rust lines of every `.rs` under
# `crates/*/src` and `src`, per crate and in total. A file counts up to its
# first `#[cfg(test)]` item; a one-line test-module declaration
# (`#[cfg(test)]` then `mod x;`) is skipped instead, and the file it names
# (`x.rs` or `x/mod.rs` beside the declaring module) is not counted at all.
#
#   tools/size.sh            # from anywhere inside the repository
#
# bash + find + awk only; writes nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -d '' files < <(find crates/*/src src -name '*.rs' -print0 | sort -z)
# Two passes over the same files: the first finds the test-only files.
awk '
    function is_test_attr(line) { return line ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ }
    function mod_decl(line) {
        if (line !~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/) return ""
        sub(/^.*mod[[:space:]]+/, "", line); sub(/[[:space:]]*;.*$/, "", line)
        return line
    }
    # The directory a module file declares its children in.
    function child_dir(file) {
        if (file ~ /\/(mod|lib|main)\.rs$/) { sub(/\/[^\/]*$/, "", file); return file }
        sub(/\.rs$/, "", file); return file
    }
    FNR == 1 { held = 0; counting = !(FILENAME in excluded) }
    # First pass: the files test-module declarations name.
    pass == 1 {
        if (held && (name = mod_decl($0)) != "") {
            excluded[child_dir(FILENAME) "/" name ".rs"] = 1
            excluded[child_dir(FILENAME) "/" name "/mod.rs"] = 1
        }
        held = is_test_attr($0)
        next
    }
    # Second pass: count.
    counting && held {
        held = 0
        if (mod_decl($0) != "") next
        counting = 0
    }
    counting && is_test_attr($0) { held = 1; next }
    counting {
        crate = FILENAME
        if (crate ~ /^crates\//) { sub(/^crates\//, "", crate); sub(/\/.*/, "", crate) } else crate = "src"
        lines[crate]++; total++
    }
    END {
        for (crate in lines) printf "%6d  %s\n", lines[crate], crate | "sort -k1,1nr"
        close("sort -k1,1nr")
        printf "%6d  total\n", total
    }' pass=1 "${files[@]}" pass=2 "${files[@]}"
