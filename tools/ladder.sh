#!/usr/bin/env bash
# The scale ladder: one `mtshare simulate --metrics-out` run per rung of
# ROADMAP's *Measured* table, one row each.
#
#   tools/ladder.sh [MTSHARE_BIN=target/release/mtshare] [SEED=8]
#
# Rungs (rows×cols, taxis, requests): 64×64 360 3 600; 100×100 1 000
# 10 000; 150×150 2 250 22 500 (≈ 25 s on a 2-core host). Columns: process
# wall, set-up (process wall minus the loop), loop (`profiling.process.
# loop_wall_s`), the `oracle_pin`, `candidate_search`, `insertion_dp` and
# `routing` stage totals, vertices settled per new pin
# (`oracle.settled / oracle.pin_computes`, regrows included) and peak RSS
# (`profiling.process.peak_rss_mb`). Seconds, except settled (vertices)
# and RSS (MiB); `nan` where the summary lacks a field (schema before
# v16). bash + awk only; the only files written are a summary and the
# run's stderr in a `mktemp -d` directory that is removed on exit.
set -euo pipefail

bin="${1:-target/release/mtshare}"
seed="${2:-8}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# `key` of the one-line summary: the number after `"key":`, or after
# `"key":{"count":N,"total_s":` for a stage histogram.
field() {
    awk -v key="$2" '{
        pat = "\"" key "\":(\\{\"count\":[0-9]+,\"total_s\":)?[-0-9.e+]+"
        if (match($0, pat)) {
            v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v); print v; exit
        }
        print "nan"
    }' "$1"
}

printf '%-9s %7s %7s %7s %10s %9s %9s %7s %8s %8s\n' shape process setup loop \
    oracle_pin cand_srch insertion routing settled rss_mb
for rung in "64 360 3600" "100 1000 10000" "150 2250 22500"; do
    read -r side taxis requests <<<"$rung"
    start=$EPOCHREALTIME
    "$bin" simulate --rows "$side" --cols "$side" --taxis "$taxis" --requests "$requests" \
        --seed "$seed" --metrics-out "$tmp/summary.json" >/dev/null 2>"$tmp/stderr" \
        || { cat "$tmp/stderr" >&2; exit 1; }
    wall=$(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.3f", b - a }')
    s="$tmp/summary.json"
    awk -v shape="${side}x${side}" -v wall="$wall" -v loop="$(field "$s" loop_wall_s)" \
        -v pin="$(field "$s" oracle_pin)" -v cand="$(field "$s" candidate_search)" \
        -v ins="$(field "$s" insertion_dp)" -v route="$(field "$s" routing)" \
        -v settled="$(field "$s" settled)" -v pins="$(field "$s" pin_computes)" \
        -v rss="$(field "$s" peak_rss_mb)" 'BEGIN {
            per = pins > 0 ? settled / pins : 0
            printf "%-9s %7.2f %7.2f %7.3f %10.3f %9.3f %9.3f %7.3f %8.0f %8.1f\n",
                shape, wall, wall - loop, loop, pin, cand, ins, route, per, rss
        }'
done
