#!/usr/bin/env bash
# A/B e2e_bench workloads between two builds: the choosing-metrics §8
# procedure in one command, with the benchmark's gate beside it.
#
#   tools/e2e_ab.sh PARENT_BIN CHANGE_BIN WORKLOAD|all [PAIRS=10] [SEED=7] [SECONDS=15]
#   tools/e2e_ab.sh --bounds
#
# Runs `e2e_bench --workload W --seed S --seconds T --trace 0` PAIRS times per
# side in A-B-B-A order (odd pairs parent first, even pairs change first),
# reads the gated metrics from the table each run prints, and reports per
# metric both medians, both quartile pairs, the pairs the change won (ties
# count for neither), the metric's bound and a verdict. The metrics, which
# way is better and the bounds are the `end_to_end` entries of
# BENCHMARK.json. Verdicts: "better" (or "worse, in bound") needs >= 9/10 of
# the pairs won (lost) *and* medians further apart than the parent's own
# inter-quartile distance; "over bound" means the change's median is worse
# than the parent's by more than the bound, which the benchmark gate
# rejects. `all` runs every workload of BENCHMARK.json, in its order.
# `--bounds` prints the parsed `metric better bound` rows and the workload
# list, and exits. Exits non-zero if a metric is over its bound, a run's
# outcome digest differs or `failed` > 0. bash + awk only; the only files
# written are in a `mktemp -d` directory that is removed on exit.
set -euo pipefail

bench="$(dirname "$0")/../BENCHMARK.json"

# The `end_to_end` entries as `name better bound` rows, then one
# `workloads ...` row. BENCHMARK.json is pretty-printed: top-level keys
# are indented by two spaces, one entry key per line.
parse_bench() {
    awk '
        /^  "/ { split($0, k, "\""); section = k[2] }
        section == "workloads" && /"name":/ { split($0, v, "\""); workloads = workloads " " v[4] }
        section == "end_to_end" && /"name":/ { split($0, v, "\""); name = v[4] }
        section == "end_to_end" && /"better":/ { split($0, v, "\""); better = v[4] }
        section == "end_to_end" && /"bound":/ { bound = $2; sub(/,$/, "", bound) }
        section == "end_to_end" && /^ *}/ && name != "" { print name, better, bound; name = "" }
        END { print "workloads" workloads }
    ' "$bench"
}

if [ "${1:-}" = "--bounds" ]; then
    parse_bench
    exit 0
fi
if [ $# -lt 3 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 pairs=${4:-10} seed=${5:-7} seconds=${6:-15}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
parse_bench | grep -v '^workloads' >"$tmp/gates"
if [ "$3" = all ]; then
    read -ra workloads <<<"$(parse_bench | sed -n 's/^workloads //p')"
else
    workloads=("$3")
fi

# One run: appends "side pair metric value" rows for the gated metrics,
# plus the digest and the failed count as pseudo-metrics.
run() { # workload side bin pair
    "$3" --workload "$1" --seed "$seed" --seconds "$seconds" --trace 0 |
        awk -v side="$2" -v pair="$4" '
            NR == FNR { gated[$1] = 1; next }
            $1 in gated { print side, pair, $1, $2 }
            $1 == "workload" { for (i = 1; i < NF; i++) if ($i == "digest") print side, pair, "digest", $(i + 1) }
            $1 == "host.calib_ms" { print side, pair, "failed", $NF }
        ' "$tmp/gates" - >>"$tmp/rows.$1"
}

# The table of one workload; exits non-zero on a bad digest, a failed
# operation or a metric over its bound.
report() { # workload
    echo "workload $1  seed $seed  seconds $seconds  pairs $pairs  (parent: $parent, change: $change)"
    awk -v pairs="$pairs" '
        function quantile(a, n, p,    pos, lo, frac) { # a[1..n] sorted ascending
            pos = 1 + p * (n - 1); lo = int(pos); frac = pos - lo
            return lo >= n ? a[n] : a[lo] + frac * (a[lo + 1] - a[lo])
        }
        function sorted(side, metric, out,    i, j, n, t) {
            n = 0
            for (i = 1; i <= pairs; i++) if ((side, i, metric) in v) out[++n] = v[side, i, metric]
            for (i = 2; i <= n; i++) { t = out[i]; for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
            return n
        }
        NR == FNR { order[++m] = $1; if ($2 == "higher") higher[$1] = 1; bound[$1] = $3; next }
        $3 == "digest" { digests[$4]++; next }
        $3 == "failed" { failed += $4; next }
        { v[$1, $2, $3] = $4 }
        END {
            printf "%-18s %12s %12s %8s  %-25s %-25s %6s %6s  %s\n", "metric", "parent med", "change med", "delta", "parent q1..q3", "change q1..q3", "won", "bound", "verdict"
            for (k = 1; k <= m; k++) {
                name = order[k]
                np = sorted("parent", name, p); nc = sorted("change", name, c)
                pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
                p1 = quantile(p, np, 0.25); p3 = quantile(p, np, 0.75)
                c1 = quantile(c, nc, 0.25); c3 = quantile(c, nc, 0.75)
                won = lost = 0
                for (i = 1; i <= pairs; i++) {
                    d = v["change", i, name] - v["parent", i, name]
                    if (name in higher) d = -d
                    if (d < 0) won++; else if (d > 0) lost++
                }
                gap = cm - pm; if (name in higher) gap = -gap
                apart = (gap < 0 ? -gap : gap) > p3 - p1
                verdict = "inside spread"
                if (pm && gap / (pm < 0 ? -pm : pm) > bound[name]) { verdict = "over bound"; over++ }
                else if (won >= 0.9 * pairs && gap < 0 && apart) verdict = "better"
                else if (lost >= 0.9 * pairs && gap > 0 && apart) verdict = "worse, in bound"
                else if (won + lost == 0) verdict = "equal"
                printf "%-18s %12.6g %12.6g %+7.1f%%  %-25s %-25s %3d/%-2d %5g%%  %s\n", name, pm, cm, pm ? 100 * (cm - pm) / pm : 0, sprintf("%.6g..%.6g", p1, p3), sprintf("%.6g..%.6g", c1, c3), won, pairs, 100 * bound[name], verdict
            }
            n = 0; for (d in digests) { n++; last = d }
            if (n == 1) print "digest " last " on all " digests[last] " runs"; else { print "DIGESTS DIFFER:"; for (d in digests) print "  " d " x" digests[d] }
            print "failed " failed + 0
            exit (n != 1 || failed > 0 || over > 0)
        }
    ' "$tmp/gates" "$tmp/rows.$1"
}

status=0
for workload in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$workload" "$side" "${!side}" "$i" # the binary in $parent or $change
            printf '.' >&2
        done
    done
    printf '\n' >&2
    report "$workload" || status=1
done
exit $status
