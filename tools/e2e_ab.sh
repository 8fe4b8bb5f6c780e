#!/usr/bin/env bash
# A/B one e2e_bench workload between two builds: the choosing-metrics §8
# procedure in one command.
#
#   tools/e2e_ab.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SEED=7] [SECONDS=15]
#
# Runs `e2e_bench --workload W --seed S --seconds T --trace 0` PAIRS times per
# side in A-B-B-A order (odd pairs parent first, even pairs change first),
# reads the eight gated metrics from the table each run prints, and reports
# per metric both medians, both quartile pairs, the pairs the change won
# (ties count for neither) and the §8 verdict: "better" (or "worse") needs
# >= 9/10 of the pairs won *and* medians further apart than the parent's own
# inter-quartile distance. It also checks that every run printed the same
# outcome digest and `failed 0`. bash + awk only; the only files written are
# in a `mktemp -d` directory that is removed on exit.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=${4:-10} seed=${5:-7} seconds=${6:-15}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# One run: appends "side pair metric value" rows for the gated metrics,
# plus the digest and the failed count as pseudo-metrics.
run() { # side bin pair
    "$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        awk -v side="$1" -v pair="$3" '
            $1 ~ /^(setup_s|loop_wall_s|req_per_s|response_mean_ms|response_p95_ms|service_p50_ms|peak_rss_mb|served_ratio)$/ {
                print side, pair, $1, $2
            }
            $1 == "workload" { for (i = 1; i < NF; i++) if ($i == "digest") print side, pair, "digest", $(i + 1) }
            $1 == "host.calib_ms" { print side, pair, "failed", $NF }
        ' >>"$tmp/rows"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run "$side" "${!side}" "$i" # the binary in $parent or $change
        printf '.' >&2
    done
done
printf '\n' >&2

echo "workload $workload  seed $seed  seconds $seconds  pairs $pairs  (parent: $parent, change: $change)"
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
    $3 == "digest" { digests[$4]++; next }
    $3 == "failed" { failed += $4; next }
    { v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++m] = $3 } }
    END {
        higher["req_per_s"] = higher["served_ratio"] = 1
        printf "%-18s %12s %12s %8s  %-25s %-25s %6s  %s\n", "metric", "parent med", "change med", "delta", "parent q1..q3", "change q1..q3", "won", "verdict"
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
            if (won >= 0.9 * pairs && gap < 0 && apart) verdict = "better"
            else if (lost >= 0.9 * pairs && gap > 0 && apart) verdict = "worse"
            else if (won + lost == 0) verdict = "equal"
            printf "%-18s %12.6g %12.6g %+7.1f%%  %-25s %-25s %3d/%-2d  %s\n", name, pm, cm, pm ? 100 * (cm - pm) / pm : 0, sprintf("%.6g..%.6g", p1, p3), sprintf("%.6g..%.6g", c1, c3), won, pairs, verdict
        }
        n = 0; for (d in digests) { n++; last = d }
        if (n == 1) print "digest " last " on all " digests[last] " runs"; else { print "DIGESTS DIFFER:"; for (d in digests) print "  " d " x" digests[d] }
        print "failed " failed + 0
        exit (n != 1 || failed > 0)
    }
' "$tmp/rows"
