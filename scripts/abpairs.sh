#!/usr/bin/env sh
# Same-session A/B of the repository's benchmark: <base-ref> against the
# working tree, in alternating pairs (choosing-metrics §8). Builds ./bench
# of each side once — the base from `git archive` into the git-ignored
# .bench_build/ — runs `-workload w -seed s` pairs times per side,
# alternating which side goes first, and prints every run, then per side the
# median and quartiles of every end-to-end metric and the win count on
# runs_per_s. A run whose result line says correct=false or failed>0 is
# printed as such and still counted: look before reading the medians.
#
# Usage: scripts/abpairs.sh <base-ref> <workload> [pairs=10] [seed=1]
set -eu

[ $# -ge 2 ] || { echo "usage: $0 <base-ref> <workload> [pairs=10] [seed=1]" >&2; exit 2; }
base=$1 workload=$2 pairs=${3:-10} seed=${4:-1}

cd "$(dirname "$0")/.."
out=$PWD/.bench_build/abpairs
rm -rf "$out"
mkdir -p "$out/base"
git archive "$base" | tar -x -C "$out/base"
(cd "$out/base" && go build -o "$out/bench.base" ./bench)
rm -rf "$out/base" # only the binary is needed, and scripts/loc.sh would count the tree
go build -o "$out/bench.change" ./bench

# one <side> <pair>: run the side's binary, append "side pair metric value"
# rows from the driver's one-line JSON result to $out/runs, print the run.
one() {
    "$out/bench.$1" -workload "$workload" -seed "$seed" | tail -n 1 | tr '{}' '\n\n' | awk -v side="$1" -v pair="$2" '
        /"correct"/ { gsub(/"|,"metrics":/, ""); status = $0 }
        /^"value":/ { split($0, f, /[:,]/); print side, pair, name, f[2]; if (name == "runs_per_s") rate = f[2] }
        { name = $0; gsub(/[",:]/, "", name) }
        END {
            print side, pair, "status", status
            printf "pair %2d %-6s runs_per_s %-10.8g %s\n", pair, side, rate, status >"/dev/stderr"
        }
    ' >>"$out/runs"
}

: >"$out/runs"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then one base "$i"; one change "$i"; else one change "$i"; one base "$i"; fi
    i=$((i + 1))
done

echo
echo "$workload seed $seed, $pairs pairs: base $base vs working tree — q1 / median / q3"
awk '
    $3 == "status" { next }
    !($3 in seen) { seen[$3] = 1; metrics[++m] = $3 }
    { v[$1, $3, ++n[$1, $3]] = $4 + 0 }
    $3 == "runs_per_s" { r[$1, $2] = $4 + 0; if ($2 + 0 > pairs) pairs = $2 + 0 }
    function row(side, metric,   k, i, j, t, s, q2) {
        k = n[side, metric]
        for (i = 1; i <= k; i++) s[i] = v[side, metric, i]
        for (i = 2; i <= k; i++) for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
        q2 = k % 2 ? s[(k + 1) / 2] : (s[k / 2] + s[k / 2 + 1]) / 2
        printf "  %-22s %-7s %.6g / %.6g / %.6g\n", metric, side, s[int((k + 3) / 4)], q2, s[k + 1 - int((k + 3) / 4)]
    }
    END {
        for (i = 1; i <= m; i++) { row("base", metrics[i]); row("change", metrics[i]) }
        for (i = 1; i <= pairs; i++) { if (r["change", i] > r["base", i]) w++; else if (r["change", i] < r["base", i]) l++ }
        printf "  runs_per_s: change ahead in %d of %d pairs (behind in %d)\n", w, pairs, l
    }
' "$out/runs"
