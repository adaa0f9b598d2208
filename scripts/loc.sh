#!/usr/bin/env sh
# Non-test Go lines per package, bench/ excluded (the benchmark prices the
# library, it is not part of it), then the _test.go lines outside bench/ as
# a second total, so code moved into tests shows as a move, not a deletion.
# ROADMAP item 10 tracks this table: a simplification PR carries its
# before/after in the PR description.
#
# Usage: scripts/loc.sh [checkout]   (default: this repository)
set -eu

cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' -exec wc -l {} + | awk '
$2 == "total" { next }
{
    dir = $2
    sub(/\/[^\/]*$/, "", dir)
    lines[dir] += $1
    total += $1
}
END {
    for (dir in lines) printf "%6d %s\n", lines[dir], dir | "sort -k2"
    close("sort -k2")
    printf "%6d total\n", total
}
'
find . -name '*_test.go' ! -path './bench/*' ! -path './.git/*' -exec cat {} + | wc -l |
    awk '{ printf "%6d total _test.go\n", $1 }'
