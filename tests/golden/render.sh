#!/usr/bin/env bash
# Renders one spec the way the golden gate pins it.
#
#   render.sh <coopsim_cli> <spec file> <output prefix>
#
# Writes <prefix>.txt, the stdout of
#   coopsim_cli --spec=<file> --scale=test --threads=2 --store=<tmp>
# and <prefix>.sha256, the SHA-256 of the run's store lines cut to
# their key<TAB>result fields (the CRC trailer and the magic line
# dropped) and sorted bytewise. The table pins what a reader sees; the
# digest pins every RunResult field at full precision.
set -euo pipefail

if [ "$#" -ne 3 ]; then
    echo "usage: $0 <coopsim_cli> <spec file> <output prefix>" >&2
    exit 2
fi
cli=$1
spec=$2
prefix=$3

store=$(mktemp -d)
trap 'rm -rf "$store"' EXIT

"$cli" --spec="$spec" --scale=test --threads=2 --store="$store" \
    > "$prefix.txt" 2> "$store/stderr.txt" || {
    cat "$store/stderr.txt" >&2
    exit 1
}
grep -E '^(group|solo) ' "$store/results.coopstore" | cut -f1,2 |
    LC_ALL=C sort | sha256sum | cut -d' ' -f1 > "$prefix.sha256"
