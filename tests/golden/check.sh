#!/usr/bin/env bash
# The golden gate for one spec: re-renders specs/<name>.spec at test
# scale and fails unless both the table and the store-line digest are
# byte-identical to tests/golden/<name>.{txt,sha256}.
#
#   check.sh <coopsim_cli> <spec name>
#
# A deliberate change of results is recorded with update.sh, never by
# editing the golden files by hand.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <coopsim_cli> <spec name>" >&2
    exit 2
fi
cli=$1
name=$2
here=$(cd "$(dirname "$0")" && pwd)
spec=$here/../../specs/$name.spec

for golden in "$here/$name.txt" "$here/$name.sha256"; do
    if [ ! -f "$golden" ]; then
        echo "no golden file $golden; record it with" \
             "tests/golden/update.sh" >&2
        exit 1
    fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
"$here/render.sh" "$cli" "$spec" "$out/$name"

status=0
if ! diff -u "$here/$name.txt" "$out/$name.txt"; then
    echo "$name: rendered table differs from tests/golden/$name.txt" >&2
    status=1
fi
if ! diff -u "$here/$name.sha256" "$out/$name.sha256"; then
    echo "$name: store-line digest differs from" \
         "tests/golden/$name.sha256" >&2
    status=1
fi
exit "$status"
