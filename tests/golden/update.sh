#!/usr/bin/env bash
# Regenerates the golden files of the named specs (default: every spec
# the gate covers) from a built coopsim_cli:
#
#   tests/golden/update.sh build/coopsim_cli [spec name...]
#
# Only run this for a change that is meant to alter results, and note
# the regeneration (which specs, and why) in CHANGES.md.
set -euo pipefail

if [ "$#" -lt 1 ]; then
    echo "usage: $0 <coopsim_cli> [spec name...]" >&2
    exit 2
fi
cli=$1
shift
here=$(cd "$(dirname "$0")" && pwd)

names=("$@")
if [ "${#names[@]}" -eq 0 ]; then
    for spec in "$here"/../../specs/*.spec; do
        name=$(basename "$spec" .spec)
        # Trace specs replay recorded .cooptrace files, which the
        # repository does not ship.
        case "$name" in *_trace) continue ;; esac
        names+=("$name")
    done
fi

for name in "${names[@]}"; do
    "$here/render.sh" "$cli" "$here/../../specs/$name.spec" "$here/$name"
    echo "updated tests/golden/$name.{txt,sha256}"
done
