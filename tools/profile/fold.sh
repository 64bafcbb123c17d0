#!/usr/bin/env bash
# Fold the samples `sigprof.c` wrote into self-time shares by function.
#
# Usage: bash tools/profile/fold.sh BINARY SAMPLES
#
# Each sample's offset is resolved with `addr2line -f -i -C`, which names
# the chain of functions inlined at that instruction. Two tables follow,
# 25 rows each, as percentages of the samples inside the binary:
#   innermost  the function whose code the instruction belongs to, inlined
#              or not (the self time of each small helper);
#   outermost  the out-of-line function that contains it (where the time
#              lands once inlining is undone).
# Release builds here keep debug info (`debug = true`), so both resolve.
set -euo pipefail
bin=$1 samples=$2
total=$(grep -vc '^#' "$samples" || true)
if [ "$total" -eq 0 ]; then
    echo "no samples in $samples" >&2
    exit 1
fi
outside=$(sed -n 's/^# outside //p' "$samples")
echo "samples: $total in $(basename "$bin"), ${outside:-0} outside it"
# One line per sample: "innermost<TAB>outermost". With -a, addr2line starts
# each address's chain with the address itself; function names and
# file:line pairs alternate after it.
grep -v '^#' "$samples" | sed 's/^/0x/' | addr2line -a -f -i -C -e "$bin" |
    awk '
        /^0x[0-9a-f]+$/ { if (n) print first "\t" last; n = 0; next }
        { n++; if (n % 2 == 1) { if (n == 1) first = $0; last = $0 } }
        END { if (n) print first "\t" last }
    ' >"$samples.chains"
for side in innermost outermost; do
    col=$([ "$side" = innermost ] && echo 1 || echo 2)
    echo
    echo "$side:"
    cut -f"$col" "$samples.chains" | sort | uniq -c | sort -rn | head -n 25 |
        awk -v total="$total" '{ n = $1; $1 = ""; printf "%6.1f%%  %s\n", 100 * n / total, substr($0, 2) }'
done
rm -f "$samples.chains"
