#!/usr/bin/env bash
# The wedge census: which Static Bubble runs never drain, and why.
#
# 60 cells on an 8x8 mesh: FaultSpec::Model over {Links, Routers} x count
# {4, 8, 12, 16, 20} x fault seed 1-6, uniform random traffic at 0.3 on one
# vnet with 4 VCs, 1,000 warm-up and 5,000 measured cycles, sim seed 1,
# t_DD 34 and every sb_* switch on. Each cell's spec is written from the
# template below (sbsim's fault flags build only FaultSpec::Mixed) and run
# with `sbsim --scenario SPEC --drain 200000`. One line a cell:
#
#   kind <TAB> count <TAB> seed <TAB> drained <TAB> recoveries <TAB> class
#
# drained is the cycle the network was empty at, or STUCK; recoveries is
# the `recovered` field of the proto counters line (the whole run,
# drain included). class is read from the same line for a stuck cell and
# is `-` for one that drained:
#
#   A      d_frozen >= latches / 2: the owner's disable meets itself at a
#          router the cycle crosses twice (ROADMAP item 12);
#   B      disfail >= latches / 2: a trapped bubble at the cycle's only
#          owner (ROADMAP item 13);
#   other  neither.
#
# Every run is exact and seeded, so the table is too.
#
# Usage: bash tests/wedges/run.sh [OUT [SPECS]]
#   OUT defaults to results/wedges.txt. SPECS, if given, is a directory
#   that keeps the generated specs (named KIND-COUNT-SEED.toml), e.g. to
#   run them again under `sbsim --bisect`. SBSIM names the binary to run
#   (default: this checkout's release `sbsim`, built first).
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
out=$(realpath -m "${1:-$root/results/wedges.txt}")
if [ -n "${2:-}" ]; then
    specs=$(realpath -m "$2")
    mkdir -p "$specs"
else
    specs=$(mktemp -d)
    trap 'rm -rf "$specs"' EXIT
fi
if [ -z "${SBSIM:-}" ]; then
    (cd "$root" && cargo build --release --quiet --bin sbsim)
    SBSIM=${CARGO_TARGET_DIR:-$root/target}/release/sbsim
fi

: >"$out"
for kind in Links Routers; do
    for count in 4 8 12 16 20; do
        for seed in 1 2 3 4 5 6; do
            spec="$specs/$kind-$count-$seed.toml"
            cat >"$spec" <<SPEC
name = "wedge-census"
width = 8
height = 8
design = "StaticBubble"
bubbles = "Auto"
tdd = 34
sb_forking = true
sb_check_probe = true
sb_return_forwarding = true
sb_probe_desync = true
warmup = 1000
cycles = 5000
seed = 1
audit_every = 0
clock = "Step"
threads = 1

[faults.Model]
kind = "$kind"
count = $count
seed = $seed

[traffic.Uniform]
rate = 0.3
single_vnet = true

[config]
vnets = 1
vcs_per_vnet = 4
max_packet_flits = 5
SPEC
            "$SBSIM" --scenario "$spec" --drain 200000 | awk -v cell="$kind	$count	$seed" '
                /^drain / {
                    stuck = ($3 == "STUCK")
                    t = $4; sub(/^\(t=/, "", t); sub(/,$/, "", t)
                }
                /^proto counters / {
                    for (i = 1; i <= NF; i++) {
                        split($i, kv, "=")
                        if (kv[2] != "") field[kv[1]] = kv[2]
                    }
                }
                END {
                    class = "-"
                    if (stuck) {
                        if (2 * field["d_frozen"] >= field["latches"]) class = "A"
                        else if (2 * field["disfail"] >= field["latches"]) class = "B"
                        else class = "other"
                    }
                    printf "%s\t%s\t%s\t%s\n", cell, stuck ? "STUCK" : t, field["recovered"], class
                }' | tee -a "$out"
        done
    done
done
