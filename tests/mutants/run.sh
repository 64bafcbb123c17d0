#!/usr/bin/env bash
# The mutant kill table: which tests guard the rules the results rest on.
#
# Each tests/mutants/NN-name.patch is a one-line change to one of those
# rules (a wake made a cycle late or dropped, a Fig. 5 deadline moved, a
# Section IV-C priority flipped, ...). For each, in a throwaway copy of the
# working tree (never the checkout itself), this applies the patch, runs
# tier-1 (`cargo test`, debug) and then `cargo test --workspace --release`,
# both with `--no-fail-fast` so that every killer is named, and writes one
# line:
#
#   NN-name <TAB> class <TAB> tier-1 killers <TAB> workspace killers
#
# class is `tier1` (tier-1 fails), `workspace-only` (only the workspace
# run fails) or `survived`; killers are the failing tests, `-` if none,
# named `<package dir>/tests/<file>.rs::<test>`, `<package dir>::<unit
# test path>` or as `cargo test` names a doc test. Both runs are exact and seeded, so the table is too.
#
# Each run is built first and then run under a time limit and, per
# process, an address-space limit of 2 GiB (`mem_kib`), so a
# mutant that makes a loop endless and allocating (say a route walk that
# never arrives) fails its tests instead of taking the machine's memory.
# Such a run names `(timed out)` or `(out of memory)` among its killers.
# The limit binds the test binaries and what they spawn (and rustdoc's
# doc-test builds), not rustc building the tests.
#
# A patch applies with no fuzz: one whose context lines have drifted stops
# the run at its apply instead of landing on (or reverting onto) another
# line of the copy, which would corrupt every later mutant's run.
#
# Usage: bash tests/mutants/run.sh [OUT [PATCH...]]
#   OUT defaults to results/mutants.txt; PATCHes default to every
#   tests/mutants/*.patch. About a minute and a half a mutant on two
#   cores once the copy is built.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
out=${1:-$root/results/mutants.txt}
shift || true
if [ $# -eq 0 ]; then
    set -- "$root"/tests/mutants/*.patch
fi
out=$(realpath -m "$out")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
(cd "$root" && git ls-files -z --cached --others --exclude-standard) |
    (cd "$root" && tar --null -T - -cf -) | tar -xf - -C "$work"
export CARGO_TARGET_DIR="$work/target"
# Debug info changes no test outcome and only slows the links.
export CARGO_PROFILE_DEV_DEBUG=false CARGO_PROFILE_RELEASE_DEBUG=false

# Map `cargo test` output to failing test names. A test binary's package
# is that of the last library unit-test binary before it (cargo runs a
# package's lib tests, then its bins and integration tests).
killers() {
    awk -v pkgs="$pkgs" '
        BEGIN {
            n = split(pkgs, kv, " ")
            for (i = 1; i <= n; i++) { split(kv[i], p, "="); dir[p[1]] = p[2] }
        }
        /^ *Running / {
            exe = $NF; sub(/\)$/, "", exe); sub(/.*\//, "", exe); sub(/-[0-9a-f]+$/, "", exe)
            if ($2 == "unittests" && $3 == "src/lib.rs") pkg = dir[exe]
            label = ($2 == "unittests" && $3 == "src/lib.rs") ? pkg "::" : pkg "/" ($2 == "unittests" ? $3 : $2) "::"
            failed = 0; next
        }
        /^ *Doc-tests / { label = ""; failed = 0; next }
        /^test .* \.\.\. FAILED$/ { sub(/^test /, ""); sub(/ \.\.\. FAILED$/, ""); print label $0; failed = 1; next }
        /^error: test failed/ { if (!failed) print label "(aborted)"; failed = 1 }
        /^error: could not compile/ { print "(build failed)" }
        /^\(timed out\)$/ { print }
        /memory allocation of [0-9]+ bytes failed/ { print "(out of memory)" }
    ' | sed 's|^\./||' | sort -u | paste -sd' ' -
}
pkgs=$(cd "$work" && for toml in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$toml" | head -1)
    printf '%s=%s ' "${name//-/_}" "$(dirname "$toml")"
done)

# Build a test command in the copy, then run it under a time and a memory
# limit; print its killers.
mem_kib=2097152
run() {
    local limit=$1 status=0
    shift
    if (cd "$work" && "$@" --no-run >"$work/log" 2>&1); then
        (cd "$work" && ulimit -v "$mem_kib" && timeout "$limit" "$@" >"$work/log" 2>&1) ||
            status=$?
        if [ "$status" -eq 124 ]; then echo "(timed out)" >>"$work/log"; fi
    fi
    killers <"$work/log"
}

: >"$out"
for patch in "$@"; do
    name=$(basename "$patch" .patch)
    (cd "$work" && patch -p0 --forward --fuzz 0 --silent --no-backup-if-mismatch) <"$patch"
    t1=$(run 1800 cargo test --no-fail-fast)
    ws=$(run 3600 cargo test --workspace --release --no-fail-fast)
    (cd "$work" && patch -p0 -R --fuzz 0 --silent --no-backup-if-mismatch) <"$patch"
    if [ -n "$t1" ]; then class=tier1
    elif [ -n "$ws" ]; then class=workspace-only
    else class=survived; fi
    printf '%s\t%s\t%s\t%s\n' "$name" "$class" "${t1:--}" "${ws:--}" | tee -a "$out"
done
