#!/usr/bin/env bash
# Tool-level goldens for apf_sim and apf_estimate (docs/API.md).
#
# Runs a fixed corpus of command lines and byte-compares what they write
# against the files next to this script:
#  * apf_sim --campaign --json documents and their journals, at APF_JOBS 1
#    and 4 (both must equal the one golden);
#  * single-run apf_sim --json manifests, one key per line, without the
#    build.* keys and the wall-clock *.ns / *_ns keys;
#  * apf_sim --repro-out files (one shrunk) and the --replay verdict;
#  * an apf_estimate --ab document and its two arm journals.
# It also requires every input that names no runnable scenario (unknown
# --start, a symmetric start at odd n) to exit 2 in every tool.
#
# Usage: tool_goldens.sh path/to/apf_sim path/to/apf_estimate [--update]
# --update rewrites the goldens from the given binaries instead of checking.
set -u

abspath() { case $1 in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
SIM=$(abspath "${1:?usage: tool_goldens.sh APF_SIM APF_ESTIMATE [--update]}")
EST=$(abspath "${2:?usage: tool_goldens.sh APF_SIM APF_ESTIMATE [--update]}")
UPDATE=0
[ "${3:-}" = "--update" ] && UPDATE=1
GOLDEN=$(cd "$(dirname "$0")" && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
# Relative paths (--start-file) resolve against the golden directory.
cd "$GOLDEN" || exit 1

FAILED=0
fail() { echo "tool_goldens: FAIL: $*" >&2; FAILED=1; }

# compare NAME FILE: FILE must equal the golden NAME (or becomes it).
compare() {
  if [ "$UPDATE" = 1 ]; then
    cp "$2" "$GOLDEN/$1"
  elif ! cmp -s "$2" "$GOLDEN/$1"; then
    fail "$1 differs from its golden"
    diff "$GOLDEN/$1" "$2" | head -5 | cut -c1-300 >&2
  fi
}

# One key per line, minus the keys that depend on the build or the clock.
manifest_lines() {
  sed 's/^{//; s/}$//; s/,"/\n"/g' |
    grep -v '^"build\.' | grep -Ev '(\.ns|_ns)":'
}

campaign() {
  local name=$1
  shift
  for jobs in 1 4; do
    rm -f "$WORK/$name.journal"
    APF_JOBS=$jobs "$SIM" "$@" --json --journal "$WORK/$name.journal" \
      > "$WORK/$name.json"
    local rc=$?
    [ "$rc" -le 1 ] || fail "campaign $name exited $rc (APF_JOBS=$jobs)"
    compare "campaign_$name.json" "$WORK/$name.json"
    compare "campaign_$name.journal" "$WORK/$name.journal"
  done
}

campaign clean --algo form --n 8 --campaign 4 --seed 1
campaign rsb_symmetric --algo rsb --n 8 --start symmetric --campaign 4 \
  --seed 2 --max-events 3000
campaign crash --algo form --n 8 --crash 2 --campaign 4 --seed 4
campaign lossy --algo form --n 8 --omit 0.05 --drop 0.1 --trunc 0.1 \
  --campaign 4 --seed 6 --max-events 20000
campaign start_file --algo form --n 8 --start-file start8.txt \
  --campaign 3 --seed 2
campaign ssync_fault_seed --algo form --n 8 --sched ssync --fault-seed 9 \
  --crash 1 --omit 0.02 --campaign 4 --seed 5 --max-events 20000
campaign yy_chirality --algo yy --chirality --n 8 --campaign 3 --seed 2 \
  --max-events 20000

single() {
  local name=$1
  shift
  "$SIM" "$@" --json > "$WORK/$name.raw"
  local rc=$?
  [ "$rc" -le 1 ] || fail "single run $name exited $rc"
  manifest_lines < "$WORK/$name.raw" > "$WORK/$name.txt"
  compare "single_$name.txt" "$WORK/$name.txt"
}

single clean --n 8 --seed 3
single crash_lossy --n 8 --crash 2 --omit 0.05 --drop 0.1 --seed 4 \
  --max-events 20000
single rsb_symmetric --algo rsb --n 8 --start symmetric --seed 2 \
  --max-events 5000

# A run with no violation records its coordinates only; one with a
# violation is shrunk, and the shrunk case must replay it.
"$SIM" --algo form --n 6 --noise 8.0 --crash 1 --omit 0.1 --seed 1 \
  --max-events 3000 --repro-out "$WORK/clean.repro.json" --quiet \
  > /dev/null 2>&1
compare "repro_clean.repro.json" "$WORK/clean.repro.json"
"$SIM" --algo form --n 6 --noise 8.0 --crash 1 --omit 0.1 --seed 2 \
  --max-events 3000 --repro-out "$WORK/shrunk.repro.json" --shrink --quiet \
  > /dev/null 2>&1
compare "repro_shrunk.repro.json" "$WORK/shrunk.repro.json"
"$SIM" --replay "$GOLDEN/repro_shrunk.repro.json" > /dev/null ||
  fail "repro_shrunk.repro.json does not replay its violation"

for jobs in 1 4; do
  rm -f "$WORK"/est.journal.*
  "$EST" --ab --algo form --algo-b yy --chirality --n 8 --seed 5 --quiet \
    --max-samples 48 --jobs "$jobs" --journal "$WORK/est.journal" \
    --out "$WORK/est.json" > /dev/null ||
    fail "apf_estimate --ab exited non-zero (--jobs $jobs)"
  compare "estimate_ab.json" "$WORK/est.json"
  compare "estimate_ab.journal.a" "$WORK/est.journal.a"
  compare "estimate_ab.journal.b" "$WORK/est.journal.b"
done

# usage_error TOOL ARGS...: the tool must refuse the input with exit 2.
usage_error() {
  "$@" > /dev/null 2>&1
  local rc=$?
  [ "$rc" = 2 ] || fail "expected exit 2, got $rc: $*"
}

if [ "$UPDATE" = 0 ]; then
  usage_error "$SIM" --start bogus
  usage_error "$SIM" --start bogus --campaign 2
  usage_error "$SIM" --start symmetric --n 7
  usage_error "$SIM" --start symmetric --n 7 --campaign 2
  usage_error "$EST" --start bogus --min-samples 16 --max-samples 16
  usage_error "$EST" --start symmetric --n 7 --min-samples 16 \
    --max-samples 16
fi

[ "$FAILED" = 0 ] && echo "tool_goldens: PASS"
exit "$FAILED"
