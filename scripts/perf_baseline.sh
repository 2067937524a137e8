#!/bin/sh
# Gate the committed performance baseline.
#
#   perf_baseline.sh <obs_export> <viva-perfdiff> <baseline.json> <workdir>
#
# Exports the representative workload under the FakeClock (1000 ns per
# clock read, one worker thread), which makes the export a pure
# function of the workload -- byte-identical across machines and runs.
# viva-perfdiff then compares it against the committed baseline, so any
# change that adds clock reads or phase work to the instrumented paths
# (extra layout passes, extra aggregation sweeps, chattier I/O) fails
# CI deterministically instead of depending on a noisy wall clock. Work
# counts are gated exactly: a phase called more often, or a counter
# (agg.values, the Eq.-1 values folded, among them) that grew, is a
# regression; a drop is a note.
#
# Regenerate the baseline after an intentional change with:
#   build/bench/obs_export --fake-clock --threads 1 --scale 4 \
#       --out bench_out/baseline_obs.json
# and, from a -DVIVA_VALIDATE=ON build (whose audits add work), the
# same command with --out bench_out/baseline_obs_validate.json.
set -eu

OBS_EXPORT=$1
PERFDIFF=$2
BASELINE=$3
WORKDIR=$4

if [ ! -f "$BASELINE" ]; then
    echo "perf_baseline.sh: missing committed baseline '$BASELINE'" >&2
    exit 2
fi

mkdir -p "$WORKDIR"
"$OBS_EXPORT" --fake-clock --threads 1 --scale 4 \
    --out "$WORKDIR/candidate.json"

# Fake-clock exports are noise-free: disable the noise floor so every
# phase participates in the comparison.
REPORT="$WORKDIR/perfdiff.txt"
status=0
"$PERFDIFF" --min-ns 0 "$BASELINE" "$WORKDIR/candidate.json" \
    >"$REPORT" 2>&1 || status=$?
cat "$REPORT"
if [ "$status" -ne 0 ]; then
    exit "$status"
fi

# viva-perfdiff only notes a phase or counter that one side lacks. Here
# that means the baseline no longer describes the workload, and it would
# go ungated, so it fails: regenerate the baseline as shown above.
if grep -q -e "new in the candidate" -e "missing from the candidate" \
    "$REPORT"; then
    echo "perf_baseline.sh: the candidate's phases or counters differ" \
        "from the committed baseline's; regenerate '$BASELINE'" >&2
    exit 1
fi
echo "perf_baseline.sh: candidate matches the committed baseline"
