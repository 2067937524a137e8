#!/bin/sh
# The full correctness matrix. Each stage is an independent build tree:
#
#   release    Release, -Werror                  (the shipping config)
#   validate   Debug, -DVIVA_VALIDATE=ON, -Werror (deep invariant audits
#              after every mutating session command)
#   tsan       RelWithDebInfo, -fsanitize=thread  (the differential
#              determinism tests exercise the pool at threads=8, so a
#              data race in the parallel layout/aggregation paths fails
#              loudly here)
#   asan       RelWithDebInfo, -fsanitize=address,undefined
#   fault      RelWithDebInfo, -fsanitize=address,undefined; only the
#              fault-tolerance suites (fault injection, reader error
#              paths, the corrupted-trace corpus), so every injected
#              failure and every mutant rejection is proven clean of
#              memory errors and UB
#   obs        RelWithDebInfo, -fsanitize=thread; only the observability
#              suites (registry fold, FakeClock phases, the stats
#              golden, perfdiff, fault counters), so the lock-free
#              per-thread shards are proven race-free where they are
#              hammered hardest
#   analyze    static analysis: the viva-analyze whole-tree scan (every
#              token, flow, include-graph and call-graph rule) with the
#              analyzer's unit and compile-failure tests, and the
#              library built with -Werror=conversion/sign-conversion
#              plus one include-twice TU per src/ header (the scan and
#              the TUs are part of every stage's build as well), plus
#              clang-tidy over compile_commands.json and a clang
#              -Wthread-safety build of the library -- both skipped
#              with a notice when the clang toolchain is not installed
#              (the default container is GCC-only)
#   soak       RelWithDebInfo, -fsanitize=address,undefined; the
#              kill/restart chaos soak alone: >= 200 seeded SIGKILL
#              cycles against the checkpoint writer, the all-points
#              fault storm and the 200-gesture longevity phase, so
#              crash recovery is proven clean of memory errors and UB
#              and a long session's layout costs what a fresh one does
#   bench      python3 perfbench/test_bench.py (~2 minutes): builds the
#              analyst-gesture benchmark against src/ in Release and
#              runs its self-tests (generator determinism, metric
#              units, failure counting, 1- vs 4-thread digest), so a
#              src/ API change cannot break the benchmark unnoticed
#
# Usage: check.sh [stage ...]   -- default: every stage, failing fast.
# Per-stage build trees live in build-<stage>/ and are reused. A
# per-stage wall-time summary is printed at the end.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

GEN=""
command -v ninja >/dev/null 2>&1 && GEN="-G Ninja"

STAGES="${*:-release validate tsan asan fault obs analyze soak bench}"

configure_flags() {
    case "$1" in
    release)
        echo "-DCMAKE_BUILD_TYPE=Release -DVIVA_WERROR=ON"
        ;;
    validate)
        echo "-DCMAKE_BUILD_TYPE=Debug -DVIVA_VALIDATE=ON -DVIVA_WERROR=ON"
        ;;
    tsan|obs)
        echo "-DCMAKE_BUILD_TYPE=RelWithDebInfo -DVIVA_SANITIZE=thread"
        ;;
    asan|fault|soak)
        echo "-DCMAKE_BUILD_TYPE=RelWithDebInfo -DVIVA_SANITIZE=address,undefined"
        ;;
    analyze)
        echo "-DCMAKE_BUILD_TYPE=Release"
        ;;
    bench)
        # perfbench/run.py configures its own Release tree.
        echo ""
        ;;
    *)
        echo "check.sh: unknown stage '$1'" >&2
        echo "usage: $0 [release|validate|tsan|asan|fault|obs|analyze|soak|bench ...]" >&2
        exit 2
        ;;
    esac
}

run_stage() {
    stage="$1"
    BUILD="$ROOT/build-$stage"
    FLAGS="$(configure_flags "$stage")"

    # Explicit `|| return` on every step: `set -e` is suspended inside
    # the `if run_stage` caller, so failures must propagate by hand.
    if [ "$stage" = bench ]; then
        echo "=== stage bench: perfbench/test_bench.py"
        (cd "$ROOT" && CARGO_TARGET_DIR="$BUILD" \
            python3 perfbench/test_bench.py) || return 1
        return 0
    fi
    echo "=== stage $stage: cmake $FLAGS"
    # shellcheck disable=SC2086
    cmake -B "$BUILD" -S "$ROOT" $GEN $FLAGS || return 1

    if [ "$stage" = fault ]; then
        cmake --build "$BUILD" -j \
            --target fault_test io_error_test corpus_test || return 1
        ctest --test-dir "$BUILD" --output-on-failure \
            -R 'Fault|WarnLimited|InjectionPoints|ParseBudget|SessionFault|ReadTraceErrors|ReadPajeErrors|Corpus|^Error\.|^Expected\.' \
            || return 1
    elif [ "$stage" = obs ]; then
        cmake --build "$BUILD" -j --target obs_test obs_golden_test \
            perfdiff_test fault_test obs_export viva-perfdiff \
            agg_index_test || return 1
        ctest --test-dir "$BUILD" --output-on-failure \
            -R 'Obs|Clock|ScopedPhase|StatsCommand|PerfDiff|perfdiff|AggIndex|ClosureCache' \
            || return 1
    elif [ "$stage" = soak ]; then
        cmake --build "$BUILD" -j --target soak_session || return 1
        ctest --test-dir "$BUILD" --output-on-failure -R '^soak' \
            || return 1
    elif [ "$stage" = analyze ]; then
        # The library with the narrowing errors (viva_app and
        # viva_workload pull in every src/ library), and every src/
        # header on its own, included twice (viva_headers).
        cmake --build "$BUILD" -j --target viva-analyze analyze_test \
            viva_app viva_workload viva_headers || return 1
        "$BUILD/tools/viva-analyze" "$ROOT" || return 1
        # The analyzer's tests keep their pass prefixes; the scans named
        # lint, check, deps and graph run it through the other CLI paths.
        ctest --test-dir "$BUILD" --output-on-failure \
            -R '^(analyze|lint|check|deps|graph)(\.|$)' || return 1
        if command -v clang-tidy >/dev/null 2>&1; then
            "$ROOT/scripts/run_clang_tidy.sh" "$BUILD" || return 1
        else
            echo "analyze: clang-tidy not installed, skipping the tidy pass"
        fi
        if command -v clang++ >/dev/null 2>&1; then
            # Thread-safety analysis is clang-only; the annotations in
            # support/thread_annotations.hh are no-ops under GCC.
            TSA_BUILD="$ROOT/build-analyze-tsa"
            # shellcheck disable=SC2086
            cmake -B "$TSA_BUILD" -S "$ROOT" $GEN \
                -DCMAKE_BUILD_TYPE=Release \
                -DCMAKE_CXX_COMPILER=clang++ \
                "-DCMAKE_CXX_FLAGS=-Wthread-safety -Werror=thread-safety-analysis" \
                || return 1
            cmake --build "$TSA_BUILD" -j --target viva || return 1
        else
            echo "analyze: clang++ not installed, skipping the -Wthread-safety build"
        fi
    else
        cmake --build "$BUILD" -j || return 1
        ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" \
            || return 1
    fi
}

PASSED=""
TIMINGS=""
for stage in $STAGES; do
    configure_flags "$stage" >/dev/null  # validate the name up front
done
for stage in $STAGES; do
    STAGE_START="$(date +%s)"
    if run_stage "$stage"; then
        STAGE_SECS=$(( $(date +%s) - STAGE_START ))
        PASSED="$PASSED $stage"
        TIMINGS="$TIMINGS$(printf '  %-10s %4ss\n' "$stage" "$STAGE_SECS")
"
    else
        echo ""
        echo "check.sh: FAILED at stage '$stage' (passed:${PASSED:- none})"
        exit 1
    fi
done

echo ""
echo "check.sh: stage wall times:"
printf '%s' "$TIMINGS"
echo "check.sh: all stages clean:$PASSED"
