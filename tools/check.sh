#!/bin/sh
# Offline CI equivalent: mirrors .github/workflows/ci.yml for machines
# without GitHub Actions.
#
#   stage 1  configure (warnings fatal) + build everything (including the
#            bench/e2e driver, build only) + full ctest
#   stage 2  ASan+UBSan build + full ctest, then a TSan build of the
#            concurrency suites                   (SKIP_SANITIZE=1 skips)
#   stage 3  bench smoke + perf-regression gates  (SKIP_BENCH=1 skips)
#
# Env knobs: BUILD_TYPE (default Release), JOBS (default nproc).
set -eu

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
BUILD_TYPE="${BUILD_TYPE:-Release}"

echo "== stage 1: build (${BUILD_TYPE}, -Werror) + tests =="
cmake -B build -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE" -DCONCORDE_WERROR=ON
cmake --build build -j "$JOBS"
cmake --build build --target bench -j "$JOBS"
# Build-only: the end-to-end benchmark driver is its own CMake project
# over src/; a library change that breaks it fails here, not later.
cmake -S bench/e2e -B build-e2e
cmake --build build-e2e -j "$JOBS"
# Golden tests run in their own labeled stage below, not twice.
ctest --test-dir build -LE golden --output-on-failure -j "$JOBS"

echo "== stage 1b: golden corpus (diff only, never regenerated) =="
ctest --test-dir build -L golden --output-on-failure -j "$JOBS"

if [ "${SKIP_SANITIZE:-0}" != "1" ]; then
    echo "== stage 2: ASan+UBSan tests =="
    cmake -B build-asan -S . -DCONCORDE_SANITIZE=address,undefined \
        -DCONCORDE_WERROR=ON
    cmake --build build-asan -j "$JOBS"
    ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
        ctest --test-dir build-asan --output-on-failure -j "$JOBS"

    echo "== stage 2b: TSan concurrency suites =="
    # The suites that share one RegionAnalysis, queue, or socket server
    # across threads (the combined-trace latch included).
    cmake -B build-tsan -S . -DCONCORDE_SANITIZE=thread -DCONCORDE_WERROR=ON
    cmake --build build-tsan -j "$JOBS" --target test_analysis_store \
        test_sim_labeler test_serve test_uncertainty test_net_serve
    TSAN_OPTIONS=halt_on_error=1 ctest --test-dir build-tsan \
        -R 'test_(analysis_store|sim_labeler|serve|uncertainty|net_serve)' \
        --output-on-failure -j "$JOBS"
fi

if [ "${SKIP_BENCH:-0}" != "1" ]; then
    echo "== stage 3: bench smoke + perf gates =="
    # Serve-layer gate: dynamic batching must beat the scalar path with
    # identical predictions, and the socket front end must hold the
    # tail-latency SLO (p99/p50 <= 2.0 on a mixed hot/cold workload at
    # >= 0.9x in-process QPS, bitwise-identical replies). The bench
    # exits nonzero otherwise.
    CONCORDE_SMOKE=1 CONCORDE_BENCH_JSON=BENCH_serve.json \
        ./build/bench/bench_serve_throughput

    # End-to-end pipeline gate: sharded/stitched execution must keep up
    # with (resp. beat) the scalar region loop, bitwise identical.
    CONCORDE_SMOKE=1 CONCORDE_BENCH_JSON=BENCH_pipeline.json \
        ./build/bench/bench_pipeline_e2e

    # Cold-analysis gate: the fused columnar sweep must match the legacy
    # per-side row passes bitwise and never lose to them.
    CONCORDE_BENCH_JSON=BENCH_analysis.json \
        ./build/bench/bench_analysis_cold

    # Ground-truth labeling gate: the scratch-reusing simulator fast
    # path must stay bitwise-identical to the fresh-engine reference on
    # golden + seeded-random regions across randomized design points,
    # and hold >= 1.3x its throughput.
    CONCORDE_BENCH_JSON=BENCH_sim.json \
        ./build/bench/bench_sim_labeler

    # Design-space-sweep gate: predictSweep (shared analysis, one
    # provider, one GEMM) must beat the naive per-config predictCpi
    # loop >= 3x with bitwise-identical CPIs.
    CONCORDE_SMOKE=1 CONCORDE_BENCH_JSON=BENCH_sweep.json \
        ./build/bench/bench_sweep_dse

    # Scale-out gate: N-worker dataset builds and sweep merges must be
    # bitwise-identical to serial runs (including crash-injected workers
    # under the respawn loop), and the supervised build must not regress
    # past half the serial wall-clock. Real scaling is reported only --
    # CI boxes may be single-core.
    CONCORDE_SMOKE=1 CONCORDE_BENCH_JSON=BENCH_scaleout.json \
        ./build/bench/bench_scaleout

    # Model-lifecycle accuracy gate: sharded dataset -> checkpointed
    # training -> versioned artifact -> serve registry; the trained
    # model must beat the untrained stub on held-out data by a wide,
    # timing-free margin.
    rm -rf accuracy-artifacts
    CONCORDE_BENCH_JSON=BENCH_accuracy.json \
        ./build/bench/bench_accuracy

    # Uncertainty-serving gate: conformal coverage >= 1 - alpha - tol on
    # held-out data, v1 (pre-calibration) artifacts load and predict
    # bitwise-identically, the OOD envelope classifies exactly, and
    # simulator-fallback answers + durable feedback labels are bitwise
    # equal to direct simulateRegion. All timing-free.
    rm -rf uncertainty-artifacts
    CONCORDE_SMOKE=1 CONCORDE_BENCH_JSON=BENCH_uncertainty.json \
        ./build/bench/bench_uncertainty

    # Batched-inference smoke at reduced sizes (trains a small model
    # into a scratch artifact dir on first run).
    if [ -x build/bench/bench_fig10_speed ]; then
        env CONCORDE_ARTIFACTS=bench-artifacts \
            CONCORDE_TRAIN_SAMPLES=1200 CONCORDE_TEST_SAMPLES=200 \
            CONCORDE_LONG_TRAIN_SAMPLES=200 CONCORDE_LONG_TEST_SAMPLES=50 \
            CONCORDE_SPEC_SAMPLES=200 CONCORDE_EPOCHS=4 \
            ./build/bench/bench_fig10_speed --benchmark_min_time=0.05s \
            | tee fig10.log
        speedup=$(awk '/batched speedup:/ {print $3}' fig10.log | tr -d 'x')
        echo "batched speedup: ${speedup}"
        awk -v s="$speedup" 'BEGIN { exit !(s >= 1.0) }' || {
            echo "FAIL: batched inference slower than scalar path"
            exit 1
        }
    else
        echo "bench_fig10_speed not built (no google-benchmark); skipping"
    fi

    # Human-readable roll-up of every BENCH_*.json written above (the
    # same summary CI posts to the job page).
    sh tools/bench_summary.sh BENCH_*.json || true
fi

echo "== all checks passed =="
