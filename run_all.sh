#!/bin/sh
# Build, test, and regenerate every paper table/figure (see EXPERIMENTS.md).
set -e
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt

# Sanitizer pass: the whole test suite under ASan + UBSan (separate tree so
# the benchmark numbers above stay uninstrumented).
cmake -B build-asan -G Ninja -DTABLEAU_SANITIZE=ON
cmake --build build-asan
ctest --test-dir build-asan 2>&1 | tee -a test_output.txt

# Verification sweep (src/check): the differential-oracle suite under the
# sanitizers, the mutation self-test (planted scheduler bugs must be caught),
# and a fuzzer pass over a fixed seed range; any violation shrinks to a
# minimal reproducer under tests/repro/ for triage.
ctest --test-dir build-asan -L check --output-on-failure 2>&1 | tee -a test_output.txt
build-asan/tools/tableau check selftest
build-asan/tools/tableau check fuzz --seeds 0:20000 --shrink --repro-dir tests/repro
# Audit every table the planner-heavy benches emit, full plans (fig3, fig4)
# and delta solves (incremental-plan ablation, reconfiguration, the 64-host
# fleet's admissions and migration replans) alike (the uninstrumented bench
# loop below regenerates the JSON artifacts without the verification cost).
TABLEAU_VERIFY_TABLES=1 build-asan/bench/bench_fig3_table_generation_time
TABLEAU_VERIFY_TABLES=1 build-asan/bench/bench_fig4_table_size
TABLEAU_VERIFY_TABLES=1 build-asan/bench/bench_ablation_incremental_plan
TABLEAU_VERIFY_TABLES=1 build-asan/bench/bench_ext_reconfiguration
TABLEAU_VERIFY_TABLES=1 build-asan/bench/bench_fleet

# Engine microbenchmark first: writes BENCH_sim_engine.json (events/sec for
# the timer-wheel engine vs the legacy heap engine, parallel-harness timing).
build/bench/bench_sim_engine

for b in build/bench/bench_*; do "$b"; done 2>&1 | tee bench_output.txt

# Observability smoke: export a traced Fig. 5-style scenario as Perfetto
# JSON, schema-check it, and prove metrics collection does not perturb the
# simulation (metrics-on and metrics-off traces must be bit-identical).
build/tools/tableau trace --scheduler tableau --cpus 2 --seconds 0.2 \
    --validate --check-determinism --out tableau.perfetto.json

# Fleet smoke: a small deterministic multi-host run — serial, parallel,
# and repeat executions must produce byte-identical fingerprints and
# merged metrics (exits nonzero otherwise). The full 64-host
# BENCH_fleet.json artifact comes from the bench loop above.
build/tools/tableau fleet run --hosts 4 --cpus 4 --slots 2 --vms 8 \
    --surge-vms 1 --surge-at-ms 100 --surge-factor 6 --seconds 0.5 \
    --check-determinism

# Adaptive reservations smoke: the elastic control loop must stay
# execution-mode deterministic, and the elastic-vs-static acceptance bench
# reruns with the TableVerifier auditing every table the resize loop
# installs (the bench loop above already produced BENCH_adaptive.json and
# gated elastic >= static packing at no SLO cost).
build/tools/tableau adapt run --seconds 3 --vms 16 --check-determinism
TABLEAU_VERIFY_TABLES=1 build/bench/bench_adaptive
