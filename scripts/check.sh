#!/usr/bin/env bash
# Full verification sweep: Release build + complete ctest, then ASan and
# TSan builds running the concurrency/fault/differential/trace/hash/
# optimizer/governor/serving/sort/MPP suites (ctest labels: parallel, fault,
# diff, trace, hash, expr, opt, govern, serve, share, sort, mpp). This is the recipe
# the observability and parallelism PRs are gated on; run it from the repo
# root. Set JOBS to bound parallelism (defaults to nproc).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
LABELS='parallel|fault|diff|trace|hash|expr|opt|govern|serve|share|sort|mpp'

echo "== Release build + full test suite =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== ASan build: labels $LABELS =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DENABLE_ASAN=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L "$LABELS"

echo "== TSan build: labels $LABELS =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DENABLE_TSAN=ON >/dev/null
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L "$LABELS"

echo "== all checks passed =="
