#!/usr/bin/env bash
# Pre-merge gate: tier-1 build + tests, ASan+UBSan and TSan builds of the
# fuzz path, the komodo-lint static analysis of every shipped enclave
# program, and the komodo-verify exhaustive small-world closure at its
# pinned hash. Any failure — including a single lint finding — fails the
# script.
#
# Usage: scripts/check.sh [--skip-sanitizers]
set -euo pipefail

cd "$(dirname "$0")/.."

# Prefer Ninja for fresh build trees; an already-configured tree keeps
# whatever generator it was created with.
generator_for() {
  if [[ ! -f "$1/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
    echo "-G Ninja"
  fi
}

JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_SANITIZERS=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) SKIP_SANITIZERS=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "=== [1/11] tier-1: configure + build ==="
cmake -B build -S . $(generator_for build) -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build build -j "$JOBS"

echo "=== [2/11] tier-1: ctest ==="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [3/11] tier-1: ctest with tracing enabled ==="
# The tracer (DESIGN.md §9) must be architecturally invisible too: the whole
# suite — including the cycle-regression test — has to pass with every
# monitor tracing into a live ring buffer.
KOMODO_TRACE=on ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [4/11] bench smoke ==="
ctest --test-dir build -L bench-smoke --output-on-failure

echo "=== [5/11] bench/trace JSON artifacts validate ==="
# The bench-smoke runs above emitted komodo-bench-v1 / komodo-metrics-v1 /
# chrome-trace artifacts into build/bench; a drifting emitter fails here.
./build/tools/komodo-benchjson build/bench/BENCH_*.json \
  build/bench/METRICS_fig5_notary.json
./build/tools/komodo-benchjson --schema chrome build/bench/TRACE_fig5_notary.json

echo "=== [6/11] komodo-serve: daemon smoke (batching, eviction, line protocol) ==="
# The scripted demo exercises batched submission, a typed timeout and an
# eviction/rebuild, and exits nonzero if any expectation fails. The stdin
# leg drives the line protocol end to end and must produce exactly the
# expected transcript. Both metrics documents must validate, including the
# embedded "serve" section.
./build/tools/komodo-serve --demo --metrics-out build/serve-demo-metrics.json \
  > build/serve-demo.out
printf 'create counter\nsubmit 1 5\nsubmit 1 6\nwait 2\ndestroy 1\nquit\n' \
  | ./build/tools/komodo-serve --stdin --metrics-out build/serve-stdin-metrics.json \
  > build/serve-stdin.out
printf 'session 1\nrequest 1\nrequest 2\nresult 2 ok 11\ndestroyed 1 dropped 0\nwrote build/serve-stdin-metrics.json\n' \
  | cmp - build/serve-stdin.out \
  || { echo "komodo-serve: stdin transcript drifted" >&2; exit 1; }
# Malformed operands (negative, non-numeric, missing, trailing) must answer
# bad-argument, never wrap or be read as some other session or request.
printf 'create counter\nsubmit 1 -5\nsubmit 0 abc\nsubmit 1\nsubmit 1 5 7\nwait\ndestroy 1 x\nquit\n' \
  | ./build/tools/komodo-serve --stdin > build/serve-stdin-bad.out
printf 'session 1\nerror bad-argument\nerror bad-argument\nerror bad-argument\nerror bad-argument\nerror bad-argument\nerror bad-argument\n' \
  | cmp - build/serve-stdin-bad.out \
  || { echo "komodo-serve: malformed operands not rejected as bad-argument" >&2; exit 1; }
./build/tools/komodo-benchjson build/serve-demo-metrics.json build/serve-stdin-metrics.json
# Seeded load generator must be deterministic: same seed, same stdout.
./build/tools/komodo-serve --load --sessions 40 --requests 400 --budget 28 \
  > build/serve-load-1.out
./build/tools/komodo-serve --load --sessions 40 --requests 400 --budget 28 \
  > build/serve-load-2.out
cmp build/serve-load-1.out build/serve-load-2.out \
  || { echo "komodo-serve: nondeterministic load run" >&2; exit 1; }

echo "=== [7/11] komodo-lint: shipped programs + fixtures ==="
./build/tools/komodo-lint --check-shipped
./build/tools/komodo-lint --check-fixtures

echo "=== [8/11] komodo-verify: exhaustive small-world closure ==="
# The model checker (DESIGN.md §12) must close the default small world with
# all three obligations holding, byte-identically across runs, and at the
# pinned closure hash — any drift in the PageDb serialization, the symmetry
# quotient, or a spec guard shows up here before it reaches a reviewer.
# Re-pin the hash (and the EXPERIMENTS.md table) when a change to the spec
# or canon serialization is *intended*.
VERIFY_CLOSURE_HASH=99065585178cb71f885bfa8ba99bf856dc77b6245624a671f044a030b2640e31
./build/tools/komodo-verify --world small \
  --bench-out build/bench/BENCH_verify.json 2>/dev/null > build/verify-small-1.out
./build/tools/komodo-verify --world small 2>/dev/null > build/verify-small-2.out
cmp <(grep -v -e '^wrote ' -e '^$' build/verify-small-1.out) \
    <(grep -v '^$' build/verify-small-2.out) \
  || { echo "komodo-verify: nondeterministic exploration output" >&2; exit 1; }
grep -q "^closure-hash ${VERIFY_CLOSURE_HASH}\$" build/verify-small-1.out \
  || { echo "komodo-verify: closure hash drifted from the pinned value" >&2; exit 1; }
./build/tools/komodo-benchjson build/bench/BENCH_verify.json
# A store that skips the dirty set must be caught on the first transition:
# the snapshot reset and the incremental extraction both trust that set, so a
# shortcut that hides a dropped record would let this run pass.
if ./build/tools/komodo-verify --world small --inject dirty-bypass 2>/dev/null \
    > build/verify-dirty-bypass.out; then
  echo "komodo-verify: dirty-bypass injection was not caught" >&2; exit 1
fi
grep -q "^FAIL depth=1 " build/verify-dirty-bypass.out \
  || { echo "komodo-verify: dirty-bypass not caught at depth 1" >&2; exit 1; }

echo "=== [9/11] komodo-fuzz smoke (fixed seed, all oracles, determinism) ==="
# A short fixed-seed campaign per oracle (DESIGN.md §10). Run twice; stdout —
# including the campaign-hash over every generated trace and verdict — must be
# byte-identical, or the fuzzer has lost replayability. The interp oracle is
# a footprint-on/off bisimulation (DESIGN.md §8), so this smoke is also the
# page-table footprint's randomized gate. The hash is pinned: a fast path in
# the oracles (e.g. baseline-token memory equality, DESIGN.md §11) must not
# change a single verdict. Re-pin only when a generator or oracle change is
# *intended*.
FUZZ_HASH=c757d8cefebc445d72864a83b3210a3291a43c449c5f0c637e6b7aef2e809ca1
FUZZ_ARGS=(--seed 20260807 --calls 400 --trace-len 60 --out build)
./build/tools/komodo-fuzz "${FUZZ_ARGS[@]}" 2>/dev/null > build/fuzz-smoke-1.out
./build/tools/komodo-fuzz "${FUZZ_ARGS[@]}" 2>/dev/null > build/fuzz-smoke-2.out
cmp build/fuzz-smoke-1.out build/fuzz-smoke-2.out \
  || { echo "komodo-fuzz: nondeterministic campaign output" >&2; exit 1; }
grep -q "^campaign-hash ${FUZZ_HASH}\$" build/fuzz-smoke-1.out \
  || { echo "komodo-fuzz: smoke campaign hash drifted from the pinned value" >&2; exit 1; }

echo "=== [10/11] komodo-fuzz parallel determinism (--jobs 1 vs --jobs 8) ==="
# The sharded campaign hash (DESIGN.md §11) is defined to be independent of
# the worker count; serial and 8-way stdout must be byte-identical.
./build/tools/komodo-fuzz "${FUZZ_ARGS[@]}" --jobs 8 2>/dev/null \
  > build/fuzz-smoke-jobs8.out
cmp build/fuzz-smoke-1.out build/fuzz-smoke-jobs8.out \
  || { echo "komodo-fuzz: --jobs changed the campaign output" >&2; exit 1; }

echo "=== [11/11] komodo-fuzz evolve smoke (coverage-guided, pinned v3 hash) ==="
# Coverage-guided corpus evolution (DESIGN.md §15) at a pinned config: the v3
# campaign hash covers every trace, verdict, coverage gain and the final
# corpus digests, must match the pinned value, and must be independent of
# --jobs. Re-pin when a change to the generator, mutators or coverage
# features is *intended* (the bench acceptance gate separately requires
# evolve to beat blind coverage at equal budget).
EVOLVE_HASH=d8b9636342be5efa7785ba48054a12ef40c04ac06cc35b2e53de6e24f0eaaccb
EVOLVE_ARGS=(--mode evolve --seed 20260807 --calls 400 --trace-len 30
             --shards 4 --rounds 3 --max-corpus 32 --out build)
./build/tools/komodo-fuzz "${EVOLVE_ARGS[@]}" 2>/dev/null > build/fuzz-evolve-1.out
./build/tools/komodo-fuzz "${EVOLVE_ARGS[@]}" --jobs 8 2>/dev/null \
  > build/fuzz-evolve-jobs8.out
cmp build/fuzz-evolve-1.out build/fuzz-evolve-jobs8.out \
  || { echo "komodo-fuzz: --jobs changed the evolve campaign output" >&2; exit 1; }
grep -q "^campaign-hash ${EVOLVE_HASH}\$" build/fuzz-evolve-1.out \
  || { echo "komodo-fuzz: evolve campaign hash drifted from the pinned value" >&2; exit 1; }
grep "^coverage-curve " build/fuzz-evolve-1.out
# CLI numeric parsing is strict: trailing junk and non-numbers must be
# rejected with a clear error, not silently truncated to a prefix.
if ./build/tools/komodo-fuzz --calls 10x 2>/dev/null; then
  echo "komodo-fuzz: accepted malformed --calls 10x" >&2; exit 1
fi
if ./build/tools/komodo-fuzz --seed abc 2>/dev/null; then
  echo "komodo-fuzz: accepted malformed --seed abc" >&2; exit 1
fi
# Trace files are parsed as strictly, with the offending line named.
printf 'komodo-fuzz-trace v1\noracle interp\nseed banana\nend\n' > build/probe.trace
if ./build/tools/komodo-fuzz --replay build/probe.trace 2> build/probe.err >/dev/null \
    || ! grep -q ': line 3: seed' build/probe.err; then
  echo "komodo-fuzz: accepted malformed trace line 'seed banana'" >&2; exit 1
fi

if [[ "$SKIP_SANITIZERS" == 1 ]]; then
  echo "=== sanitizers: skipped (--skip-sanitizers) ==="
else
  echo "=== ASan+UBSan build + ctest ==="
  cmake -B build-asan -S . $(generator_for build-asan) \
    -DKOMODO_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
  echo "=== ASan+UBSan komodo-fuzz smoke ==="
  ./build-asan/tools/komodo-fuzz --seed 20260807 --calls 150 --trace-len 40 \
    --out build-asan >/dev/null
  echo "=== ASan+UBSan komodo-fuzz evolve smoke ==="
  # The mutation/coverage/corpus path under ASan, at the same pinned hash as
  # the plain build: instrumented and plain campaigns must agree byte for
  # byte.
  ./build-asan/tools/komodo-fuzz --mode evolve --seed 20260807 --calls 400 \
    --trace-len 30 --shards 4 --rounds 3 --max-corpus 32 --out build-asan \
    2>/dev/null > build-asan/fuzz-evolve.out
  grep -q "^campaign-hash ${EVOLVE_HASH}\$" build-asan/fuzz-evolve.out \
    || { echo "komodo-fuzz: ASan evolve hash differs from plain build" >&2; exit 1; }

  echo "=== ASan+UBSan komodo-verify small-world closure ==="
  # The instrumented build must reach the same closure: a hash mismatch here
  # means the exploration depends on memory it shouldn't be reading.
  ./build-asan/tools/komodo-verify --world small 2>/dev/null \
    > build-asan/verify-small.out
  grep -q "^closure-hash ${VERIFY_CLOSURE_HASH}\$" build-asan/verify-small.out \
    || { echo "komodo-verify: ASan closure hash differs from plain build" >&2; exit 1; }

  echo "=== TSan komodo-fuzz parallel smoke ==="
  # Thread sanitizer over the parallel campaign: per-worker world pools,
  # thread-local inject flags and the outcome-slot handoff must all be
  # race-free, and the parallel run must still reproduce the serial hash.
  cmake -B build-tsan -S . $(generator_for build-tsan) \
    -DKOMODO_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target komodo-fuzz
  TSAN_FUZZ_ARGS=(--seed 20260807 --calls 150 --trace-len 40 --out build-tsan)
  ./build-tsan/tools/komodo-fuzz "${TSAN_FUZZ_ARGS[@]}" --jobs 1 2>/dev/null \
    > build-tsan/fuzz-smoke-serial.out
  ./build-tsan/tools/komodo-fuzz "${TSAN_FUZZ_ARGS[@]}" --jobs 8 2>/dev/null \
    > build-tsan/fuzz-smoke-jobs8.out
  cmp build-tsan/fuzz-smoke-serial.out build-tsan/fuzz-smoke-jobs8.out \
    || { echo "komodo-fuzz: --jobs changed the campaign output under TSan" >&2; exit 1; }
fi

# clang-tidy is optional: the reference container only ships gcc.
if command -v clang-tidy >/dev/null 2>&1 && [[ -f build/compile_commands.json ]]; then
  echo "=== extra: clang-tidy (src/core src/spec src/analysis src/verify src/serve src/fuzz) ==="
  clang-tidy -p build --quiet \
    src/core/*.cc src/spec/*.cc src/analysis/*.cc src/verify/*.cc src/serve/*.cc src/fuzz/*.cc
else
  echo "=== extra: clang-tidy not found; skipping (config: .clang-tidy) ==="
fi

echo "OK: all checks passed"
