#!/usr/bin/env bash
# Big-budget differential fuzzing under ASan/UBSan.
#
# Configures a separate sanitizer-instrumented build tree (so the tier-1
# build stays fast) with assertions on -- RelWithDebInfo's default flags
# carry -DNDEBUG, so they are replaced -- builds bivc, runs a 10k-program
# campaign, and then cross-checks the observability layer: the merged
# `--batch` stats snapshot must be byte-identical between -j1 and -j8 once
# the (legitimately nondeterministic) span durations are normalized out.
# Invoked by `ctest -C fuzz -R fuzz_big` or directly:
#
#   tools/run_fuzz.sh [count] [seed]
#
set -euo pipefail

COUNT="${1:-10000}"
SEED="${2:-1}"

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-fuzz-san"

cmake -S "$ROOT" -B "$BUILD" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  -DBIV_SANITIZE="address;undefined" >/dev/null
cmake --build "$BUILD" --target bivc -j "$(nproc)" >/dev/null

export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

BIVC="$BUILD/tools/bivc"

# Stats determinism probe: merge the corpus and the samples at two worker
# counts and diff the snapshots with "ns" durations zeroed (counters and
# span counts must agree exactly; wall-clock never can).  The --summarize
# runs share probe traces across the loops of a unit, and --materialize
# drops them mid-unit, so those paths run here under the sanitizers too.
STATS_DIR="$(mktemp -d)"
trap 'rm -rf "$STATS_DIR"' EXIT
for FLAGS in "" "--summarize" "--summarize --materialize"; do
  # FLAGS is split into words on purpose.
  "$BIVC" --batch -j1 --summary $FLAGS --stats-json "$STATS_DIR/j1.json" \
    "$ROOT"/tests/corpus/*.biv "$ROOT"/samples/*.biv >/dev/null
  "$BIVC" --batch -j8 --summary $FLAGS --stats-json "$STATS_DIR/j8.json" \
    "$ROOT"/tests/corpus/*.biv "$ROOT"/samples/*.biv >/dev/null
  sed 's/"ns": [0-9]*/"ns": 0/g' "$STATS_DIR/j1.json" > "$STATS_DIR/j1.norm"
  sed 's/"ns": [0-9]*/"ns": 0/g' "$STATS_DIR/j8.json" > "$STATS_DIR/j8.norm"
  if ! cmp -s "$STATS_DIR/j1.norm" "$STATS_DIR/j8.norm"; then
    echo "run_fuzz.sh: -j1 vs -j8 merged stats snapshots differ" \
         "(flags: ${FLAGS:-none}):" >&2
    diff "$STATS_DIR/j1.norm" "$STATS_DIR/j8.norm" >&2 || true
    exit 1
  fi
  echo "fuzz: -j1 vs -j8 merged stats snapshots identical" \
       "(flags: ${FLAGS:-none}; ns normalized)"
done

# Cache round trip under the sanitizers: a cold run populates an on-disk
# cache, a warm run is served from it, and both must print byte-identical
# reports (this also exercises the cache file I/O paths, which the
# in-memory fuzz oracle cannot).
"$BIVC" --batch -j8 --cache "$STATS_DIR/corpus.cache" \
  "$ROOT"/tests/corpus/*.biv > "$STATS_DIR/cold.out"
"$BIVC" --batch -j8 --cache "$STATS_DIR/corpus.cache" \
  "$ROOT"/tests/corpus/*.biv > "$STATS_DIR/warm.out"
if ! cmp -s "$STATS_DIR/cold.out" "$STATS_DIR/warm.out"; then
  echo "run_fuzz.sh: cold vs warm --cache batch reports differ:" >&2
  diff "$STATS_DIR/cold.out" "$STATS_DIR/warm.out" >&2 || true
  exit 1
fi
echo "fuzz: cold vs warm --cache batch reports identical"

# Arena-lifetime probe: the unit tests for the bump arena, the interner,
# and unit teardown (tests/arena_test.cpp) run in the instrumented tree so
# ASan/UBSan see the batch-free path directly -- a use-after-batch-free or
# misaligned bump allocation dies here, not in production.
cmake --build "$BUILD" --target arena_test -j "$(nproc)" >/dev/null
"$BUILD/tests/arena_test"
echo "fuzz: arena/interner unit tests clean under ASan/UBSan"

# Interpreter and SCCP: the oracle's pinned arithmetic, its seq-indexed
# value frame, and the constant folder that must agree with it run in the
# instrumented tree, so signed-overflow UB or an out-of-range frame slot
# dies here.
cmake --build "$BUILD" --target interp_test ssa_test -j "$(nproc)" >/dev/null
"$BUILD/tests/interp_test" >/dev/null
"$BUILD/tests/ssa_test" >/dev/null
echo "fuzz: interpreter and SSA/SCCP suites clean under ASan/UBSan"

# Loop bookkeeping and exact arithmetic: the Rational and LoopInfo suites
# run in the instrumented tree, and so do one-shot and -j1 batch runs on
# 3 200 sibling loops in one function (generated into the build tree by
# tests/CMakeLists.txt), which drive the loop-nest intervals, the shared
# seq-indexed classification tables and the exit-value use index across
# thousands of loops.
cmake --build "$BUILD" --target support_test analysis_test -j "$(nproc)" \
  >/dev/null
"$BUILD/tests/support_test" >/dev/null
"$BUILD/tests/analysis_test" >/dev/null
SIBLINGS="$BUILD/tests/many_sibling_loops.biv"
for MODE in "" "--batch -j1"; do
  # MODE is split into words on purpose.
  case "$("$BIVC" $MODE "$SIBLINGS")" in
    *"i3199: (L3199, 1, 1)"*) ;;
    *)
      echo "run_fuzz.sh: bivc ${MODE:-one-shot} lost loop L3199 of" \
           "$SIBLINGS" >&2
      exit 1
      ;;
  esac
done
echo "fuzz: Rational/LoopInfo suites and 3 200 sibling loops clean" \
     "under ASan/UBSan"

# C-finite slice: the extension's focused suites (`ctest -L cfinite` in
# tier-1) run in the instrumented tree, and a dedicated campaign slice must
# report nonzero cfinite and partial oracle checks -- generator drift that
# stops reaching the new recurrence shapes dies here, under the sanitizers.
cmake --build "$BUILD" --target cfinite_test -j "$(nproc)" >/dev/null
"$BUILD/tests/cfinite_test" >/dev/null
echo "fuzz: c-finite suites clean under ASan/UBSan"
CF_OUT="$("$BIVC" --fuzz "$((COUNT / 10 + 1))" --seed "$((SEED + 2))")"
printf '%s\n' "$CF_OUT" | head -n 1
case "$CF_OUT" in
  *"cfinite 0,"* | *"partial 0,"*)
    echo "run_fuzz.sh: campaign slice never exercised the cfinite/partial" \
         "oracles (generator drift?)" >&2
    exit 1
    ;;
esac

# Summarizer slice: the multi-branch summarization suite runs in the
# instrumented tree, and a dedicated campaign slice with --summarize must
# report nonzero phase-periodic oracle checks -- generator drift that stops
# producing branch-cyclic shapes (or a summarizer that silently stops
# firing) dies here, under the sanitizers.
cmake --build "$BUILD" --target summarize_test -j "$(nproc)" >/dev/null
"$BUILD/tests/summarize_test" >/dev/null
echo "fuzz: summarizer suites clean under ASan/UBSan"
SUMM_OUT="$("$BIVC" --fuzz "$((COUNT / 10 + 1))" --seed "$((SEED + 3))" --summarize)"
printf '%s\n' "$SUMM_OUT" | head -n 1
case "$SUMM_OUT" in
  *"phase-periodic 0,"*)
    echo "run_fuzz.sh: --summarize campaign slice never exercised the" \
         "phase-periodic oracle (generator drift?)" >&2
    exit 1
    ;;
esac

# The rules every consumer of a class shares: Classification::valueAt and
# InductionAnalysis::exitValue have their own tables (ivclass_edge_test,
# ivclass_nested_test), and the oracle's one value check reaches them
# through the corpus goldens and the fuzz smoke, all in the instrumented
# tree.
cmake --build "$BUILD" --target ivclass_edge_test ivclass_nested_test \
  corpus_test fuzz_test -j "$(nproc)" >/dev/null
for T in ivclass_edge_test ivclass_nested_test corpus_test fuzz_test; do
  "$BUILD/tests/$T" >/dev/null
done
echo "fuzz: valueAt/exitValue, corpus and fuzz suites clean under ASan/UBSan"

# The one recurrence-region evaluator (path sets of VecForms, solved through
# solveLinearSystem for every K) has its own suite, ivclass_test, and
# dependence_extended_test consumes the per-member strictness it derives
# from each path's Through set (Figure 10).
cmake --build "$BUILD" --target ivclass_test dependence_extended_test \
  -j "$(nproc)" >/dev/null
"$BUILD/tests/ivclass_test" >/dev/null
"$BUILD/tests/dependence_extended_test" >/dev/null
echo "fuzz: region evaluator and Figure 10 strictness suites clean under" \
     "ASan/UBSan"

# The rules stated once: the trip count over per-phase forms
# (tripcount_edge_test), the subscript linearizer that settles wrap-arounds
# (dependence_test), and the affine materializer that strength reduction
# and exit values share (transform_test).
cmake --build "$BUILD" --target tripcount_edge_test dependence_test \
  transform_test -j "$(nproc)" >/dev/null
for T in tripcount_edge_test dependence_test transform_test; do
  "$BUILD/tests/$T" >/dev/null
done
echo "fuzz: trip count, subscript and materializer suites clean under" \
     "ASan/UBSan"

# The text layer: the printer renders into one caller-owned buffer from a
# seq-indexed temp table, and its print of a lowered function is the cache
# key.  The printer suite (ir_test), the cache (cache_test) and the batch
# driver that digests, probes, renders reports and replays hits
# (batch_test) run in the instrumented tree.
cmake --build "$BUILD" --target ir_test cache_test batch_test -j "$(nproc)" \
  >/dev/null
for T in ir_test cache_test batch_test; do
  "$BUILD/tests/$T" >/dev/null
done
echo "fuzz: printer, cache and batch suites clean under ASan/UBSan"

# A slice of the budget runs with the cache oracle forced on for every
# program; the main campaign keeps the default sampled (~1/8) oracle.
"$BIVC" --fuzz "$((COUNT / 10 + 1))" --seed "$((SEED + 1))" --cache-oracle

exec "$BIVC" --fuzz "$COUNT" --seed "$SEED" --minimize
