#!/bin/sh
# Checks that the documentation is not lying about the code:
#
#  1. every `--flag` that appears on a `bivc` line in the docs must be
#     handled by tools/bivc.cpp (catches docs advertising dead flags);
#  2. every backtick-quoted repo path under src/ tools/ tests/ bench/ docs/
#     that the docs mention must exist (catches stale references after
#     renames).
#
# Registered as the tier-1 `docs_check` ctest entry; also runnable directly:
#   tools/check_docs.sh
set -u

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$ROOT"
FAIL=0

DOCS="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/LANGUAGE.md"
for D in $DOCS; do
  if [ ! -f "$D" ]; then
    echo "docs_check: missing documentation file $D" >&2
    FAIL=1
  fi
done

# 1. Flags on bivc command lines (only tokens after the word `bivc`, so
# ctest/cmake flags on mixed prose lines don't false-positive) plus the
# README CLI reference table (rows whose first cell is a flag).  A flag is
# "handled" when it appears as a string literal in the driver's parser.
FLAGS=$({
  grep -h 'bivc' $DOCS 2>/dev/null | sed 's/.*bivc//' |
    grep -oE -- '--[a-z][a-z-]*'
  grep -hE '^\| .?-' README.md 2>/dev/null |
    grep -oE -- '--[a-z][a-z-]*'
} | sort -u)
for FLAG in $FLAGS; do
  if ! grep -qF "\"$FLAG" tools/bivc.cpp; then
    echo "docs_check: docs mention bivc flag $FLAG," \
         "which tools/bivc.cpp does not parse" >&2
    FAIL=1
  fi
done

# 2. Backtick-quoted repo paths.  Docs may name build-tree binaries
# (`tools/bivc`, `tests/ivclass`); those count as long as the source that
# produces them exists.
PATHS=$(grep -hoE '`[A-Za-z0-9_./-]+`' $DOCS 2>/dev/null | tr -d '\140' |
  grep -E '^(src|tools|tests|bench|docs)/' | sort -u)
for P in $PATHS; do
  if [ ! -e "$P" ] && [ ! -e "$P.cpp" ] && [ ! -e "${P}_test.cpp" ]; then
    echo "docs_check: docs reference missing path $P" >&2
    FAIL=1
  fi
done

# 3. Constants DESIGN.md states in bold as "`NAME` (currently **N**" must
# equal the "NAME = N;" the code declares; a bump that forgets the doc (or
# vice versa) fails here.
VERIFIED=""
check_constant() { # NAME FILE
  CODE=$(sed -n "s/.*$1 = \([0-9][0-9]*\);.*/\1/p" "$2")
  DOC=$(sed -n "s/.*\`$1\` (currently \*\*\([0-9][0-9]*\)\*\*.*/\1/p" \
    DESIGN.md)
  if [ -z "$CODE" ]; then
    echo "docs_check: cannot find $1 in $2" >&2
    FAIL=1
  elif [ -z "$DOC" ]; then
    echo "docs_check: DESIGN.md does not document the current $1" >&2
    FAIL=1
  elif [ "$CODE" != "$DOC" ]; then
    echo "docs_check: DESIGN.md documents $1 $DOC but $2 says $CODE" >&2
    FAIL=1
  fi
  VERIFIED="$VERIFIED $1=$CODE"
}
# Section 9: the cache salt and file format, so readers can tell stale
# cache files apart.
check_constant AnalysisVersionSalt src/cache/AnalysisCache.h
check_constant CacheFormatVersion src/cache/AnalysisCache.h
# Section 10: the daemon's wire protocol.
check_constant ProtocolVersion src/server/Protocol.h
# Section 11: the per-unit allocation ceiling, which tests/pipeline_test.cpp
# asserts; doc and assertion must move together.
check_constant MaxHeapAllocsPerUnit tests/pipeline_test.cpp
# Section 14: the summarizer's conjecture bounds.
check_constant SummarizeMaxPeriod src/ivclass/Summarize.h
check_constant SummarizeSampleCount src/ivclass/Summarize.h

# 4. Fleet constants: the README documents the default worker count and
# the default cache cap; both live in src/server/Fleet.h and must match.
CODE_WORKERS=$(sed -n \
  's/.*DefaultWorkers = \([0-9][0-9]*\);.*/\1/p' src/server/Fleet.h)
DOC_WORKERS=$(sed -n \
  's/.*`--workers N`[^|]*|.*default \*\*\([0-9][0-9]*\)\*\*.*/\1/p' \
  README.md)
if [ -z "$CODE_WORKERS" ]; then
  echo "docs_check: cannot find DefaultWorkers in src/server/Fleet.h" >&2
  FAIL=1
elif [ -z "$DOC_WORKERS" ]; then
  echo "docs_check: README.md does not document the default --workers" \
       "count in bold on its table row" >&2
  FAIL=1
elif [ "$CODE_WORKERS" != "$DOC_WORKERS" ]; then
  echo "docs_check: README.md documents default --workers $DOC_WORKERS" \
       "but src/server/Fleet.h says $CODE_WORKERS" >&2
  FAIL=1
fi
CODE_CACHE_CAP=$(sed -n \
  's/.*DefaultCacheMaxBytes = \([0-9][0-9]*\);.*/\1/p' src/server/Fleet.h)
DOC_CACHE_CAP=$(sed -n \
  's/.*`--cache-max-bytes N`[^|]*|.*default \*\*\([0-9][0-9]*\)\*\*.*/\1/p' \
  README.md)
if [ -z "$CODE_CACHE_CAP" ]; then
  echo "docs_check: cannot find DefaultCacheMaxBytes in" \
       "src/server/Fleet.h" >&2
  FAIL=1
elif [ -z "$DOC_CACHE_CAP" ]; then
  echo "docs_check: README.md does not document the default" \
       "--cache-max-bytes in bold on its table row" >&2
  FAIL=1
elif [ "$CODE_CACHE_CAP" != "$DOC_CACHE_CAP" ]; then
  echo "docs_check: README.md documents default --cache-max-bytes" \
       "$DOC_CACHE_CAP but src/server/Fleet.h says $CODE_CACHE_CAP" >&2
  FAIL=1
fi

# 5. The c-finite lattice extension ships with its documentation: as long
# as the classifier defines IVKind::CFinite, DESIGN.md must carry the
# "C-finite lattice extension" section and EXPERIMENTS.md must track the
# punt-rate metric by its real counter name (`ivclass.punt`, declared in
# src/ivclass/Report.cpp).
if grep -q "CFinite" src/ivclass/Classification.h; then
  if ! grep -q "C-finite lattice extension" DESIGN.md; then
    echo "docs_check: classifier has IVKind::CFinite but DESIGN.md lacks" \
         "the 'C-finite lattice extension' section" >&2
    FAIL=1
  fi
  if ! grep -q "ivclass.punt" EXPERIMENTS.md; then
    echo "docs_check: EXPERIMENTS.md does not document the punt-rate" \
         "counter ivclass.punt" >&2
    FAIL=1
  fi
  if ! grep -q '"ivclass.punt"' src/ivclass/Report.cpp; then
    echo "docs_check: EXPERIMENTS.md tracks ivclass.punt but the counter" \
         "is not declared in src/ivclass/Report.cpp" >&2
    FAIL=1
  fi
fi

if [ "$FAIL" = 0 ]; then
  echo "docs_check: OK ($(echo "$FLAGS" | wc -w) flags," \
       "$(echo "$PATHS" | wc -w) paths,$VERIFIED," \
       "fleet defaults $CODE_WORKERS/$CODE_CACHE_CAP verified)"
fi
exit "$FAIL"
