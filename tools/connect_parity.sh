#!/bin/sh
# One-shot `bivc FILE FLAGS` and `bivc --connect SOCKET FILE FLAGS` must
# print the same bytes for every flag set --connect accepts: both take their
# analysis options from one driver::AnalysisOptions, and this pins that
# they keep doing so.  Runs a daemon with a cache, so repeats are served
# from it.
#
#   tools/connect_parity.sh BIVC DIR...
#
# Every DIR/*.biv is checked under no flags, --all-values, --no-sccp,
# --summarize, and all three together.  Registered as the tier-1
# `bivc_connect_parity` ctest entry.
set -u

BIVC=$1
shift
D=$(mktemp -d)
"$BIVC" --serve "$D/s.sock" --cache "$D/s.cache" > "$D/serve.log" 2>&1 &
SRV=$!
for _ in $(seq 1 100); do
  [ -S "$D/s.sock" ] && break
  sleep 0.1
done

FAIL=0
RUNS=0
for DIR in "$@"; do
  for F in "$DIR"/*.biv; do
    for FLAGS in "" "--all-values" "--no-sccp" "--summarize" \
                 "--all-values --no-sccp --summarize"; do
      RUNS=$((RUNS + 1))
      # $FLAGS is split on purpose: it holds zero or more flags.
      if ! "$BIVC" "$F" $FLAGS > "$D/one.out" 2> "$D/one.err" ||
         ! "$BIVC" --connect "$D/s.sock" "$F" $FLAGS > "$D/srv.out" \
             2> "$D/srv.err"; then
        echo "connect_parity: run failed: $F $FLAGS" >&2
        cat "$D/one.err" "$D/srv.err" >&2
        FAIL=1
      elif ! cmp -s "$D/one.out" "$D/srv.out"; then
        echo "connect_parity: one-shot and --connect differ: $F $FLAGS" >&2
        diff "$D/one.out" "$D/srv.out" >&2
        FAIL=1
      fi
    done
  done
done

kill -TERM "$SRV"
if ! wait "$SRV"; then
  echo "connect_parity: daemon did not drain cleanly" >&2
  cat "$D/serve.log" >&2
  FAIL=1
fi
rm -rf "$D"
[ "$FAIL" = 0 ] && echo "CONNECT_PARITY_OK ($RUNS runs)"
exit "$FAIL"
