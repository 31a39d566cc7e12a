#!/usr/bin/env bash
# ThreadSanitizer soak of the analysis daemon.
#
# Configures a separate TSan-instrumented build tree (the tier-1 build stays
# uninstrumented), runs the daemon lifecycle unit matrix under TSan, soaks
# the real `bivc --serve` / `bivc --connect` binaries over the regression
# corpus, and runs one pooled fuzz campaign under the race detector:
#
#  1. server_test under TSan: byte-identity, warm shared cache, bounded
#     admission, deadlines, crash isolation, SIGTERM drain -- the daemon's
#     acceptance matrix with the race detector watching.  cache_test (the
#     mapper, the flock'd append and the temp-and-rename image writer) and
#     batch_test (the thread pool and its queue order) run beside it.
#  2. CLI byte-identity: every corpus report served over the socket must
#     equal the one-shot `bivc FILE` bytes, cold and warm.
#  3. Concurrent warm blast: parallel clients hammer the shared cache, then
#     the Stats request kind must show the hits.
#  4. No-silent-drop under overload: a tiny-admission daemon answers every
#     one of a burst of concurrent clients, and its `serve.overloaded`
#     counter equals the number of clients that were told so.
#  5. SIGTERM drain: in-flight clients are answered, the daemon exits 0,
#     the socket file is gone.
#  6. Fleet byte-identity: a --workers 3 pre-forked fleet serves the same
#     corpus byte-identically under concurrent clients, drains on SIGTERM
#     with exit 0, and its bounded cache never exceeds --cache-max-bytes.
#     Then a --workers 3 --admit 1 fleet answers every request of an
#     overload pass at 4x that client concurrency, with the one-shot bytes
#     or an `overloaded` reply, and must turn at least one away.
#  7. Worker crash mid-request: a fault-injected worker _exit()s between
#     reading a request and replying; the client gets a connection error
#     (never a hang), the supervisor respawns the worker, and the fleet
#     keeps serving correct bytes.
#  8. Compaction under concurrent load: clients hammer a capped cache
#     across repeated flush/compact cycles from multiple worker processes;
#     every reply stays byte-identical and the file stays under the cap.
#  9. Pooled fuzz campaign: `bivc --fuzz 300 --seed 1 --summarize` checks
#     its programs on the default 8 pool workers, with the -j1 reference
#     rendering beside them, and must come back clean.
#
# Invoked by `ctest -C stress -R serve_soak` or directly:
#
#   tools/serve_soak.sh
#
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-serve-tsan"

cmake -S "$ROOT" -B "$BUILD" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBIV_SANITIZE=thread >/dev/null
cmake --build "$BUILD" --target bivc server_test cache_test batch_test \
  -j "$(nproc)" >/dev/null

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

BIVC="$BUILD/tools/bivc"
DIR="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "serve_soak: daemon never bound $1" >&2
  return 1
}

# 1. Lifecycle matrix, cache and pool suites under the race detector.
for T in server_test cache_test batch_test; do
  "$BUILD/tests/$T"
done
echo "serve_soak: server_test, cache_test and batch_test clean under TSan"

# 2 + 3. Byte-identity and the concurrent warm blast against one daemon.
SOCK="$DIR/soak.sock"
"$BIVC" --serve "$SOCK" --cache "$DIR/soak.cache" -j4 \
  2>"$DIR/serve.log" &
SERVE_PID=$!
wait_for_socket "$SOCK"

for F in "$ROOT"/tests/corpus/*.biv; do
  "$BIVC" "$F" >"$DIR/one.out" 2>/dev/null || true
  "$BIVC" --connect "$SOCK" "$F" >"$DIR/served.out" 2>/dev/null || true
  if ! cmp -s "$DIR/one.out" "$DIR/served.out"; then
    echo "serve_soak: served report differs from one-shot for $F:" >&2
    diff "$DIR/one.out" "$DIR/served.out" >&2 || true
    exit 1
  fi
done
echo "serve_soak: served reports byte-identical to one-shot (cold)"

# (explicit pid list: a bare `wait` would also wait on the daemon job)
BLAST_PIDS=""
for C in 1 2 3 4 5 6 7 8; do
  (
    for F in "$ROOT"/tests/corpus/*.biv; do
      "$BIVC" --connect "$SOCK" "$F" >/dev/null 2>&1 || true
    done
  ) &
  BLAST_PIDS="$BLAST_PIDS $!"
done
for P in $BLAST_PIDS; do
  wait "$P" || true
done
"$BIVC" --connect "$SOCK" --server-stats >"$DIR/stats.json"
HITS=$(grep -o '"cache.hit": [0-9]*' "$DIR/stats.json" |
  grep -o '[0-9]*$' || echo 0)
if [ "${HITS:-0}" -lt 8 ]; then
  echo "serve_soak: warm blast shows only ${HITS:-0} cache hits:" >&2
  cat "$DIR/stats.json" >&2
  exit 1
fi
echo "serve_soak: concurrent warm blast served from shared cache" \
  "($HITS hits)"

# 5 (first daemon). Drain with clients in flight.
CLIENT_PIDS=""
for C in 1 2 3 4; do
  "$BIVC" --connect "$SOCK" "$ROOT"/tests/corpus/linear_chain.biv \
    >/dev/null 2>"$DIR/drain.$C.err" &
  CLIENT_PIDS="$CLIENT_PIDS $!"
done
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "serve_soak: daemon exited non-zero after SIGTERM:" >&2
  cat "$DIR/serve.log" >&2
  exit 1
fi
SERVE_PID=""
for P in $CLIENT_PIDS; do
  wait "$P" || true # answered or politely refused; never hung
done
if [ -e "$SOCK" ]; then
  echo "serve_soak: daemon left its socket file behind" >&2
  exit 1
fi
echo "serve_soak: SIGTERM drained with clients in flight, socket removed"

# 4. Overload burst: every client answered, and the daemon's own counter
# agrees with how many were turned away.
SOCK2="$DIR/tiny.sock"
"$BIVC" --serve "$SOCK2" --admit 1 -j1 2>"$DIR/tiny.log" &
SERVE_PID=$!
wait_for_socket "$SOCK2"
BURST=16
PIDS=""
for C in $(seq 1 $BURST); do
  "$BIVC" --connect "$SOCK2" "$ROOT"/tests/corpus/linear_chain.biv \
    >"$DIR/burst.$C.out" 2>"$DIR/burst.$C.err" &
  PIDS="$PIDS $!"
done
ANSWERED=0
REFUSED=0
for P in $PIDS; do
  if wait "$P"; then
    ANSWERED=$((ANSWERED + 1))
  else
    REFUSED=$((REFUSED + 1))
  fi
done
if [ $((ANSWERED + REFUSED)) -ne "$BURST" ]; then
  echo "serve_soak: burst lost requests ($ANSWERED + $REFUSED != $BURST)" >&2
  exit 1
fi
CLIENT_OVERLOADED=$(grep -l "overloaded" "$DIR"/burst.*.err 2>/dev/null |
  wc -l)
"$BIVC" --connect "$SOCK2" --server-stats >"$DIR/tiny.stats.json"
SERVER_OVERLOADED=$(grep -o '"serve.overloaded": [0-9]*' \
  "$DIR/tiny.stats.json" | grep -o '[0-9]*$' || echo 0)
if [ "${SERVER_OVERLOADED:-0}" -ne "$CLIENT_OVERLOADED" ]; then
  echo "serve_soak: daemon counted ${SERVER_OVERLOADED:-0} overloads but" \
    "$CLIENT_OVERLOADED clients were told so" >&2
  exit 1
fi
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
echo "serve_soak: overload burst fully answered" \
  "($ANSWERED ok, $REFUSED refused, counter agrees)"

# 6. Fleet byte-identity + bounded cache + clean drain.
FSOCK="$DIR/fleet.sock"
FCACHE="$DIR/fleet.cache"
FCAP=16384
"$BIVC" --serve "$FSOCK" --workers 3 --cache "$FCACHE" \
  --cache-max-bytes "$FCAP" -j2 2>"$DIR/fleet.log" &
SERVE_PID=$!
wait_for_socket "$FSOCK"
FLEET_PIDS=""
for C in 1 2 3 4; do
  (
    for F in "$ROOT"/tests/corpus/*.biv; do
      "$BIVC" "$F" >"$DIR/fleet.$C.one" 2>/dev/null || true
      "$BIVC" --connect "$FSOCK" "$F" >"$DIR/fleet.$C.served" \
        2>/dev/null || true
      cmp -s "$DIR/fleet.$C.one" "$DIR/fleet.$C.served" || exit 1
    done
  ) &
  FLEET_PIDS="$FLEET_PIDS $!"
done
for P in $FLEET_PIDS; do
  if ! wait "$P"; then
    echo "serve_soak: fleet served bytes differ from one-shot" >&2
    cat "$DIR/fleet.log" >&2
    exit 1
  fi
done
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "serve_soak: fleet exited non-zero after SIGTERM:" >&2
  cat "$DIR/fleet.log" >&2
  exit 1
fi
SERVE_PID=""
if [ -e "$FSOCK" ]; then
  echo "serve_soak: fleet left its socket file behind" >&2
  exit 1
fi
FSIZE=$(stat -c %s "$FCACHE" 2>/dev/null || echo 0)
if [ "$FSIZE" -gt "$FCAP" ]; then
  echo "serve_soak: fleet cache $FSIZE bytes exceeds cap $FCAP" >&2
  exit 1
fi
echo "serve_soak: fleet byte-identical under concurrent clients," \
  "cache $FSIZE <= $FCAP, clean drain"

# Overload pass: 4x the clients above against a fleet that admits one
# request per worker.  An `overloaded` reply is an answer; a lost, hung or
# garbled request is not.
OSOCK="$DIR/over.sock"
"$BIVC" --serve "$OSOCK" --workers 3 --admit 1 -j1 2>"$DIR/overfleet.log" &
SERVE_PID=$!
wait_for_socket "$OSOCK"
mkdir -p "$DIR/oneshot"
for F in "$ROOT"/tests/corpus/*.biv; do
  "$BIVC" "$F" >"$DIR/oneshot/$(basename "$F").out"
done
OVER_CLIENTS=16
OVER_PIDS=""
for C in $(seq 1 $OVER_CLIENTS); do
  (
    for F in "$ROOT"/tests/corpus/*.biv; do
      if timeout 60 "$BIVC" --connect "$OSOCK" "$F" >"$DIR/over.$C.out" \
        2>"$DIR/over.$C.err"; then
        cmp -s "$DIR/over.$C.out" "$DIR/oneshot/$(basename "$F").out" ||
          exit 1
        echo ok
      elif grep -q "overloaded" "$DIR/over.$C.err"; then
        echo overloaded
      else
        exit 1
      fi
    done >"$DIR/over.$C.log"
  ) &
  OVER_PIDS="$OVER_PIDS $!"
done
for P in $OVER_PIDS; do
  if ! wait "$P"; then
    echo "serve_soak: fleet lost, hung or garbled a request under" \
      "$OVER_CLIENTS-client overload" >&2
    cat "$DIR/overfleet.log" >&2
    exit 1
  fi
done
OVER_OK=$(cat "$DIR"/over.*.log | grep -c '^ok$' || true)
OVER_REFUSED=$(cat "$DIR"/over.*.log | grep -c '^overloaded$' || true)
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "serve_soak: admit-1 fleet exited non-zero after SIGTERM:" >&2
  cat "$DIR/overfleet.log" >&2
  exit 1
fi
SERVE_PID=""
if [ "$OVER_REFUSED" -lt 1 ]; then
  echo "serve_soak: $OVER_CLIENTS clients against an admit-1 fleet got no" \
    "overloaded reply ($OVER_OK ok)" >&2
  exit 1
fi
echo "serve_soak: admit-1 fleet answered the overload pass" \
  "($OVER_OK ok, $OVER_REFUSED overloaded)"

# 7. Worker crash mid-request: error (not a hang) at the client, respawn
# at the supervisor, correct bytes afterwards.
CSOCK="$DIR/crash.sock"
BIV_SERVE_CRASH_TOKEN="BIV_SOAK_BOOM" \
  "$BIVC" --serve "$CSOCK" --workers 2 2>"$DIR/crash.log" &
SERVE_PID=$!
wait_for_socket "$CSOCK"
printf 'func f(n) { s = 0; for L: i = 1 to n { s = s + i; } return s; }\n// BIV_SOAK_BOOM\n' \
  >"$DIR/boom.biv"
set +e
timeout 30 "$BIVC" --connect "$CSOCK" "$DIR/boom.biv" \
  >"$DIR/boom.out" 2>"$DIR/boom.err"
BOOM_RC=$?
set -e
if [ "$BOOM_RC" -eq 0 ] || [ "$BOOM_RC" -eq 124 ]; then
  echo "serve_soak: crash-injected request must fail fast, got rc=$BOOM_RC" >&2
  cat "$DIR/boom.err" >&2
  exit 1
fi
# The supervisor noticed the death and respawned.
for _ in $(seq 1 100); do
  grep -q "respawning" "$DIR/crash.log" && break
  sleep 0.1
done
grep -q "respawning" "$DIR/crash.log" || {
  echo "serve_soak: supervisor never logged a respawn" >&2
  cat "$DIR/crash.log" >&2
  exit 1
}
# The fleet keeps serving, correctly, with a full worker complement.
F="$ROOT"/tests/corpus/linear_chain.biv
"$BIVC" "$F" >"$DIR/after.one"
for _ in 1 2 3 4; do
  "$BIVC" --connect "$CSOCK" "$F" >"$DIR/after.served"
  cmp "$DIR/after.one" "$DIR/after.served" || {
    echo "serve_soak: post-crash served bytes differ" >&2
    exit 1
  }
done
kill -TERM "$SERVE_PID"
# Exit 1 is the contract here: a worker died, the supervisor aggregates.
wait "$SERVE_PID" && {
  echo "serve_soak: supervisor must exit non-zero after a worker death" >&2
  exit 1
}
SERVE_PID=""
echo "serve_soak: worker crash mid-request -> client error, respawn," \
  "correct bytes after"

# 8. Compaction under concurrent load: many distinct programs through a
# tightly capped cache, repeatedly, from several worker processes.
KSOCK="$DIR/compact.sock"
KCACHE="$DIR/compact.cache"
KCAP=8192
"$BIVC" --serve "$KSOCK" --workers 2 --cache "$KCACHE" \
  --cache-max-bytes "$KCAP" 2>"$DIR/compact.log" &
SERVE_PID=$!
wait_for_socket "$KSOCK"
mkdir -p "$DIR/gen"
for I in $(seq 1 40); do
  printf 'func f%d(n) { s = %d; for L: i = 1 to n { s = s + i * %d; } return s; }\n' \
    "$I" "$I" "$I" >"$DIR/gen/g$I.biv"
done
for PASS in 1 2 3; do
  KPIDS=""
  for C in 1 2; do
    (
      for G in "$DIR"/gen/*.biv; do
        "$BIVC" "$G" >"$DIR/k.$C.one" 2>/dev/null || exit 1
        "$BIVC" --connect "$KSOCK" "$G" >"$DIR/k.$C.served" \
          2>/dev/null || exit 1
        cmp -s "$DIR/k.$C.one" "$DIR/k.$C.served" || exit 1
      done
    ) &
    KPIDS="$KPIDS $!"
  done
  for P in $KPIDS; do
    if ! wait "$P"; then
      echo "serve_soak: compaction pass $PASS served wrong bytes" >&2
      cat "$DIR/compact.log" >&2
      exit 1
    fi
  done
done
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || {
  echo "serve_soak: compaction fleet exited non-zero:" >&2
  cat "$DIR/compact.log" >&2
  exit 1
}
SERVE_PID=""
KSIZE=$(stat -c %s "$KCACHE" 2>/dev/null || echo 0)
if [ "$KSIZE" -gt "$KCAP" ]; then
  echo "serve_soak: compacted cache $KSIZE bytes exceeds cap $KCAP" >&2
  exit 1
fi
echo "serve_soak: compaction under concurrent load held the cap" \
  "($KSIZE <= $KCAP, 3 passes x 40 programs x 2 clients)"

# 9. Pooled fuzz campaign under the race detector.
if ! "$BIVC" --fuzz 300 --seed 1 --summarize >"$DIR/fuzz.out"; then
  echo "serve_soak: pooled fuzz campaign failed:" >&2
  cat "$DIR/fuzz.out" >&2
  exit 1
fi
echo "serve_soak: pooled fuzz campaign clean under TSan" \
  "($(head -n 1 "$DIR/fuzz.out"))"

echo "serve_soak: OK"
