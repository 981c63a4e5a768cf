#!/usr/bin/env bash
# Serving leg: the mpsim_serve daemon under concurrent, mixed-precision
# load.  Asserts the full serving contract:
#   * >= 8 concurrent queries across >= 3 precision modes, self-joins and
#     AB-joins, each response byte-identical to a one-shot
#     `mpsim_cli --output` run with the same flags;
#   * repeated identical queries are served from the fingerprint-keyed
#     profile cache (counter-asserted through the stats verb), repeated
#     inputs reuse loaded series and staged conversions;
#   * malformed numeric flags come back as error responses naming the
#     flag (the strict CLI parsing surfaces through the daemon);
#   * SIGTERM drains the in-flight query (complete, byte-correct
#     response), the daemon flushes --metrics-out and exits 143;
#   * a SIGTERM'd one-shot mpsim_cli run exits 143 as well (128+signo,
#     not the historical blanket 130).
# Driven by CTest; $1 = build dir with the tools.  Needs python3.
set -euo pipefail
BUILD=$1
WORK=$(mktemp -d)
SERVE_PID=""

cleanup() {
  status=$?
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  if [ "$status" -ne 0 ]; then
    echo "cli_serve_test FAILED (exit $status) at line ${FAILED_LINE:-?}" >&2
    for f in "$WORK"/*.log "$WORK"/*.json; do
      [ -f "$f" ] || continue
      echo "--- $f:" >&2
      cat "$f" >&2
    done
  fi
  rm -rf "$WORK"
  exit "$status"
}
trap 'FAILED_LINE=$LINENO' ERR
trap cleanup EXIT

awk 'BEGIN {
  srand(7); print "a,b";
  for (t = 0; t < 600; ++t) {
    a = sin(t / 11.0) + (rand() - 0.5) * 0.4;
    b = cos(t / 17.0) + (rand() - 0.5) * 0.4;
    printf "%.6f,%.6f\n", a, b;
  }
}' > "$WORK/ref.csv"
awk 'BEGIN {
  srand(9); print "a,b";
  for (t = 0; t < 400; ++t) {
    a = sin(t / 7.0) + (rand() - 0.5) * 0.4;
    b = cos(t / 5.0) + (rand() - 0.5) * 0.4;
    printf "%.6f,%.6f\n", a, b;
  }
}' > "$WORK/q.csv"

# The concurrent query batch: four precision modes, self- and AB-joins,
# multiple windows/tile/device counts.  The last one repeats an earlier
# (input, FP16) pair with a new window, so its staged conversions are
# cache hits, not reconversions.
QUERIES=(
  "--reference=$WORK/ref.csv --self-join --window=24 --mode=FP64"
  "--reference=$WORK/ref.csv --self-join --window=32 --mode=FP32 --tiles=2"
  "--reference=$WORK/ref.csv --self-join --window=48 --mode=FP16"
  "--reference=$WORK/ref.csv --self-join --window=24 --mode=Mixed --tiles=3 --devices=2"
  "--reference=$WORK/ref.csv --query=$WORK/q.csv --window=32 --mode=FP64"
  "--reference=$WORK/ref.csv --query=$WORK/q.csv --window=24 --mode=FP32"
  "--reference=$WORK/ref.csv --self-join --window=32 --mode=FP16 --tiles=2"
  "--reference=$WORK/ref.csv --query=$WORK/q.csv --window=48 --mode=FP16 --tiles=2 --devices=2"
  "--reference=$WORK/ref.csv --self-join --window=40 --mode=FP16"
  "--reference=$WORK/ref.csv --self-join --window=32 --mode=FP16 --prefilter=sketch --prefilter-budget=0.05"
)
# Sent while the daemon is draining after SIGTERM; must still complete.
DRAIN_QUERY="--reference=$WORK/ref.csv --self-join --window=20 --mode=FP32"

# One-shot CLI reference outputs for the byte-diffs.
for i in "${!QUERIES[@]}"; do
  # shellcheck disable=SC2086
  "$BUILD/tools/mpsim_cli" ${QUERIES[$i]} --motifs=0 \
      --output="$WORK/expected_$i.csv" > /dev/null
done
# shellcheck disable=SC2086
"$BUILD/tools/mpsim_cli" $DRAIN_QUERY --motifs=0 \
    --output="$WORK/expected_drain.csv" > /dev/null

"$BUILD/tools/mpsim_serve" --socket="$WORK/mpsim.sock" --executors=3 \
    --metrics-out="$WORK/serve_metrics.json" > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
echo "$SERVE_PID" > "$WORK/serve.pid"
for _ in $(seq 1 100); do
  [ -S "$WORK/mpsim.sock" ] && break
  sleep 0.1
done
[ -S "$WORK/mpsim.sock" ]

python3 - "$WORK" "$DRAIN_QUERY" "${QUERIES[@]}" <<'EOF'
import json, os, signal, socket, sys, threading, time

work = sys.argv[1]
drain_query = sys.argv[2]
queries = sys.argv[3:]
sock_path = work + "/mpsim.sock"


def connect():
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.connect(sock_path)
    return conn


def rpc(conn, line):
    conn.sendall(line.encode() + b"\n")
    f = conn.makefile("rb")
    header = json.loads(f.readline())
    payload = f.read(header["bytes"]) if header["bytes"] else b""
    assert len(payload) == header["bytes"], (header, len(payload))
    return header, payload


def one_query(i, flags, results):
    conn = connect()
    try:
        results[i] = rpc(conn, f"query {flags} --id=q{i}")
    finally:
        conn.close()


# The concurrent batch: one connection per query (distinct fairness keys).
results = [None] * len(queries)
threads = [threading.Thread(target=one_query, args=(i, q, results))
           for i, q in enumerate(queries)]
for t in threads:
    t.start()
for t in threads:
    t.join()

for i, (header, payload) in enumerate(results):
    assert header["status"] == "ok", (i, header)
    assert header["id"] == f"q{i}", header
    assert header["cached"] is False, (i, header)
    expected = open(f"{work}/expected_{i}.csv", "rb").read()
    assert payload == expected, (
        f"query {i}: daemon payload ({len(payload)}B) != "
        f"mpsim_cli output ({len(expected)}B)")

modes = {h["mode"] for h, _ in results}
assert len(modes) >= 3, modes

# Sequential repeats of every query on one connection: all served from
# the profile cache, byte-identical again.
conn = connect()
for i, flags in enumerate(queries):
    header, payload = rpc(conn, f"query {flags} --id=again{i}")
    assert header["status"] == "ok", header
    assert header["cached"] is True, (i, header)
    assert payload == results[i][1], i

# Malformed numerics are error responses naming the flag, on a live
# connection.
header, _ = rpc(conn, f"query --reference={work}/ref.csv --self-join "
                      "--window=64garbage --id=bad")
assert header["status"] == "error", header
assert "--window=64garbage" in header["error"], header

# Counter assertions through the stats verb.
header, payload = rpc(conn, "stats --id=s")
stats = json.loads(payload)
assert stats["schema"] == "mpsim-metrics-v2", stats.get("schema")
c = stats["counters"]
assert c["serve.profile_cache.hits"] >= len(queries), c
assert c["serve.series_cache.hits"] >= 1, c
assert c["serve.input_cache.hits"] >= 1, c
assert c["serve.admission.admitted"] >= len(queries), c
assert c["serve.requests.query"] >= 2 * len(queries), c
assert c["serve.responses.error"] >= 1, c
assert c.get("staging.hits", 0) >= 1, c
conn.close()

# Graceful drain: fire a fresh (uncached) query and SIGTERM the daemon
# right behind it; the admitted query must still produce its complete
# response before the process exits.
conn = connect()
conn.sendall(f"query {drain_query} --id=drain\n".encode())
time.sleep(0.2)  # let the connection thread admit the query first
os.kill(int(open(work + "/serve.pid").read()), signal.SIGTERM)
f = conn.makefile("rb")
header = json.loads(f.readline())
assert header["status"] == "ok", header
assert header["cached"] is False, header
payload = f.read(header["bytes"])
assert len(payload) == header["bytes"], (header, len(payload))
open(work + "/drain_payload.csv", "wb").write(payload)
conn.close()
print(f"serve client OK ({len(queries)} concurrent + {len(queries)} cached, "
      f"modes={sorted(modes)})")
EOF

# The daemon must drain and exit 143 (128+SIGTERM), flushing its metrics.
set +e
wait "$SERVE_PID"
SERVE_STATUS=$?
set -e
SERVE_PID=""
[ "$SERVE_STATUS" -eq 143 ]
grep -q "drained after" "$WORK/serve.log"
cmp "$WORK/drain_payload.csv" "$WORK/expected_drain.csv"
python3 - "$WORK/serve_metrics.json" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
assert metrics["schema"] == "mpsim-metrics-v2", metrics.get("schema")
c = metrics["counters"]
assert c["serve.jobs_completed"] >= 19, c  # 9 computed + 9 cached + drain
assert c["serve.connections"] >= 11, c
assert c["serve.responses.ok"] >= 20, c
print(f"serve metrics OK ({len(c)} counters)")
EOF

# One-shot CLI SIGTERM leg: a hang-stalled run killed with SIGTERM must
# exit 143 (pre-fix the handler hard-exited 130 for every signal).  The
# hang stalls tile 1 in a cancellable sleep far longer than the test, so
# the kill always lands mid-run.
# shellcheck disable=SC2086
"$BUILD/tools/mpsim_cli" --reference="$WORK/ref.csv" --self-join \
    --window=32 --mode=FP32 --tiles=4 \
    --faults="seed=1,hang@0:at=1:ms=60000" \
    > "$WORK/cli_sigterm.log" 2>&1 &
CLI_PID=$!
sleep 0.5
kill -TERM "$CLI_PID"
set +e
wait "$CLI_PID"
CLI_STATUS=$?
set -e
[ "$CLI_STATUS" -eq 143 ]

# An unwritable --metrics-out / --trace-out is refused before the daemon
# binds its socket: exit 1 at once with the flag named, no socket left
# behind (it used to serve until shutdown and then lose the metrics).
for flag in metrics-out trace-out; do
  status=0
  timeout 20 "$BUILD/tools/mpsim_serve" --socket="$WORK/probe.sock" \
      --"$flag"="$WORK/missing/dir/$flag.json" > "$WORK/probe.log" 2>&1 \
      || status=$?
  [ "$status" -eq 1 ]
  grep -q -- "--$flag" "$WORK/probe.log"
  [ ! -e "$WORK/probe.sock" ]
done

echo "cli serve OK"
