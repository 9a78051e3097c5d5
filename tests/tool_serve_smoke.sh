#!/usr/bin/env bash
# End-to-end pin of the serve daemon's batch mode against the one-shot tool:
# the same request solved through `rahtm_serve --stdin` must produce a
# mapfile byte-identical to `rahtm_map`'s, responses must come back in
# request order, the NDJSON response stream must pass
# `rahtm_bench --validate`, and a slow solve must not hold back the
# requests queued behind it while another serving thread is free.
#
# usage: tool_serve_smoke.sh RAHTM_MAP RAHTM_SERVE RAHTM_BENCH WORKDIR
set -euo pipefail

MAP=$1
SERVE=$2
BENCH=$3
DIR=$4

rm -rf "$DIR"
mkdir -p "$DIR"

# Reference: the offline tool, one shot.
"$MAP" --machine 2x2x2 --concentration 2 --benchmark CG --leaf-milp 4 \
  --out "$DIR/oneshot.map"

# The same solve twice through the daemon: the first request populates the
# artifact cache, the second must reuse it — and both mapfiles must still be
# bit-identical to the one-shot reference.
cat > "$DIR/requests.ndjson" <<'EOF'
{"schema":"rahtm.serve.request/v1","id":"cold","machine":"2x2x2","concentration":2,"benchmark":"CG","leaf_milp":4}
{"schema":"rahtm.serve.request/v1","id":"warm","machine":"2x2x2","concentration":2,"benchmark":"CG","leaf_milp":4}
EOF
"$SERVE" --stdin --threads 2 --map-out-dir "$DIR" \
  < "$DIR/requests.ndjson" > "$DIR/responses.ndjson"

cmp "$DIR/oneshot.map" "$DIR/cold.map"
cmp "$DIR/oneshot.map" "$DIR/warm.map"

# Responses come back in request order.
ids=$(sed -n 's/.*"id":"\([a-z]*\)".*/\1/p' "$DIR/responses.ndjson" | tr '\n' ' ')
if [ "$ids" != "cold warm " ]; then
  echo "response order wrong: got '$ids', want 'cold warm '" >&2
  exit 1
fi

# The response stream is schema-valid NDJSON.
"$BENCH" --validate "$DIR/responses.ndjson"

# The cache actually served hits: the warm request's cache snapshot (the
# last response line) must report nonzero route-table hits.
if tail -n 1 "$DIR/responses.ndjson" | grep -q '"route_hits":0,'; then
  echo "no route-table cache hits recorded across the batch" >&2
  exit 1
fi

# Head of line: one RAHTM solve, then 12 baseline requests, on 2 serving
# threads. The solve holds one thread; the baseline requests must go to the
# other instead of waiting for it, so each must have queued for less than
# half of the solve's time (their own solves take well under a millisecond).
{
  echo '{"schema":"rahtm.serve.request/v1","id":"slow","machine":"2x2x2","concentration":2,"benchmark":"CG","leaf_milp":4}'
  for i in $(seq 1 12); do
    echo "{\"schema\":\"rahtm.serve.request/v1\",\"id\":\"quick$i\",\"machine\":\"4x4\",\"concentration\":1,\"benchmark\":\"CG\",\"mapper\":\"abcdet\"}"
  done
} > "$DIR/hol_requests.ndjson"
"$SERVE" --stdin --threads 2 --no-mapping \
  < "$DIR/hol_requests.ndjson" > "$DIR/hol_responses.ndjson"

# A number-valued member of a response line (queue_sec, solve_sec).
member() { sed -n "s/.*\"$1\":\([-+.0-9eE]*\).*/\1/p"; }
slow_solve=$(grep -F '"id":"slow"' "$DIR/hol_responses.ndjson" | member solve_sec)
quick_queue=$(grep -F '"id":"quick' "$DIR/hol_responses.ndjson" | member queue_sec)
if [ -z "$slow_solve" ] || [ "$(wc -w <<<"$quick_queue")" -ne 12 ]; then
  echo "head-of-line batch: missing responses" >&2
  exit 1
fi
held=$(awk -v s="$slow_solve" '$1 + 0 >= 0.5 * s { n++ } END { print n + 0 }' \
  <<<"$quick_queue")
if [ "$held" -ne 0 ]; then
  echo "head-of-line blocking: $held of 12 baseline requests queued for at" \
    "least half of the ${slow_solve} s RAHTM solve (queue_sec:" \
    $quick_queue")" >&2
  exit 1
fi
echo "serve smoke OK"
