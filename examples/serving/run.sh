#!/usr/bin/env bash
# Executes the serving quickstart (see README.md) against a graphgend
# it starts on a scratch port, then shuts it down. Run from the repo
# root:  bash examples/serving/run.sh
set -euo pipefail

ADDR="127.0.0.1:18080"
BASE="http://$ADDR"

go build -o /tmp/graphgend ./cmd/graphgend
/tmp/graphgend -addr "$ADDR" -dataset dblp &
DAEMON=$!
trap 'kill $DAEMON 2>/dev/null || true' EXIT

# peek prints the first N bytes of a GET response. It reads the whole
# body first: curl piped into head dies of SIGPIPE on a long body, which
# pipefail turns into a failed run.
peek() { local body; body=$(curl -sf "$1"); printf '%s\n' "${body:0:$2}"; }

for _ in $(seq 1 50); do
  curl -sf "$BASE/v1/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "$BASE/v1/healthz"; echo

echo "== extract live co-author session =="
curl -sf -X POST "$BASE/v1/graphs" -d '{
  "name": "coauth",
  "live": true,
  "query": "Nodes(ID, Name) :- Author(ID, Name). Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P)."
}'

echo "== analyze twice (second is cached) =="
peek "$BASE/v1/graphs/coauth/analyze/pagerank?k=5" 400
curl -sf "$BASE/v1/graphs/coauth/analyze/pagerank?k=5" | grep -o '"cached": [a-z]*'

echo "== mutate: live graph and cache follow =="
curl -sf -X POST "$BASE/v1/db/AuthorPub/insert" -d '{"rows": [[1, 99991], [2, 99991]]}'; echo
curl -sf "$BASE/v1/graphs/coauth/analyze/pagerank?k=5" | grep -o '"cached": [a-z]*'
peek "$BASE/v1/graphs/coauth/neighbors?v=1" 200
curl -sf -X POST "$BASE/v1/db/AuthorPub/delete" -d '{"row": [2, 99991]}'; echo

echo "== recursive program session, created with ANALYZE tracing =="
# ?analyze=true arms operator-span tracing for the one evaluation this
# request runs; the response carries the full execution profile, whose
# semi-naive delta-round spans reconcile with eval.derived_tuples.
curl -sf -X POST "$BASE/v1/graphs?analyze=true" -d '{
  "name": "reach",
  "program": "Coauthor(A, B) :- AuthorPub(A, P), AuthorPub(B, P), A != B, A < 150, B < 150. Reach(A, B) :- Coauthor(A, B). Reach(A, C) :- Reach(A, B), Coauthor(B, C). Nodes(ID, Name) :- Author(ID, Name). Edges(A, B) :- Reach(A, B)."
}' > /tmp/reach_create.json
head -c 500 /tmp/reach_create.json; echo
grep -o '"derived_tuples": [0-9]*' /tmp/reach_create.json | head -1
echo "-- delta rounds recorded in the profile:"
grep -o '"op": "round"' /tmp/reach_create.json | wc -l
# the recorded build plan re-attaches to analytics calls on demand
curl -sf "$BASE/v1/graphs/reach/analyze/components?explain=true" | grep -o '"op": "[a-z_]*"' | sort | uniq -c | sort -rn | head -5
peek "$BASE/v1/graphs/reach/analyze/components" 300
# program sessions are static-only: live=true is rejected with the
# structured error envelope (stable "code", human-readable "message")
curl -s -X POST "$BASE/v1/graphs" -d '{"name": "reach-live", "live": true,
  "program": "Nodes(A) :- Author(A, _). Edges(A, B) :- AuthorPub(A, P), AuthorPub(B, P)."}' \
  | grep -o '"code": "[^"]*"'

echo "== request ids: header, error envelope, and the server log agree =="
curl -sf -D - -o /dev/null "$BASE/v1/healthz" | grep -i 'x-request-id'
curl -s "$BASE/v1/graphs/no-such-session/stats" | grep -o '"request_id": "[^"]*"'

echo "== metrics =="
peek "$BASE/v1/metrics" 600
curl -sf "$BASE/v1/metrics" | grep -o '"programs": [0-9]*'
echo "-- Prometheus exposition (status-class counters, latency histograms):"
grep -m 8 -E 'requests_total|uptime' <<<"$(curl -sf "$BASE/v1/metrics?format=prometheus")"

echo "== clean up =="
curl -sf -X DELETE "$BASE/v1/graphs/coauth"; echo
curl -sf -X DELETE "$BASE/v1/graphs/reach"; echo

echo "== sustained load against a social-network daemon (cmd/graphload) =="
# A second daemon serving the LDBC-style SNB dataset; graphload creates
# a live Knows session on it and replays a mixed read/mutate/analyze
# stream, reporting p50/p95/p99 per op class. Exit 0 means zero op
# errors.
SNB_ADDR="127.0.0.1:18081"
/tmp/graphgend -addr "$SNB_ADDR" -dataset snb >/dev/null &
SNB_DAEMON=$!
trap 'kill $DAEMON $SNB_DAEMON 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  curl -sf "http://$SNB_ADDR/v1/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
go run ./cmd/graphload -addr "$SNB_ADDR" -duration 3s -clients 4 \
  -mix read=70,mutate=20,analyze=10

echo "quickstart OK"
