#!/usr/bin/env bash
# scatter_smoke.sh — end-to-end scatter-gather smoke: three coskq-server
# shard processes plus a coordinator fanning /query out to them over
# HTTP. Exercises the real binaries and the real transport, unlike the
# httptest-based suite. Exits non-zero on any failed check.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/coskq-server" ./cmd/coskq-server
go build -o "$work/coskq-datagen" ./cmd/coskq-datagen

for i in 1 2 3; do
    "$work/coskq-datagen" -out "$work/shard$i.gob" -n 400 -vocab 40 -clusters 5 -seed "$i"
done

ports=(9471 9472 9473)
for i in 1 2 3; do
    "$work/coskq-server" -data "$work/shard$i.gob" -addr "127.0.0.1:${ports[$((i - 1))]}" &
    pids+=($!)
done

wait_up() {
    for _ in $(seq 1 50); do
        if curl -fsS "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "server on port $1 never came up" >&2
    return 1
}
for p in "${ports[@]}"; do wait_up "$p"; done

"$work/coskq-server" \
    -peers "http://127.0.0.1:${ports[0]},http://127.0.0.1:${ports[1]},http://127.0.0.1:${ports[2]}" \
    -addr 127.0.0.1:9470 -degrade incumbent -budget-per-second 1e9 &
pids+=($!)
wait_up 9470

health="$(curl -fsS http://127.0.0.1:9470/healthz)"
echo "healthz: $health"
grep -q '"mode":"scatter-gather"' <<<"$health"
grep -q '"shards":3' <<<"$health"

# w000000 is the Zipf head of every datagen vocabulary: present on all
# three shards, so the fleet answer must be a clean (non-degraded) 200:
# the coordinator's pool solve derives its node budget from the request
# deadline at -budget-per-second 1e9, which a healthy solve stays under.
body="$(curl -fsS 'http://127.0.0.1:9470/query?x=500&y=500&kw=w000000,w000001')"
echo "query: $body"
grep -q '"cost":' <<<"$body"
if grep -q '"degraded":true' <<<"$body"; then
    echo "healthy fleet answered degraded" >&2
    exit 1
fi

# Each mode keeps its own error surface: a word no shard knows makes the
# fleet query infeasible (422) but is malformed on one engine (400); the
# coordinator answers /topk 501.
status() { curl -s -o /dev/null -w '%{http_code}' "$@"; }
expect() {
    if [ "$1" != "$2" ]; then
        echo "$3: status $1, want $2" >&2
        exit 1
    fi
}
expect "$(status 'http://127.0.0.1:9470/query?x=500&y=500&kw=nosuchword')" 422 "coordinator unknown word"
expect "$(status 'http://127.0.0.1:9470/topk?x=500&y=500&kw=w000000')" 501 "coordinator /topk"
expect "$(status "http://127.0.0.1:${ports[0]}/query?x=500&y=500&kw=nosuchword")" 400 "shard server unknown word"

# The coordinator serves /batch over the router /query uses: a 200 whose
# item costs are the /query costs of the same queries, digit for digit.
costs() { grep -o '"cost":[^,}]*' | cut -d: -f2; }
batch="$(curl -fsS -X POST -d '{"queries":[
    {"x":500,"y":500,"kw":["w000000","w000001"]},
    {"x":100,"y":900,"kw":["w000002"]},
    {"x":800,"y":200,"kw":["w000000","w000003"]}]}' http://127.0.0.1:9470/batch)"
echo "batch: $batch"
want="$(for q in 'x=500&y=500&kw=w000000,w000001' 'x=100&y=900&kw=w000002' 'x=800&y=200&kw=w000000,w000003'; do
    curl -fsS "http://127.0.0.1:9470/query?$q" | costs
done)"
if [ "$(costs <<<"$batch")" != "$want" ] || [ "$(wc -l <<<"$want")" -ne 3 ]; then
    printf 'coordinator /batch costs:\n%s\n/query costs:\n%s\n' "$(costs <<<"$batch")" "$want" >&2
    exit 1
fi

# The slow log keeps each answer's effort counters and shard calls, and
# a trace only for a request that asked for one: after the plain queries
# above, no entry has one.
slow="$(curl -fsS http://127.0.0.1:9470/debug/slowlog)"
echo "slowlog: $slow"
for key in owners_tried sets_evaluated nodes candidates; do
    grep -q "\"$key\":" <<<"$slow"
done
grep -q '"shards":\[{"shard":"http://127.0.0.1:947' <<<"$slow"
if grep -q '"trace":' <<<"$slow"; then
    echo "untraced query retained a trace" >&2
    exit 1
fi

# An explained query is traced end to end: the shards' fragments, with
# their own nn_probes spans, stitch under the coordinator's RPC spans.
explain="$(curl -fsS 'http://127.0.0.1:9470/query?x=500&y=500&kw=w000000,w000001&explain=1')"
grep -q '"name":"nn:http://127.0.0.1:947' <<<"$explain"
grep -q '"name":"nn_probes"' <<<"$explain"

# The shard data plane every server mounts must agree with the meta the
# coordinator routed on.
curl -fsS "http://127.0.0.1:${ports[0]}/shard/meta" | grep -q '"objects":400'

# The NN leg of the wire a coordinator decodes (internal/shard's Wire*
# types) answers from the real binary with its generation and one hit
# slot per keyword.
nn="$(curl -fsS "http://127.0.0.1:${ports[0]}/shard/nn?x=500&y=500&kw=w000000")"
echo "shard/nn: $nn"
grep -q '"hits":\[{"found":true' <<<"$nn"
grep -q '"gen":' <<<"$nn"

# A flag the chosen mode would ignore is refused at start-up: exit 2,
# naming both flags.
set +e
refusal="$(timeout 10 "$work/coskq-server" -peers "http://127.0.0.1:${ports[0]}" -addr 127.0.0.1:9479 -nn-cache 16 2>&1)"
code=$?
set -e
echo "refusal (exit $code): $refusal"
[ "$code" -eq 2 ]
grep -q -- '-nn-cache' <<<"$refusal"
grep -q -- '-peers' <<<"$refusal"

echo "scatter-gather smoke OK"
