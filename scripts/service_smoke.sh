#!/usr/bin/env sh
# service_smoke.sh — end-to-end smoke test of the compile service.
#
# Builds and starts reticle-serve on a local port, then drives the real
# HTTP surface the way a client would: /healthz must answer, the first
# /compile of a kernel must be a cache miss, the second must be a cache
# hit with the same bytes apart from the cache mark (each one frame with
# its Content-Length), and SIGTERM must drain cleanly. CI
# runs this so "the service binary actually serves" is checked per PR,
# not just the in-process httptest suites.
#
# Usage: scripts/service_smoke.sh [port]
# The port defaults to $RETICLE_SMOKE_PORT, then 18080, so CI jobs that
# run several smoke scripts side by side can pin disjoint ports without
# editing argument lists.
set -eu

cd "$(dirname "$0")/.."
port="${1:-${RETICLE_SMOKE_PORT:-18080}}"
base="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
pid=""

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
    echo "service_smoke: FAIL: $*" >&2
    [ -f "$tmp/serve.log" ] && sed 's/^/service_smoke: serve: /' "$tmp/serve.log" >&2
    exit 1
}

go build -o "$tmp/reticle-serve" ./cmd/reticle-serve
"$tmp/reticle-serve" -addr "127.0.0.1:$port" >"$tmp/serve.log" 2>&1 &
pid=$!

# Wait for the listener (bounded).
i=0
until curl -fsS "$base/healthz" >"$tmp/health.json" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -ge 50 ] && fail "server did not come up on $base"
    kill -0 "$pid" 2>/dev/null || fail "server exited early"
    sleep 0.2
done
grep -q '"status":"ok"' "$tmp/health.json" || fail "healthz: $(cat "$tmp/health.json")"
grep -q 'ultrascale' "$tmp/health.json" || fail "healthz missing families: $(cat "$tmp/health.json")"

cat >"$tmp/req.json" <<'JSON'
{"ir": "def macc(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {\n    t0:i8 = mul(a, b) @??;\n    t1:i8 = add(t0, c) @??;\n    y:i8 = reg[0](t1, en) @??;\n}", "family": "ultrascale"}
JSON

curl -fsS -D "$tmp/first.hdr" -X POST --data-binary @"$tmp/req.json" "$base/compile" >"$tmp/first.json" \
    || fail "first /compile failed"
curl -fsS -X POST --data-binary @"$tmp/first.json" "$base/compile" >/dev/null 2>&1 \
    && fail "garbage request accepted" || true
curl -fsS -D "$tmp/second.hdr" -X POST --data-binary @"$tmp/req.json" "$base/compile" >"$tmp/second.json" \
    || fail "second /compile failed"
# A /compile 200 is one frame with its length announced, miss or hit, and
# the hit is the miss's bytes apart from the cache mark.
for hdr in first second; do
    grep -qi '^content-length:' "$tmp/$hdr.hdr" || fail "$hdr /compile 200 without Content-Length: $(cat "$tmp/$hdr.hdr")"
done
sed 's/"cache":"miss"/"cache":"hit"/' "$tmp/first.json" | cmp -s - "$tmp/second.json" \
    || fail "hit body differs from the miss body in more than the cache field"

extract() { # extract <field> <file> <out>
    python3 -c '
import json, sys
doc = json.load(open(sys.argv[2]))
field = sys.argv[1]
if field == "cache":
    print(doc["cache"])
else:
    sys.stdout.write(doc["artifact"][field])
' "$1" "$2" >"$3"
}

extract cache "$tmp/first.json" "$tmp/first.cache"
extract cache "$tmp/second.json" "$tmp/second.cache"
[ "$(cat "$tmp/first.cache")" = "miss" ] || fail "first compile was '$(cat "$tmp/first.cache")', want miss"
[ "$(cat "$tmp/second.cache")" = "hit" ] || fail "second compile was '$(cat "$tmp/second.cache")', want hit"

extract verilog "$tmp/first.json" "$tmp/first.v"
extract verilog "$tmp/second.json" "$tmp/second.v"
cmp -s "$tmp/first.v" "$tmp/second.v" || fail "hit Verilog differs from miss Verilog"
[ -s "$tmp/first.v" ] || fail "empty Verilog artifact"

curl -fsS "$base/stats" >"$tmp/stats.json" || fail "/stats failed"
grep -q '"hits":1' "$tmp/stats.json" || fail "stats did not record the hit: $(cat "$tmp/stats.json")"

# Graceful drain: SIGTERM must exit 0 after closing the listener.
kill -TERM "$pid"
wait "$pid" || fail "server did not drain cleanly on SIGTERM"
pid=""

# Load-shed probe: restart with admission control bounded and the
# admission fault armed for exactly one request (RETICLE_FAULTS, the
# operational chaos channel). The first request must shed with 429 +
# Retry-After and the stable machine code; the second, with the fault
# consumed, must compile normally — shedding is per-request, not
# sticky.
RETICLE_FAULTS='server/admission=exhausted:1' \
    "$tmp/reticle-serve" -addr "127.0.0.1:$port" -max-inflight 1 >"$tmp/serve.log" 2>&1 &
pid=$!
i=0
until curl -fsS "$base/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 50 ] && fail "load-shed server did not come up on $base"
    kill -0 "$pid" 2>/dev/null || fail "load-shed server exited early"
    sleep 0.2
done

grep -q 'RETICLE_FAULTS armed: server/admission$' "$tmp/serve.log" \
    || fail "no startup line for the armed fault point"

curl -sS -D "$tmp/shed.hdr" -o "$tmp/shed.json" -X POST \
    --data-binary @"$tmp/req.json" "$base/compile" || fail "shed probe request failed"
grep -q '429' "$tmp/shed.hdr" || fail "shed probe status: $(head -1 "$tmp/shed.hdr")"
grep -qi '^retry-after:' "$tmp/shed.hdr" || fail "429 without Retry-After: $(cat "$tmp/shed.hdr")"
grep -q '"error_code":"admission_rejected"' "$tmp/shed.json" \
    || fail "shed body missing admission_rejected: $(cat "$tmp/shed.json")"
grep -q '"class":"resource-exhausted"' "$tmp/shed.json" \
    || fail "shed body missing class: $(cat "$tmp/shed.json")"

curl -fsS -X POST --data-binary @"$tmp/req.json" "$base/compile" >"$tmp/after.json" \
    || fail "post-shed /compile failed"
grep -q '"cache":"miss"' "$tmp/after.json" || fail "post-shed compile: $(cat "$tmp/after.json")"

kill -TERM "$pid"
wait "$pid" || fail "load-shed server did not drain cleanly on SIGTERM"
pid=""

# Mistyped drills: a bad class disables env injection and an unknown
# point arms nothing that fires. Neither is fatal (chaos tooling must not
# take a server down by typo), so each must say so in one startup line —
# otherwise the drill "passes" by injecting nothing.
for probe in \
    'server/admission=exhuasted|RETICLE_FAULTS ignored: .*unknown class "exhuasted"' \
    'server/admision=exhausted|will never fire: server/admision$'; do
    RETICLE_FAULTS="${probe%%|*}" \
        "$tmp/reticle-serve" -addr "127.0.0.1:$port" -max-inflight 1 >"$tmp/serve.log" 2>&1 &
    pid=$!
    i=0
    until curl -fsS "$base/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 50 ] && fail "server with RETICLE_FAULTS='${probe%%|*}' did not come up on $base"
        kill -0 "$pid" 2>/dev/null || fail "server with RETICLE_FAULTS='${probe%%|*}' exited early"
        sleep 0.2
    done
    grep -q "${probe#*|}" "$tmp/serve.log" || fail "no startup line matching '${probe#*|}'"
    curl -fsS -X POST --data-binary @"$tmp/req.json" "$base/compile" >/dev/null \
        || fail "RETICLE_FAULTS='${probe%%|*}' injected a fault"
    kill -TERM "$pid"
    wait "$pid" || fail "server did not drain cleanly on SIGTERM"
    pid=""
done

# Self-healing probe: fill a disk cache, corrupt the artifact on disk
# (flip one byte — a torn write, a failing sector), and restart over
# the same directory with -scrub-on-start. The startup scrub must
# quarantine the rotten entry, and the recompile must serve a clean
# artifact — never a 5xx, never the corrupt bytes.
"$tmp/reticle-serve" -addr "127.0.0.1:$port" -disk "$tmp/disk" >"$tmp/serve.log" 2>&1 &
pid=$!
i=0
until curl -fsS "$base/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 50 ] && fail "disk server did not come up on $base"
    sleep 0.2
done
curl -fsS -X POST --data-binary @"$tmp/req.json" "$base/compile" >"$tmp/seed.json" \
    || fail "disk seed /compile failed"
kill -TERM "$pid"
wait "$pid" || fail "disk server did not drain cleanly"
pid=""

artifact_file="$(find "$tmp/disk" -maxdepth 1 -type f -name '*.seg' | head -1)"
[ -n "$artifact_file" ] || fail "no segment file on disk after seed compile"
# Flip the last byte of the segment: the payload tail of its one record.
python3 -c '
import sys
path = sys.argv[1]
raw = bytearray(open(path, "rb").read())
raw[-1] ^= 0x40
open(path, "wb").write(bytes(raw))
' "$artifact_file"

"$tmp/reticle-serve" -addr "127.0.0.1:$port" -disk "$tmp/disk" -scrub-on-start \
    >"$tmp/serve.log" 2>&1 &
pid=$!
i=0
until curl -fsS "$base/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 50 ] && fail "scrub server did not come up on $base"
    sleep 0.2
done
# The startup scrub runs in the background; wait for it to quarantine.
i=0
until curl -fsS "$base/stats" | grep -q '"disk_quarantined":1'; do
    i=$((i + 1))
    [ "$i" -ge 50 ] && fail "startup scrub never quarantined the corrupt entry: $(curl -fsS "$base/stats")"
    sleep 0.2
done
[ -d "$tmp/disk/quarantine" ] || fail "no quarantine directory after scrub"
curl -fsS -X POST --data-binary @"$tmp/req.json" "$base/compile" >"$tmp/healed.json" \
    || fail "post-corruption /compile failed"
grep -q '"verilog":' "$tmp/healed.json" || fail "healed compile has no artifact: $(cat "$tmp/healed.json")"
extract verilog "$tmp/healed.json" "$tmp/healed.v"
cmp -s "$tmp/first.v" "$tmp/healed.v" || fail "healed Verilog differs from the original"

kill -TERM "$pid"
wait "$pid" || fail "scrub server did not drain cleanly on SIGTERM"
pid=""

echo "service_smoke: OK (miss -> hit, identical artifact, 429 load shed, fault-spec startup lines, corrupt entry quarantined + healed, clean drain)"
