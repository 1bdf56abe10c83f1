#!/usr/bin/env bash
# Streaming-service smoke test: start the `serve` binary, run concurrent
# batched ingests while scraping /label, /stats and /metrics, force a
# budget-bounded recluster, assert the staleness-triggered recluster
# advanced the artifact generation and health stayed serving, then shut
# down cleanly via POST /shutdown. Ingest, absorb and recluster costs are
# timed by perfbench's serve-corel9 workload, not here.
#
# Usage: scripts/serve_smoke.sh [OUT_DIR]
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_DIR="${1:-serve-artifacts}"
ADDR="127.0.0.1:9899"
BASE="http://$ADDR"
mkdir -p "$OUT_DIR"

echo "== build =="
cargo build --release -p db-serve

echo "== start the service =="
./target/release/serve \
    --addr "$ADDR" --n 4000 --k 80 --seed 7 \
    --max-absorbed 600 --deadline-ms 30000 --max-seconds 300 \
    > "$OUT_DIR/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

echo "== wait for /healthz =="
for i in $(seq 1 60); do
    if curl -sf --max-time 2 "$BASE/healthz" | grep -q ok; then
        break
    fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "serve exited before serving:" >&2
        cat "$OUT_DIR/serve.log" >&2
        exit 1
    fi
    if [ "$i" -eq 60 ]; then
        echo "service never came up" >&2
        exit 1
    fi
    sleep 1
done

GEN0=$(curl -sf "$BASE/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["generation"])')
echo "service up, generation $GEN0"

echo "== concurrent batched ingests + query scrapes =="
python3 - "$BASE" "$OUT_DIR" <<'EOF'
import json, random, sys, threading, urllib.request

base, out_dir = sys.argv[1], sys.argv[2]
errors = []

def ingest(worker):
    rng = random.Random(worker)
    try:
        for _ in range(10):
            points = [[rng.uniform(-4, 4), rng.uniform(-4, 4)] for _ in range(40)]
            body = json.dumps({"points": points}).encode()
            req = urllib.request.Request(f"{base}/ingest", data=body, method="POST")
            with urllib.request.urlopen(req, timeout=30) as resp:
                doc = json.loads(resp.read())
                assert doc["accepted"] == 40, doc
    except Exception as e:  # noqa: BLE001 - collect, report at the end
        errors.append(f"ingest worker {worker}: {e!r}")

def scrape(worker):
    try:
        for _ in range(20):
            with urllib.request.urlopen(f"{base}/label?point=0.5,0.5", timeout=10) as resp:
                doc = json.loads(resp.read())
                assert "label" in doc, doc
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
                resp.read()
    except Exception as e:  # noqa: BLE001
        errors.append(f"scrape worker {worker}: {e!r}")

threads = [threading.Thread(target=ingest, args=(w,)) for w in range(4)]
threads += [threading.Thread(target=scrape, args=(w,)) for w in range(2)]
for t in threads: t.start()
for t in threads: t.join()
assert not errors, "\n".join(errors)

with urllib.request.urlopen(f"{base}/stats", timeout=10) as resp:
    stats = json.loads(resp.read())
json.dump(stats, open(f"{out_dir}/stats_after_ingest.json", "w"), indent=2)
# 4 workers x 10 batches x 40 points on top of the 4000-point bootstrap.
assert stats["n_objects"] == 4000 + 1600, stats
print(f"ingested to n_objects={stats['n_objects']}, generation={stats['generation']}")
EOF

echo "== staleness-triggered recluster advanced the generation =="
python3 - "$BASE" "$GEN0" <<'EOF'
import json, sys, time, urllib.request
base, gen0 = sys.argv[1], int(sys.argv[2])
# 1600 absorbed > --max-absorbed 600: a background recluster must have
# been triggered; give it a moment to install.
for _ in range(100):
    with urllib.request.urlopen(f"{base}/stats", timeout=10) as resp:
        stats = json.loads(resp.read())
    if stats["generation"] > gen0 and not stats["recluster_in_flight"]:
        print(f"generation advanced {gen0} -> {stats['generation']}")
        break
    time.sleep(0.2)
else:
    raise SystemExit(f"generation never advanced past {gen0}: {stats}")
EOF

echo "== forced budget-bounded recluster =="
curl -sf -X POST "$BASE/recluster" | grep -q recluster_generation
python3 - "$BASE" <<'EOF'
import json, sys, time, urllib.request
base = sys.argv[1]
req = urllib.request.Request(f"{base}/recluster", data=b"", method="POST")
with urllib.request.urlopen(req, timeout=10) as resp:
    forced = json.loads(resp.read())["recluster_generation"]
for _ in range(100):
    with urllib.request.urlopen(f"{base}/stats", timeout=10) as resp:
        stats = json.loads(resp.read())
    if stats["generation"] >= forced:
        print(f"forced recluster {forced} installed")
        break
    time.sleep(0.2)
else:
    raise SystemExit(f"forced recluster {forced} never installed: {stats}")
EOF

echo "== health stayed serving =="
HEALTH=$(curl -sf "$BASE/healthz")
echo "healthz: $HEALTH"
echo "$HEALTH" | grep -Eq 'ok|degraded'

echo "== typed rejection leaves the service serving =="
STATUS=$(curl -s -o "$OUT_DIR/reject.json" -w '%{http_code}' -X POST \
    -d '{"points": [[1.0, 2.0, 3.0]]}' "$BASE/ingest")
[ "$STATUS" = "422" ] || { echo "expected 422 for a 3-d point, got $STATUS" >&2; exit 1; }
grep -q rejected "$OUT_DIR/reject.json"
curl -sf "$BASE/label?point=0.0,0.0" | grep -q label

echo "== serve.* metrics are exported =="
curl -sf "$BASE/metrics" > "$OUT_DIR/metrics.txt"
grep -q 'serve_ingest_points' "$OUT_DIR/metrics.txt"
grep -q 'serve_recluster_started' "$OUT_DIR/metrics.txt"

echo "== clean shutdown via POST /shutdown =="
curl -sf -X POST -d '' "$BASE/shutdown" | grep -q "shutting down"
for i in $(seq 1 50); do
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        break
    fi
    if [ "$i" -eq 50 ]; then
        echo "service did not exit after /shutdown" >&2
        exit 1
    fi
    sleep 0.2
done
trap - EXIT
grep -q "bye" "$OUT_DIR/serve.log"
echo "service exited cleanly"

echo "== serve smoke: all checks passed =="
