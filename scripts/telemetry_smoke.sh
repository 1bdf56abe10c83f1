#!/usr/bin/env bash
# Telemetry smoke test: run a real figure with event tracing and the live
# db-obsd endpoint, scrape /healthz, /metrics and /trace (including four
# concurrent scrapers), then validate the live and the exported trace.
#
# Usage: scripts/telemetry_smoke.sh [OUT_DIR]
# The trace JSON artifacts land in OUT_DIR (default: telemetry-artifacts/).
set -euo pipefail

cd "$(dirname "$0")/.."
OUT_DIR="${1:-telemetry-artifacts}"
ADDR="127.0.0.1:9898"
BASE="http://$ADDR"
mkdir -p "$OUT_DIR"

echo "== build =="
cargo build --release -p db-bench

echo "== figures run with --serve + --trace-out =="
DB_TRACE=1 cargo run --release -p db-bench --bin figures -- \
    --scale quick --out "$OUT_DIR" \
    --serve "$ADDR" --serve-linger 20 \
    --trace-out "$OUT_DIR/figures.trace.json" fig6 \
    > "$OUT_DIR/figures.log" 2>&1 &
FIGURES_PID=$!
trap 'kill "$FIGURES_PID" 2>/dev/null || true' EXIT

echo "== wait for /healthz =="
for i in $(seq 1 60); do
    if curl -sf --max-time 2 "$BASE/healthz" | grep -q ok; then
        break
    fi
    if ! kill -0 "$FIGURES_PID" 2>/dev/null; then
        echo "figures exited before serving:" >&2
        cat "$OUT_DIR/figures.log" >&2
        exit 1
    fi
    if [ "$i" -eq 60 ]; then
        echo "telemetry endpoint never came up" >&2
        exit 1
    fi
    sleep 1
done

echo "== 4 concurrent /metrics scrapes during the run =="
SCRAPE_PIDS=()
for i in 1 2 3 4; do
    (
        for _ in $(seq 1 10); do
            curl -sf --max-time 5 "$BASE/metrics" > "$OUT_DIR/metrics.$i.txt"
            sleep 0.2
        done
    ) &
    SCRAPE_PIDS+=("$!")
done
for pid in "${SCRAPE_PIDS[@]}"; do
    wait "$pid"
done
grep -q '^# TYPE' "$OUT_DIR/metrics.1.txt"
grep -q '_bucket{le="+Inf"}' "$OUT_DIR/metrics.1.txt"
echo "metrics exposition looks sane"

echo "== /trace during the run =="
curl -sf --max-time 30 "$BASE/trace" > "$OUT_DIR/live.trace.json"
python3 - "$OUT_DIR/live.trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert isinstance(events, list) and events, "live trace has no events"
assert all(e["ph"] in ("B", "E", "i") for e in events)
print(f"live trace OK: {len(events)} events")
EOF

echo "== wait for figures to finish =="
wait "$FIGURES_PID"
trap - EXIT
python3 - "$OUT_DIR/figures.trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
names = {e["name"] for e in events}
for expected in ("pipeline.run", "pipeline.compression", "pipeline.start"):
    assert expected in names, f"{expected} missing from the exported trace"
print(f"exported trace OK: {len(events)} events, {len(names)} distinct names")
EOF

echo "== telemetry smoke: all checks passed =="
