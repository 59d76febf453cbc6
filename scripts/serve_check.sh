#!/usr/bin/env bash
# End-to-end serving check (used by CI): start `repro serve` on a fitted
# archive with 2 scheduler shards, run one HTTP /select, and assert the
# payload is exactly the recommendation `repro select --archive --json`
# prints for the same archive — the service's bit-identity guarantee
# (sharded tier included), checked over the wire.  /statsz must then show
# that the 2 shards run in 2 worker processes outside the server's
# interpreter, and that only the routed shard's worker served a wave.
# The server runs with its own TMPDIR, which must still be empty after a
# SIGTERM: the workers get their knowledge through their pipes.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

WORKLOAD=${1:-spark-lr}
PORT=${2:-8355}
WORKDIR=$(mktemp -d)
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORKDIR"' EXIT

ARCHIVE="$WORKDIR/knowledge.npz"
SERVE_TMPDIR="$WORKDIR/serve-tmp"
mkdir "$SERVE_TMPDIR"

echo "== fit reduced knowledge -> archive =="
python - "$ARCHIVE" <<'PY'
import sys

from repro.cloud.vmtypes import catalog
from repro.core.persistence import save_selector
from repro.core.vesta import VestaSelector
from repro.workloads.catalog import training_set

vesta = VestaSelector(
    vms=catalog()[:10], sources=training_set()[:5], seed=7
).fit()
save_selector(vesta, sys.argv[1])
print(f"archived fingerprint {vesta.knowledge_fingerprint()}")
PY

echo "== baseline: repro select --archive --json =="
python -m repro select "$WORKLOAD" --archive "$ARCHIVE" --json \
    > "$WORKDIR/cli.json"

echo "== expected catalog identity: repro catalog --json =="
python -m repro catalog --json \
    | python -c 'import json,sys; d=json.load(sys.stdin); \
print(json.dumps({"catalog": d["catalog"], \
"catalog_fingerprint": d["catalog_fingerprint"]}))' \
    > "$WORKDIR/cli.json.catalog"

echo "== repro serve --archive --shards 2 + HTTP /select =="
TMPDIR="$SERVE_TMPDIR" python -m repro serve --archive "$ARCHIVE" \
    --port "$PORT" --shards 2 > "$WORKDIR/serve.log" 2>&1 &
SERVER_PID=$!

if ! python - "$WORKLOAD" "$PORT" "$WORKDIR/cli.json" "$SERVER_PID" <<'PY'
import json
import sys
import time
from urllib.error import URLError
from urllib.request import Request, urlopen

workload, port, cli_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
server_pid = int(sys.argv[4])
base = f"http://127.0.0.1:{port}"
for _ in range(120):
    try:
        health = json.load(urlopen(base + "/healthz", timeout=5))
        if health["status"] == "ok":
            break
    except (URLError, OSError):
        time.sleep(0.5)
else:
    sys.exit("service never became healthy")

request = Request(
    base + "/select",
    data=json.dumps({"workload": workload}).encode(),
    headers={"Content-Type": "application/json"},
)
payload = json.load(urlopen(request, timeout=300))
with open(cli_path) as fh:
    expected = json.load(fh)
if payload["recommendation"] != expected:
    sys.exit(
        "HTTP /select diverged from `repro select --json`:\n"
        f"  http: {payload['recommendation']}\n  cli:  {expected}"
    )
stats = json.load(urlopen(base + "/statsz", timeout=5))
print(
    f"HTTP payload == CLI payload: {payload['recommendation']['vm_name']} "
    f"(fingerprint {payload['model']['fingerprint']}, "
    f"served {stats['schedulers']['default']['completed']})"
)
with open(cli_path + ".catalog") as fh:
    served = stats["catalogs"]["default"]
    expected_catalog = json.load(fh)
    if served != expected_catalog:
        sys.exit(
            "served catalog diverged from `repro catalog --json`:\n"
            f"  served:   {served}\n  expected: {expected_catalog}"
        )
print(
    f"served catalog == registry catalog: {served['catalog']} "
    f"({served['catalog_fingerprint']})"
)

rows = stats["schedulers"]["default"]["per_shard"]
backends = [row["backend"] for row in rows]
pids = {backend.get("pid") for backend in backends}
waves = [backend.get("waves") for backend in backends]
expected_waves = [int(i == payload["batch"]["shard"]) for i in range(2)]
if (
    len(rows) != 2
    or any(b["name"] != "pool" or not b.get("alive") for b in backends)
    or len(pids) != 2
    or server_pid in pids
    or waves != expected_waves
):
    sys.exit(
        "--shards 2 did not serve from 2 live worker processes "
        f"(server pid {server_pid}, expected waves {expected_waves}):\n"
        f"  {backends}"
    )
print(
    f"2 shards in worker processes {sorted(pids)} "
    f"(server pid {server_pid}), waves {waves}"
)
PY
then
    echo "---- serve.log ----"
    cat "$WORKDIR/serve.log"
    exit 1
fi

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
if [ -n "$(ls -A "$SERVE_TMPDIR")" ]; then
    echo "repro serve left files in its TMPDIR after SIGTERM:"
    ls -A "$SERVE_TMPDIR"
    exit 1
fi
echo "TMPDIR empty after SIGTERM"
echo "serve check OK"
