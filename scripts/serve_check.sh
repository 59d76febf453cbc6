#!/usr/bin/env bash
# End-to-end serving check (used by CI): start `repro serve` on a fitted
# archive with 2 scheduler shards, run one HTTP /select, and assert the
# payload is exactly the recommendation `repro select --archive --json`
# prints for the same archive — the service's bit-identity guarantee
# (sharded tier included), checked over the wire.  /statsz must then show
# that the 2 shards run in 2 worker processes outside the server's
# interpreter, and that only the routed shard's worker served a wave.
# `HEAD /healthz` must answer 200 with GET's Content-Length and no body.
# The server runs with its own TMPDIR, which must still be empty after a
# SIGTERM (the workers get their knowledge through their pipes); the
# SIGTERM must also end the server cleanly: exit status 0, no traceback
# in its log.
#
# The check runs twice: once clean, once with a REPRO_FAULT_* plan
# restricted to the checked workload exported to both commands.  The
# faulted answer must still equal the CLI payload, fault events included,
# and carry at least one fault event (the plan's seed 6 gives spark-lr 11
# events and one permanently lost probe).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

WORKLOAD=${1:-spark-lr}
PORT=${2:-8355}
WORKDIR=$(mktemp -d)
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORKDIR"' EXIT

ARCHIVE="$WORKDIR/knowledge.npz"

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

echo "== expected catalog identity: repro catalog --json =="
python -m repro catalog --json \
    | python -c 'import json,sys; d=json.load(sys.stdin); \
print(json.dumps({"catalog": d["catalog"], \
"catalog_fingerprint": d["catalog_fingerprint"]}))' \
    > "$WORKDIR/catalog.json"

# check_leg NAME MIN_FAULT_EVENTS: one CLI-vs-HTTP comparison against a
# fresh `repro serve --shards 2`, then a SIGTERM and the shutdown checks.
check_leg() {
    local name=$1 min_events=$2
    local leg="$WORKDIR/$name"
    mkdir -p "$leg/serve-tmp"

    echo "== [$name] baseline: repro select --archive --json =="
    python -m repro select "$WORKLOAD" --archive "$ARCHIVE" --json \
        > "$leg/cli.json"

    echo "== [$name] repro serve --archive --shards 2 + HTTP /select =="
    TMPDIR="$leg/serve-tmp" python -m repro serve --archive "$ARCHIVE" \
        --port "$PORT" --shards 2 > "$leg/serve.log" 2>&1 &
    SERVER_PID=$!

    if ! python - "$WORKLOAD" "$PORT" "$leg/cli.json" "$SERVER_PID" \
        "$WORKDIR/catalog.json" "$min_events" <<'PY'
import json
import socket
import sys
import time
from urllib.error import URLError
from urllib.request import Request, urlopen

workload, port, cli_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
server_pid, catalog_path = int(sys.argv[4]), sys.argv[5]
min_events = int(sys.argv[6])
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

# HEAD: GET's head, no body (read raw: urllib never reads a HEAD body).
get_length = len(urlopen(base + "/healthz", timeout=5).read())
reply = b""
with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
    sock.sendall(
        b"HEAD /healthz HTTP/1.1\r\nHost: check\r\nConnection: close\r\n\r\n"
    )
    while chunk := sock.recv(65536):
        reply += chunk
head, _, body = reply.partition(b"\r\n\r\n")
if (
    head.split()[1] != b"200"
    or body
    or f"Content-Length: {get_length}\r\n".encode() not in head + b"\r\n"
):
    sys.exit(f"HEAD /healthz: expected GET's 200 head and no body, got {reply!r}")
print(f"HEAD /healthz: 200, Content-Length {get_length}, no body")

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
events = len(payload["recommendation"]["fault_events"])
if events < min_events:
    sys.exit(f"HTTP /select carried {events} fault events, expected >= {min_events}")
stats = json.load(urlopen(base + "/statsz", timeout=5))
print(
    f"HTTP payload == CLI payload: {payload['recommendation']['vm_name']} "
    f"(fingerprint {payload['model']['fingerprint']}, {events} fault events, "
    f"served {stats['schedulers']['default']['completed']})"
)
with open(catalog_path) as fh:
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
        cat "$leg/serve.log"
        exit 1
    fi

    kill -TERM "$SERVER_PID"
    local status=0
    wait "$SERVER_PID" || status=$?
    SERVER_PID=""
    if [ "$status" -ne 0 ] || grep -q Traceback "$leg/serve.log"; then
        echo "repro serve did not stop cleanly on SIGTERM (exit $status):"
        cat "$leg/serve.log"
        exit 1
    fi
    echo "SIGTERM: exit 0, no traceback in the log"
    if [ -n "$(ls -A "$leg/serve-tmp")" ]; then
        echo "repro serve left files in its TMPDIR after SIGTERM:"
        ls -A "$leg/serve-tmp"
        exit 1
    fi
    echo "TMPDIR empty after SIGTERM"
}

check_leg clean 0

export REPRO_FAULT_TRANSIENT=0.2 REPRO_FAULT_ATTEMPTS=3 REPRO_FAULT_SEED=6
export REPRO_FAULT_WORKLOADS="$WORKLOAD"
check_leg faulted 1

echo "serve check OK"
