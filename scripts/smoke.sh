#!/usr/bin/env bash
# Smoke target: the tier-1 suite, then the perf benches and examples.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

echo "== tier-1 suite =="
python -m pytest -x -q

echo "== archive CLI (v1/v2 fixtures load; broken metadata is one error line) =="
for fixture in vesta_v1.npz vesta_v2_ec2.npz; do
    python -m repro select --archive "tests/data/$fixture" spark-lr --json \
        | python -c 'import json, sys; assert isinstance(json.load(sys.stdin), dict)'
done
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
python - "$tmp/broken.npz" <<'EOF'
import json, sys

import numpy as np

with np.load("tests/data/vesta_v2_ec2.npz") as data:
    arrays = {key: data[key] for key in data.files}
meta = json.loads(bytes(arrays["meta"]).decode())
del meta["hyperparams"]
arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
np.savez_compressed(sys.argv[1], **arrays)
EOF
status=0
python -m repro select --archive "$tmp/broken.npz" spark-lr --json \
    > /dev/null 2> "$tmp/stderr" || status=$?
if [ "$status" -ne 1 ] || [ "$(wc -l < "$tmp/stderr")" -ne 1 ]; then
    echo "broken archive: exit $status, stderr:" >&2
    cat "$tmp/stderr" >&2
    exit 1
fi

echo "== warm artifact store (same bytes; every cached stage reused) =="
python -m repro select spark-lr --store "$tmp/s.sqlite" --json > "$tmp/cold.json"
python -m repro select spark-lr --store "$tmp/s.sqlite" --json > "$tmp/warm.json"
if ! cmp -s "$tmp/cold.json" "$tmp/warm.json"; then
    echo "warm-store select answered other bytes than the cold one:" >&2
    diff "$tmp/cold.json" "$tmp/warm.json" >&2 || true
    exit 1
fi
reused=$(python -m repro select spark-lr --store "$tmp/s.sqlite" \
    | sed -n 's/^ *stages reused from store: //p')
for stage in perf_matrix corr_signatures feature_selection labels_u affinity_v source_factors; do
    case ", $reused, " in
        *", $stage, "*) ;;
        *) echo "warm store did not reuse $stage (reused: ${reused:-nothing})" >&2
           exit 1 ;;
    esac
done

echo "== simulator core (batch of 64 cells vs scalar loop) =="
python -m pytest -q benchmarks/bench_perf_simulator.py

echo "== staged pipeline refit (warm-store >= 3x cold) =="
python -m pytest -q benchmarks/bench_perf_refit.py

echo "== online serving (fold-in >= 3x, select_many >= 2x) =="
python -m pytest -q benchmarks/bench_perf_online.py

echo "== selection service (>= 2x sequential; 2-shard row not slower) =="
python -m pytest -q benchmarks/bench_serve_throughput.py

echo "== knowledge lifecycle (gated growth: regret <= frozen) =="
python -m pytest -q benchmarks/bench_ext_lifecycle.py

echo "== multi-cloud catalogs (EC2 vs Azure side by side) =="
python examples/multi_cloud.py

echo "smoke OK"
