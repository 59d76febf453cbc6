#!/usr/bin/env bash
# Smoke target: the tier-1 suite, then the perf benches and examples.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

echo "== tier-1 suite =="
python -m pytest -x -q

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
