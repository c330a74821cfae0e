#!/bin/sh
# Tier-1 continuous integration: API surface guard + full test suite.
#
#     sh scripts/ci.sh
set -e
cd "$(dirname "$0")/.."

echo "== repro.api surface =="
python scripts/check_api_surface.py --strict

echo "== shipped NPN database =="
PYTHONPATH=src python scripts/build_npn_database.py --check

echo "== benchmark trend =="
PYTHONPATH=src python scripts/bench_trend.py --check

echo "== structured log schema =="
PYTHONPATH=src python scripts/check_log_schema.py

echo "== learn dataset/model schema =="
PYTHONPATH=src python scripts/check_learn_schema.py

echo "== design service smoke =="
PYTHONPATH=src python scripts/service_smoke.py

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q
