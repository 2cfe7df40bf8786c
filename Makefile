# Convenience targets for the PalimpChat reproduction.

.PHONY: install test bench-smoke lint lint-concurrency serve server-smoke telemetry trace runs examples all clean

install:
	pip install -e . || python setup.py develop

# Tier-1: every test, including the paper's E1-E13 claims
# (tests/test_paper_claims.py, pinned to EXPERIMENTS.md).
test:
	PYTHONPATH=src python -m pytest -x -q

# The wall-clock benchmark (BENCHMARK.json) at reduced size, both modes,
# plus its metric-name check (~20 s).  bench/ reaches into the engine by
# import path, class (`execute` wrapped per executor class) and constructor
# keyword, so this is what keeps an engine refactor from breaking it.
bench-smoke:
	python3 bench/run.py --smoke

# The multi-tenant chat service (stdlib HTTP; see docs/server.md).
serve:
	PYTHONPATH=src python -m repro serve

# Boot the server on an ephemeral port and drive two tenants through
# chat -> execute -> results, asserting isolation + quota semantics.
server-smoke:
	PYTHONPATH=src python scripts/server_smoke.py

# Operational telemetry end-to-end: Prometheus exposition grammar,
# the JSON metrics snapshot, /healthz SLO verdicts, /version, and
# request-id correlation through the structured JSONL log.
telemetry:
	PYTHONPATH=src python scripts/validate_metrics.py

# Static analysis: demo pipelines, registered chat tools, example programs.
lint:
	PYTHONPATH=src python -m repro lint examples

# Determinism lint (CC504-CC507) over src/repro: wall-clock reads, entropy,
# id() leaks, unordered iteration.  Tier-1 runs the same sweep once
# (tests/test_analysis_cli.py::test_family_cc_clean_on_engine_source).
# --strict because the family's warnings (CC506/CC507) are real bugs.
lint-concurrency:
	PYTHONPATH=src python -m repro lint --family CC --strict src/repro

# Record a demo execution trace, print the critical-path analysis, and
# validate the exported Chrome trace_event JSON.
trace:
	PYTHONPATH=src python -m repro trace --workers 2 --batch-size 2 \
		--view critical-path --output /tmp/repro-trace.json
	python scripts/validate_trace.py /tmp/repro-trace.json

# Record two demo runs (different policies) into a scratch registry and
# print the run diff.
runs:
	PYTHONPATH=src python -m repro runs record --policy quality \
		--runs-dir /tmp/repro-runs
	PYTHONPATH=src python -m repro runs record --policy cost \
		--runs-dir /tmp/repro-runs
	PYTHONPATH=src python -m repro runs diff --runs-dir /tmp/repro-runs

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/scientific_discovery.py
	PYTHONPATH=src python examples/chat_scientific_discovery.py
	PYTHONPATH=src python examples/legal_discovery.py
	PYTHONPATH=src python examples/real_estate_search.py
	PYTHONPATH=src python examples/policy_tradeoffs.py
	PYTHONPATH=src python examples/dataset_catalog_join.py
	PYTHONPATH=src python examples/advanced_features.py

all: lint test

clean:
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
