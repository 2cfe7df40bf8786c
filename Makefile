# Convenience targets for the PalimpChat reproduction.

.PHONY: install test experiments bench-smoke lint lint-concurrency serve server-smoke telemetry trace runs examples all clean

install:
	pip install -e . || python setup.py develop

test:
	python -m pytest tests/

# One pytest-benchmark module per paper artifact (E1-E13), in simulated
# units; scripts/collect_results.py prints what feeds EXPERIMENTS.md.
experiments:
	python -m pytest experiments/ --benchmark-only

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

# Concurrency & determinism lint (CC5xx only) over the engine source:
# guarded-by discipline, dead locks, worker writes, nondeterminism sources.
# --strict because the family's warnings (CC502/CC506/CC507) are real bugs.
lint-concurrency:
	PYTHONPATH=src python -m repro lint --family CC --strict src/repro

# Record a demo execution trace, print the critical-path analysis, and
# validate the exported Chrome trace_event JSON.
trace:
	PYTHONPATH=src python -m repro trace --workers 2 --batch-size 2 \
		--view critical-path --output /tmp/repro-trace.json
	python scripts/validate_trace.py /tmp/repro-trace.json

# Record two demo runs (different policies) into a scratch registry,
# validate their provenance graphs, and print the run diff.
runs:
	PYTHONPATH=src python -m repro runs record --policy quality \
		--runs-dir /tmp/repro-runs
	PYTHONPATH=src python -m repro runs record --policy cost \
		--runs-dir /tmp/repro-runs
	PYTHONPATH=src python scripts/validate_trace.py --kind provenance \
		/tmp/repro-runs/run-0001/provenance.json
	PYTHONPATH=src python -m repro runs diff --runs-dir /tmp/repro-runs

examples:
	python examples/quickstart.py
	python examples/scientific_discovery.py
	python examples/chat_scientific_discovery.py
	python examples/legal_discovery.py
	python examples/real_estate_search.py
	python examples/policy_tradeoffs.py
	python examples/dataset_catalog_join.py
	python examples/advanced_features.py

all: lint test experiments

clean:
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
