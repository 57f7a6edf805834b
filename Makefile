# Convenience targets for the reproduction repository.
#
# Every target that runs repository code sets PYTHONPATH=src, matching
# the tier-1 command (`PYTHONPATH=src python -m pytest -x -q`), so none
# of them silently require an installed package.

PYTHON ?= python
JOBS ?= 1

.PHONY: install test lint lint-all lint-baseline bench perfbench-test sanitize experiments report examples obs-demo trace-demo metrics-demo vector-demo store-demo all

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src/repro

# Everything CI gates: shipped sources plus tests, benchmarks, and
# examples, with known findings subtracted via the checked-in baseline.
lint-all:
	PYTHONPATH=src $(PYTHON) -m repro lint src/repro tests benchmarks examples \
		--baseline lint-baseline.json

# Regenerate the baseline.  Ratchet direction is down: run this to
# shrink the baseline after fixing known findings, never to absorb new
# ones (fix or justify-suppress those instead).
lint-baseline:
	PYTHONPATH=src $(PYTHON) -m repro lint src/repro tests benchmarks examples \
		--baseline lint-baseline.json --update-baseline

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Tests of the repository benchmark (perfbench/, see BENCHMARK.json):
# tiny runs of every workload, traced and untraced, so a renamed or
# removed tracer entry point fails here rather than reading 0.
# perfbench loads src/repro itself, so no PYTHONPATH is needed.
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

# Dual-run determinism sanitizer: re-run every registered experiment
# (small seeded configuration) under perturbed PYTHONHASHSEED / jobs /
# backend and bit-diff the captured tables and telemetry (exit 1 on
# any divergence; the runtime twin of lint rules R3/R6/R7/R11-R13).
# One JSON report per experiment lands in sanitize_reports/.
sanitize:
	mkdir -p sanitize_reports
	ids=$$(PYTHONPATH=src $(PYTHON) -m repro list | awk '/^E[0-9]/ {print $$1}'); \
	test -n "$$ids" || { echo "repro list found no experiments" >&2; exit 1; }; \
	status=0; \
	for id in $$ids; do \
		PYTHONPATH=src $(PYTHON) -m repro sanitize $$id --fast --trials 2 \
			--report sanitize_reports/$$id.json || status=1; \
	done; \
	exit $$status

experiments:
	PYTHONPATH=src $(PYTHON) -m repro run all --jobs $(JOBS)

report:
	PYTHONPATH=src $(PYTHON) -m repro report --output experiments_report.md --jobs $(JOBS)

examples:
	for script in examples/*.py; do PYTHONPATH=src $(PYTHON) $$script || exit 1; done

obs-demo:
	PYTHONPATH=src $(PYTHON) -m repro run E01 --fast --trials 2 --telemetry telemetry.jsonl
	PYTHONPATH=src $(PYTHON) -m repro obs validate telemetry.jsonl
	PYTHONPATH=src $(PYTHON) -m repro obs summary telemetry.jsonl
	PYTHONPATH=src $(PYTHON) -m repro obs anomalies telemetry.jsonl

# Instrumented run with the metrics registry: emit telemetry with
# embedded metric snapshots, then render them (Prometheus text format)
# and diff the file against itself (zero significant deltas expected).
metrics-demo:
	PYTHONPATH=src $(PYTHON) -m repro run E01 --fast --trials 2 \
		--telemetry metrics_demo.jsonl
	PYTHONPATH=src $(PYTHON) -m repro obs summary metrics_demo.jsonl --metrics
	PYTHONPATH=src $(PYTHON) -m repro obs diff metrics_demo.jsonl metrics_demo.jsonl

# The vector engine backend end to end: report which backends this
# environment can run, then run E01 on the columnar kernel (numpy) and
# on the exact engine — the tables must match statistically (Tier B;
# see docs/performance.md "Backends").
vector-demo:
	PYTHONPATH=src $(PYTHON) -m repro --version
	PYTHONPATH=src $(PYTHON) -m repro run E01 --fast --trials 2 --backend vector
	PYTHONPATH=src $(PYTHON) -m repro run E01 --fast --trials 2 --backend exact

# The run store end to end: emit telemetry, ingest it twice (the
# second pass dedups every run — first-write-wins by (config hash,
# seed, code version)), then run a group-by query over the manifest.
store-demo:
	PYTHONPATH=src $(PYTHON) -m repro run E01 --fast --trials 2 \
		--telemetry store_demo.jsonl
	PYTHONPATH=src $(PYTHON) -m repro obs ingest store_demo.jsonl --store runstore
	PYTHONPATH=src $(PYTHON) -m repro obs ingest store_demo.jsonl --store runstore
	PYTHONPATH=src $(PYTHON) -m repro obs query runstore --kind experiment \
		--group-by experiment --stat rows

# Export Chrome-trace/Perfetto timelines for both protocols (load the
# JSON at ui.perfetto.dev or chrome://tracing).
trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro obs export-trace --protocol cogcast \
		--n 12 --c 6 --k 2 --seed 0 -o trace_cogcast.json
	PYTHONPATH=src $(PYTHON) -m repro obs export-trace --protocol cogcomp \
		--n 12 --c 6 --k 2 --seed 0 -o trace_cogcomp.json --spans spans_cogcomp.json

all: lint test bench
