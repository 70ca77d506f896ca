# Repo tooling. Everything runs from a source checkout (PYTHONPATH=src),
# no installation required.

PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

.PHONY: test bench-smoke adaptive-smoke net-smoke store-smoke phy-smoke bench docs-check docs-links sweeps protocols protocol-coverage check ci

## tier-1 test suite (fast, deterministic) -- must stay green
test:
	$(PYTHON) -m pytest -x -q

## seconds-long end-to-end check of the experiment orchestrator:
## one tiny sweep through workers, cache and export, under pytest
bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_s0_orchestrator_smoke.py

## seconds-long end-to-end check of adaptive seed replication: the
## smoke_adaptive sweep through per-point CI stopping, plus the
## zero-executions-on-warm-cache invariant, under pytest
adaptive-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_s1_adaptive_smoke.py

## seconds-long churn drill for the tcp executor: the smoke grid
## drained over TCP by two externally attached --connect workers, one
## of them SIGKILLed mid-sweep; the artifacts must byte-match a
## process-executor run and a warm re-run must execute nothing
net-smoke:
	$(PYTHON) scripts/net_smoke.py

## seconds-long end-to-end check of the result-store backends: the
## smoke grid run against a sqlite store must export CSV/JSON artifacts
## byte-identical to a json-store run, a warm sqlite re-run must execute
## nothing, migrate must round-trip the cache between backends, and the
## store benchmark logs the json-vs-sqlite batch-scan ratio
STORE_SMOKE_DIR := .ci/store-smoke
store-smoke:
	rm -rf $(STORE_SMOKE_DIR)
	$(PYTHON) -m repro.experiments run smoke \
	  --cache-dir $(STORE_SMOKE_DIR)/json-cache --out $(STORE_SMOKE_DIR)/json
	$(PYTHON) -m repro.experiments run smoke \
	  --cache-dir sqlite:$(STORE_SMOKE_DIR)/cache.db --out $(STORE_SMOKE_DIR)/sqlite
	cmp $(STORE_SMOKE_DIR)/json/smoke.csv $(STORE_SMOKE_DIR)/sqlite/smoke.csv
	$(PYTHON) -m repro.experiments run smoke \
	  --cache-dir sqlite:$(STORE_SMOKE_DIR)/cache.db --format none 2>&1 \
	  | grep -q "done: 12 cached + 0 executed" \
	  || { echo "store gate: warm sqlite re-run executed runs (expected 0)"; exit 1; }
	$(PYTHON) -m repro.experiments migrate \
	  --from sqlite:$(STORE_SMOKE_DIR)/cache.db --to $(STORE_SMOKE_DIR)/migrated
	$(PYTHON) -m repro.experiments export smoke \
	  --cache-dir $(STORE_SMOKE_DIR)/migrated --out $(STORE_SMOKE_DIR)/migrated-out
	cmp $(STORE_SMOKE_DIR)/sqlite/smoke.csv $(STORE_SMOKE_DIR)/migrated-out/smoke.csv
	$(PYTHON) scripts/store_bench.py
	@echo "make store-smoke: OK (byte-identical artifacts across stores, warm sqlite replay, migrate round-trip)"

## seconds-long end-to-end check of the physical layer: the phy_smoke
## sweep (one run per registered radio x MAC combination, sinr and
## csma_ca included), a warm re-run that must execute nothing, the
## physics-fingerprint regression suite (golden metric rows, cache-key
## digests, artifact hashes) and the protocol-fingerprint suite (one
## golden scenario per registered protocol, HVDB at 100 nodes)
PHY_SMOKE_DIR := .ci/phy-smoke
phy-smoke:
	rm -rf $(PHY_SMOKE_DIR)
	$(PYTHON) -m repro.experiments run phy_smoke \
	  --cache-dir $(PHY_SMOKE_DIR)/cache --out $(PHY_SMOKE_DIR)/out
	$(PYTHON) -m repro.experiments run phy_smoke \
	  --cache-dir $(PHY_SMOKE_DIR)/cache --format none 2>&1 \
	  | grep -q "+ 0 executed" \
	  || { echo "phy gate: warm re-run executed runs (expected 0)"; exit 1; }
	$(PYTHON) -m pytest -q tests/test_phy_fingerprint.py tests/test_protocol_fingerprint.py
	@echo "make phy-smoke: OK (3x3 radio/MAC grid, warm zero-exec replay, phy and protocol fingerprints match golden)"

## full benchmark suite regenerating the paper's evaluation and
## asserting its qualitative claims (minutes); the files are named
## bench_*.py, which pytest does not collect from a bare directory
bench:
	$(PYTHON) -m pytest -q benchmarks/bench_*.py

## documentation consistency: the docs suite exists, intra-repo links
## resolve, README + docs/ match the shipped CLI, quoted sweep/make
## commands reference real things, package docstrings match exports
docs-check:
	$(PYTHON) scripts/check_docs.py

## just the intra-repo link check (the dedicated CI step)
docs-links:
	$(PYTHON) scripts/check_docs.py --links

## list the registered experiment sweeps
sweeps:
	$(PYTHON) -m repro.experiments list

## list registered protocol stacks / radios / MACs / mobility models
protocols:
	$(PYTHON) -m repro.experiments protocols

## CI gate: every registered protocol must be exercised by a registered sweep
protocol-coverage:
	$(PYTHON) -m repro.experiments protocols --check-coverage

## everything a PR must keep green
check: test bench-smoke adaptive-smoke net-smoke store-smoke phy-smoke docs-check protocol-coverage

## reproduce the CI pipeline (.github/workflows/ci.yml) locally:
## tier-1 tests, docs consistency (links included), the smoke sweep
## split across three share-nothing shards, a merge that must
## reassemble the full grid, a wall-time diff against the committed
## baseline (loose tolerance across machines) plus a strict gate on a
## synthetic 2x regression, the adaptive smoke sweep (run, a
## warm-cache re-run that must execute zero runs, and a cache-only
## export whose CSV must byte-match the live run's), the tcp-executor
## churn drill (a --connect worker SIGKILLed mid-sweep,
## byte-identical artifacts anyway), the result-store smoke (sqlite vs
## json byte-equality + migrate), the physical-layer smoke (3x3
## radio/MAC grid, warm zero-exec replay, golden fingerprints), and a
## perf-trend append judged against the trailing window (the CI
## paper-claims job is `make bench`, kept out of here for its minutes)
CI_DIR := .ci
ci: test docs-check protocol-coverage
	rm -rf $(CI_DIR)
	for i in 1 2 3; do \
	  $(PYTHON) -m repro.experiments run smoke --shard $$i/3 \
	    --cache-dir $(CI_DIR)/shard$$i --format none || exit 1; \
	done
	$(PYTHON) -m repro.experiments merge smoke --cache-dir $(CI_DIR)/merged \
	  --from $(CI_DIR)/shard1 --from $(CI_DIR)/shard2 --from $(CI_DIR)/shard3 \
	  --out $(CI_DIR)/artifacts
	$(PYTHON) -m repro.experiments perf smoke \
	  --baseline benchmarks/baselines/BENCH_smoke.json \
	  --current $(CI_DIR)/artifacts/smoke.json \
	  --tolerance 10 --report $(CI_DIR)/perf-report.json
	$(PYTHON) -c "import json; doc = json.load(open('$(CI_DIR)/artifacts/smoke.json')); \
	  [r.__setitem__('wall_time', r['wall_time'] * 2.0) for r in doc['results']]; \
	  json.dump(doc, open('$(CI_DIR)/artifacts/smoke-2x.json', 'w'))"
	$(PYTHON) -m repro.experiments perf smoke \
	  --baseline $(CI_DIR)/artifacts/smoke.json \
	  --current $(CI_DIR)/artifacts/smoke-2x.json --tolerance 0.5; \
	  status=$$?; if [ $$status -ne 1 ]; then \
	    echo "perf gate: expected exit 1 (regression) on the synthetic 2x slowdown, got $$status"; exit 1; fi
	$(PYTHON) -m repro.experiments run smoke_adaptive \
	  --cache-dir $(CI_DIR)/adaptive --out $(CI_DIR)/adaptive-out
	$(PYTHON) -m repro.experiments run smoke_adaptive \
	  --cache-dir $(CI_DIR)/adaptive --format none \
	  | grep -q "; 0 executed +" \
	  || { echo "adaptive gate: warm-cache re-run executed runs (expected 0)"; exit 1; }
	$(PYTHON) -m repro.experiments export smoke_adaptive \
	  --cache-dir $(CI_DIR)/adaptive --out $(CI_DIR)/adaptive-export
	cmp $(CI_DIR)/adaptive-out/smoke_adaptive.csv $(CI_DIR)/adaptive-export/smoke_adaptive.csv
	$(MAKE) net-smoke
	$(MAKE) store-smoke
	$(MAKE) phy-smoke
	$(PYTHON) -m repro.experiments perf smoke \
	  --current $(CI_DIR)/artifacts/smoke.json \
	  --trend $(CI_DIR)/trend.jsonl --tolerance 10
	@echo "make ci: OK (tests, docs, 3-way sharded smoke, merge, perf, adaptive, net, store, phy, trend)"
