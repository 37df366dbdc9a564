# Convenience targets for the SDRaD reproduction.

.PHONY: install test bench perfbench perfbench-test bench-fast bench-obs bench-plans bench-fleet bench-backends bench-campaign campaign profile tables examples lint lint-domains lint-fixtures all

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# The repo benchmark (BENCHMARK.json): three seeded serving workloads,
# end-to-end metrics as one JSON line; exits 1 if the books do not balance.
perfbench:
	python3 perfbench/run.py --workload all --seed 0 --seconds 20

# The benchmark's own tests (outside tier-1's testpaths).
perfbench-test:
	python -m pytest perfbench/tests

# Wall-clock harness for the simulation itself (TLB fast path, access
# plans, re-entry cache, request batching, kvstore/memcached end-to-end,
# observability overhead, fleet scatter-gather scaling, isolation-backend
# substrates). Writes BENCH_PR10.json; fails on >25% drop in a within-file
# speedup ratio vs. the previous BENCH_*.json (ordered by schema, then PR
# number) — ratios, because each file is recorded on a different VM — and
# on a miss of the absolute targets (plans >= 10x, batched pipeline >= 3x
# baseline, obs overhead <= 1.05x, 8-shard multiget >= 3x single-shard,
# mpk backend >= 0.75x the default spelling).
bench-fast:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json
	python scripts/check_bench_regression.py

# Just the observability-overhead bench plus the regression gate: proves
# the obs=None fast path keeps memcached_e2e throughput (the acceptance
# criterion for the obs subsystem) without re-running the full harness.
bench-obs:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json \
		--only memcached_e2e,memcached_obs
	python scripts/check_bench_regression.py

# Just the access-plan tentpole benches: the compiled-plan speedup and the
# end-to-end pipeline it feeds, with the absolute targets enforced.
bench-plans:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json \
		--only raw_access,access_plans,memcached_e2e
	python scripts/check_bench_regression.py

# The PR 7 tentpole bench: 1-vs-8-shard scatter-gather multiget scaling
# plus the seeded end-to-end fleet run (arrivals, failover, ledger), with
# the >= 3x absolute gate enforced.
bench-fleet:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json \
		--only fleet
	python scripts/check_bench_regression.py

# The PR 8 tentpole bench: the memcached E1 serving mix on each isolation
# substrate (default/mpk/cheri/sfi), with the mpk-vs-default parity gate
# (>= 0.75x) enforced.
bench-backends:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json \
		--only backends
	python scripts/check_bench_regression.py

# The PR 10 campaign bench: stratified sampling throughput plus one tiny
# seeded closed loop — informational (no absolute gate; correctness is
# pinned by the campaign-smoke golden fixture in CI).
bench-campaign:
	PYTHONPATH=src python scripts/bench.py --out BENCH_PR10.json \
		--only campaign
	python scripts/check_bench_regression.py

# The PR 10 closed loop at defaults: stratified Clopper–Pearson sampling
# over fault class x domain x phase x backend, factorial model fit,
# carbon-aware policy recommendation, and re-measured validation.
campaign:
	PYTHONPATH=src python -m repro campaign

# cProfile the hot request paths; prints the top-20 cumulative hotspots.
profile:
	PYTHONPATH=src python scripts/profile.py

tables:
	pytest benchmarks/ -s --benchmark-disable

examples:
	@for f in examples/*.py; do echo "== $$f =="; python $$f; done

# sdradlint: whole-program static verification of the SDRaD compartment
# invariants (R1 enter/exit pairing, R2 domain-heap escape, R3
# rewind-unsafe side effects, R4 unguarded WRPKRU gadgets, R5
# interprocedural heap escape, R6 MPK-only idioms outside capability
# guards, R7 FFI boundary contract). Exit 1 on any new finding. Uses the
# incremental summary cache (.sdradlint.cache.json); pass flags through
# scripts/lint_domains.py for --no-cache / --changed-only / --format sarif.
lint-domains:
	python scripts/lint_domains.py

# The linter's own test matrix: planted-violation and near-miss fixtures
# for every rule (exact rule+line markers), call-graph/SCC-summary unit
# tests, cache byte-identity tests, and the SARIF golden file.
lint-fixtures:
	PYTHONPATH=src python -m pytest -q \
		tests/test_analysis_fixtures.py \
		tests/test_analysis_callgraph.py \
		tests/test_analysis_cache.py

# General hygiene (ruff + mypy, configured in pyproject.toml). Both are
# optional: the targets skip with a notice when the tool is not in the
# container, so `make lint` never fails on a missing dependency — only
# on actual diagnostics. sdradlint always runs.
lint: lint-domains
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src/repro scripts tests \
		|| echo "lint: ruff not installed, skipping"
	@command -v mypy >/dev/null 2>&1 \
		&& mypy src/repro \
		|| echo "lint: mypy not installed, skipping"

all: install test bench
