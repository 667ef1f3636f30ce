# Convenience targets for the chase & backchase reproduction.
#
# Everything pins PYTHONPATH=src (the package is a src-layout project and the
# test suites import `repro` directly).  `make test` is the fast unit suite;
# `make bench` regenerates every figure/table benchmark and refreshes the
# BENCH_*.json files (only `-m bench` sessions write them, so `make tier1`
# records nothing); `make bench-quick` runs the parallel-backchase scaling at a
# reduced scale; `make serve-smoke` checks the in-process serving mode end
# to end and `make serve-net-smoke` the TCP front end (server + client over
# a real socket); `make chaos-smoke` kills a snapshotting server with
# SIGKILL mid-run and asserts the restart serves identical plans; `make
# serve-obs-smoke` runs a traced server with the HTTP observability sidecar
# and asserts /metrics, /healthz, /readyz, /stats and /traces via the
# obs-check subcommand; `make fleet-smoke` routes the workload through the
# consistent-hash fleet router in front of two backends, kills one backend
# with SIGKILL, and asserts the retrying client still passes --check via
# failover; `make perf-smoke` runs perfbench's service workloads, a traced
# run and a cold pass over every pair through the benchmark's own checks;
# `make tier1` is the full suite CI runs.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench bench-quick lint lint-concurrency serve-smoke serve-net-smoke chaos-smoke serve-obs-smoke fleet-smoke perf-smoke tier1 all

# Fast unit tests only (benchmarks are marked `bench` and deselected).
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q -m "not bench" tests

# Benchmark suite: reproduces the paper's figures/tables and writes the
# BENCH_*.json files with per-figure wall-clock and counters (only a
# session run with `-m bench` writes them; see benchmarks/conftest.py).
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m bench benchmarks

# Reduced-scale parallel-backchase scaling run (a few seconds end to end).
bench-quick:
	PYTHONPATH=$(PYTHONPATH) BENCH_QUICK=1 $(PYTHON) -m pytest -q -m bench benchmarks/test_bench_parallel_backchase.py

# Curated ruff lint (rule set lives in ruff.toml; CI installs ruff).
lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

# repro-lint: the in-tree whole-program AST analyzer for concurrency and
# invariant bugs.  Module-scope rules (lock-discipline, pickle-safety,
# deadline-propagation, future-resolution, process-pool-boundary) plus
# project-scope rules over the whole-program model (lock-ordering,
# resource-lifecycle, metrics-conformance, protocol-conformance).  Emits
# clickable path:line:col findings; exits non-zero on anything not recorded
# in analysis-baseline.json.  No third-party deps — stdlib ast only.
lint-concurrency:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis src/repro benchmarks examples \
		--baseline analysis-baseline.json

# Serving-mode smoke test: pipe the 10-request JSONL workload through the
# warm sharded service and assert every plan set matches a fresh single-shot
# CBOptimizer.optimize() (--check makes the CLI exit non-zero on mismatch).
serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli batch \
		--input benchmarks/workloads/serve_smoke.jsonl --output /dev/null \
		--shards 2 --workers 2 --check

# Network serving smoke test: start the TCP front end on an OS-assigned
# port, pipe the same JSONL workload through the socket client, and assert
# every response matches a fresh single-shot optimize (--check).  The server
# is killed with SIGTERM afterwards (graceful drain path).
serve-net-smoke:
	@rm -f .serve-net-smoke.port; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli serve --port 0 \
		--port-file .serve-net-smoke.port --shards 2 --workers 2 & \
	server_pid=$$!; \
	for i in $$(seq 1 100); do \
		[ -s .serve-net-smoke.port ] && break; sleep 0.1; \
	done; \
	[ -s .serve-net-smoke.port ] || { echo "server never bound"; kill $$server_pid; exit 1; }; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli client \
		--port $$(cat .serve-net-smoke.port) \
		--input benchmarks/workloads/serve_smoke.jsonl --output /dev/null --check; \
	status=$$?; \
	kill -TERM $$server_pid 2>/dev/null; wait $$server_pid 2>/dev/null; \
	rm -f .serve-net-smoke.port; \
	exit $$status

# Chaos smoke test: life 1 serves with a periodic cache snapshot AND
# injected response-write faults (deterministic seed), so the retrying
# client must replay dropped responses to pass --check; the server is then
# killed with SIGKILL — no drain, no final snapshot.  Life 2 restarts from
# whatever the background snapshot loop last wrote and must serve the same
# workload with every plan set still matching a fresh single-shot optimize.
chaos-smoke:
	@rm -f .chaos-smoke.port .chaos-smoke.snap; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli serve --port 0 \
		--port-file .chaos-smoke.port --shards 2 --workers 2 \
		--snapshot .chaos-smoke.snap --snapshot-interval 0.3 \
		--fault-spec "server.write:0.15:4" --fault-seed 7 & \
	server_pid=$$!; \
	for i in $$(seq 1 100); do \
		[ -s .chaos-smoke.port ] && break; sleep 0.1; \
	done; \
	[ -s .chaos-smoke.port ] || { echo "server never bound"; kill $$server_pid; exit 1; }; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli client \
		--port $$(cat .chaos-smoke.port) --retries 8 \
		--input benchmarks/workloads/serve_smoke.jsonl --output /dev/null --check \
		|| { echo "faulty life failed --check"; kill -9 $$server_pid; exit 1; }; \
	for i in $$(seq 1 100); do \
		[ -s .chaos-smoke.snap ] && break; sleep 0.1; \
	done; \
	[ -s .chaos-smoke.snap ] || { echo "no snapshot before crash"; kill -9 $$server_pid; exit 1; }; \
	kill -9 $$server_pid; wait $$server_pid 2>/dev/null; \
	rm -f .chaos-smoke.port; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli serve --port 0 \
		--port-file .chaos-smoke.port --shards 2 --workers 2 \
		--snapshot .chaos-smoke.snap & \
	server_pid=$$!; \
	for i in $$(seq 1 100); do \
		[ -s .chaos-smoke.port ] && break; sleep 0.1; \
	done; \
	[ -s .chaos-smoke.port ] || { echo "restart never bound"; kill $$server_pid; exit 1; }; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli client \
		--port $$(cat .chaos-smoke.port) --retries 8 \
		--input benchmarks/workloads/serve_smoke.jsonl --output /dev/null --check; \
	status=$$?; \
	kill -TERM $$server_pid 2>/dev/null; wait $$server_pid 2>/dev/null; \
	rm -f .chaos-smoke.port .chaos-smoke.snap; \
	exit $$status

# Observability smoke test: start a traced TCP server with the HTTP sidecar
# (both on OS-assigned ports), drive the JSONL workload through the socket
# client, then run `obs-check` against the sidecar — it exits non-zero
# unless /healthz and /readyz answer, /stats carries every stats field, and
# /metrics exposes every gauge plus the per-stage latency histograms.
serve-obs-smoke:
	@rm -f .serve-obs-smoke.port .serve-obs-smoke.http; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli serve --port 0 \
		--port-file .serve-obs-smoke.port --shards 2 --workers 2 \
		--trace --http-port 0 --http-port-file .serve-obs-smoke.http & \
	server_pid=$$!; \
	for i in $$(seq 1 100); do \
		[ -s .serve-obs-smoke.port ] && [ -s .serve-obs-smoke.http ] && break; sleep 0.1; \
	done; \
	{ [ -s .serve-obs-smoke.port ] && [ -s .serve-obs-smoke.http ]; } \
		|| { echo "server never bound"; kill $$server_pid; exit 1; }; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli client \
		--port $$(cat .serve-obs-smoke.port) \
		--input benchmarks/workloads/serve_smoke.jsonl --output /dev/null --check \
		|| { echo "client --check failed"; kill -TERM $$server_pid; exit 1; }; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli obs-check \
		--port $$(cat .serve-obs-smoke.http); \
	status=$$?; \
	kill -TERM $$server_pid 2>/dev/null; wait $$server_pid 2>/dev/null; \
	rm -f .serve-obs-smoke.port .serve-obs-smoke.http; \
	exit $$status

# Fleet smoke test: two backend servers behind the consistent-hash router
# (periodic cache/memo sync between them), the retrying client passes
# --check through the router, then one backend is killed with SIGKILL and a
# second pass must still verify every plan set — requests whose primary
# died fail over to the surviving replica (which the sync exchange has been
# keeping warm) instead of erroring.
fleet-smoke:
	@rm -f .fleet-smoke.b1 .fleet-smoke.b2 .fleet-smoke.router; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli serve --port 0 \
		--port-file .fleet-smoke.b1 --shards 1 --workers 2 & \
	b1_pid=$$!; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli serve --port 0 \
		--port-file .fleet-smoke.b2 --shards 1 --workers 2 & \
	b2_pid=$$!; \
	for i in $$(seq 1 100); do \
		[ -s .fleet-smoke.b1 ] && [ -s .fleet-smoke.b2 ] && break; sleep 0.1; \
	done; \
	{ [ -s .fleet-smoke.b1 ] && [ -s .fleet-smoke.b2 ]; } \
		|| { echo "backends never bound"; kill $$b1_pid $$b2_pid 2>/dev/null; exit 1; }; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli route --port 0 \
		--port-file .fleet-smoke.router --sync-interval 0.5 \
		--backend 127.0.0.1:$$(cat .fleet-smoke.b1) \
		--backend 127.0.0.1:$$(cat .fleet-smoke.b2) & \
	router_pid=$$!; \
	for i in $$(seq 1 100); do \
		[ -s .fleet-smoke.router ] && break; sleep 0.1; \
	done; \
	[ -s .fleet-smoke.router ] \
		|| { echo "router never bound"; kill $$router_pid $$b1_pid $$b2_pid 2>/dev/null; exit 1; }; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli client \
		--port $$(cat .fleet-smoke.router) --retries 8 \
		--input benchmarks/workloads/serve_smoke.jsonl --output /dev/null --check \
		|| { echo "full-fleet pass failed --check"; \
		     kill -9 $$router_pid $$b1_pid $$b2_pid 2>/dev/null; exit 1; }; \
	kill -9 $$b1_pid; wait $$b1_pid 2>/dev/null; \
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli client \
		--port $$(cat .fleet-smoke.router) --retries 8 \
		--input benchmarks/workloads/serve_smoke.jsonl --output /dev/null --check; \
	status=$$?; \
	kill -TERM $$router_pid $$b2_pid 2>/dev/null; \
	wait $$router_pid $$b2_pid 2>/dev/null; \
	rm -f .fleet-smoke.b1 .fleet-smoke.b2 .fleet-smoke.router; \
	exit $$status

# Perf smoke test: perfbench/run.py drives the service in process
# (warm-service) and over a socket (churn-socket) for 5 s each, then a traced
# warm-optimize run, whose span wrappers fail if a program name that
# perfbench/spans.py wraps is gone, then cold-optimize, whose every part runs
# at least one whole pass, so all 41 EC1-EC3 x strategy pairs are checked.
# run.py checks every response against perfbench/reference.json but exits 0
# even when a check fails, so each run's last output line must read
# "correct": true and "failed": 0.
perf-smoke:
	@for run in "warm-service --trace 0" "churn-socket --trace 0" "warm-optimize --trace 1" "cold-optimize --trace 0"; do \
		echo "perf-smoke: $$run"; \
		out=$$($(PYTHON) perfbench/run.py --workload $$run --seed 1 --seconds 5) \
			|| { echo "perf-smoke: $$run exited non-zero"; exit 1; }; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "$$last"; \
		printf '%s\n' "$$last" | $(PYTHON) -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(not (r.get("correct") is True and r.get("failed") == 0))' \
			|| { echo "perf-smoke: $$run failed its checks"; exit 1; }; \
	done

# Everything, exactly as the tier-1 verification runs it.
tier1:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

all: tier1
