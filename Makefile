# Developer entry points. `make check` is the gate the CI (and every PR)
# must pass: vet plus the full suite under the race detector.

GO ?= go

.PHONY: build test lint check bench bench-json perf-smoke batch fault trace overload member observe clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: the toolchain's standard passes (go vet: copylocks,
# printf, ...) plus the eleven SQPeer invariant analyzers — seven
# intraprocedural (walltime, seededrand, maporder, errclass, locksafe,
# obsspan, jsonrow) and four interprocedural (lockorder, bufsafe,
# deadlinebound, goroleak) — see DESIGN.md §9. Zero un-allowlisted
# diagnostics is a merge gate. The interprocedural tier's per-package
# summaries persist in .lintcache/ so repeat runs only re-summarize
# what changed; the per-analyzer cost report lands in lint-report.txt.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/sqpeer-lint -summary-cache .lintcache -report lint-report.txt ./...

check: lint
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# Machine-readable before/after numbers for the routing index and the
# parallel executor (see cmd/sqpeer-bench/benchjson.go).
bench-json:
	$(GO) run ./cmd/sqpeer-bench -bench-json BENCH_PR1.json

# Benchmark smoke: every perfbench workload for one second at seed 1,
# untraced and traced. perfbench exits nonzero when an answer differs
# from centralized evaluation or a query fails on a fault-free workload,
# so a change that breaks a benchmark run fails here, before merge
# (about 20 s in all).
perf-smoke:
	@for w in fanout_small churn_update faulty_fanout; do \
		for t in 0 1; do \
			echo "perf-smoke: $$w --trace $$t"; \
			python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace $$t || exit 1; \
		done; \
	done

# Batch data plane: the CLAIM-BATCH sweep at headline sizes (rewrites
# BENCH_PR6.json) — the run fails if the distributed answer differs from
# the centralized evaluation, or if allocs/row regresses >20% against
# the committed baseline at any matching sweep point. See DESIGN.md §12.
batch:
	$(GO) run ./cmd/sqpeer-bench -exp batch -alloc-baseline BENCH_PR6.json

# Fault suite: the chaos soak test (both recovery modes: migration and
# the NoMigrations restart ablation) under the race detector, the seeded
# CLAIM-FAULT sweep (rewrites BENCH_PR2.json), and the CLAIM-RECOVER
# migration-vs-restart experiment under -race (rewrites BENCH_PR4.json).
# All fully deterministic (fixed seeds baked into the code).
fault:
	$(GO) test -race -run TestChaosSoak ./internal/exec/
	$(GO) run ./cmd/sqpeer-bench -exp fault
	$(GO) run -race ./cmd/sqpeer-bench -exp recover

# Overload suite: the concurrent multi-tenant admission soak under the
# race detector (explicit-Done controllers, watchdog, occupancy-drain
# and goroutine-leak checks), then the deterministic CLAIM-OVERLOAD
# sweep — 2× sustained overload, priority shedding, hot-advertisement
# replication, rate-bound fairness and the admission-off ablation
# (rewrites BENCH_PR7.json). See DESIGN.md §13.
overload:
	$(GO) test -race -run TestOverloadSoak ./internal/exec/
	$(GO) run ./cmd/sqpeer-bench -exp overload

# Membership suite: the decentralized-membership unit tests (SWIM
# detector + anti-entropy) under the race detector, then the
# deterministic CLAIM-MEMBER experiment under -race — bounded bootstrap
# convergence, detection latency under seeded churn + 10% faults,
# partition degradation to annotated partial answers, post-heal
# reconvergence to oracle-equal views, byte-identical reruns (rewrites
# BENCH_PR9.json). See DESIGN.md §14.
member:
	$(GO) test -race ./internal/membership/
	$(GO) run -race ./cmd/sqpeer-bench -exp member

# Operations plane: the obs/debugsrv unit tests (event log, flight
# recorder, SLO evaluator, Prometheus exposition, HTTP endpoints) under
# the race detector, then the deterministic CLAIM-OBSERVE experiment
# under -race — byte-identical event-log reruns, exact event↔counter
# reconciliation, anomaly-triggered post-mortem dumps, SLO burn-rate
# alerts and the plane-off overhead ablation (rewrites BENCH_PR10.json
# and the sample dump bundle FLIGHTREC_PR10.json). See DESIGN.md §15.
observe:
	$(GO) test -race ./internal/obs/ ./internal/debugsrv/
	$(GO) run -race ./cmd/sqpeer-bench -exp observe

# Observability: the CLAIM-TRACE experiment (rewrites BENCH_PR5.json)
# plus a captured chrome://tracing file for the paper query — open
# trace.json in chrome://tracing or Perfetto; trace.jsonl is the
# byte-stable span listing (diffable across same-scenario runs).
trace:
	$(GO) run ./cmd/sqpeer-bench -exp trace
	$(GO) run ./cmd/sqpeer-bench -trace trace.json

clean:
	$(GO) clean ./...
