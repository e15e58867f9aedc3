# Developer entry points. `make check` is the local gate every PR must
# pass: vet and the analyzers plus the full suite under the race
# detector. CI runs the same two halves as its lint and test jobs.

GO ?= go

.PHONY: build test lint check bench perf-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: the toolchain's standard passes (go vet: copylocks,
# printf, ...) plus the eleven SQPeer invariant analyzers — seven
# intraprocedural (walltime, seededrand, maporder, errclass, locksafe,
# obsspan, jsonrow) and four interprocedural (lockorder, bufsafe,
# deadlinebound, goroleak) — see DESIGN.md §9. Zero un-allowlisted
# diagnostics is a merge gate. The per-analyzer cost report lands in
# lint-report.txt.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/sqpeer-lint -report lint-report.txt ./...

check: lint
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# Benchmark smoke: every perfbench workload for one second at seed 1,
# untraced and traced, then faulty_fanout untraced at seeds 2 and 3: the
# seeded injector's draws land on different deliveries per seed, so the
# retry ladder gets more than one fault pattern. perfbench exits nonzero
# when an answer differs from centralized evaluation or a query fails on
# a fault-free workload, so a change that breaks a benchmark run fails
# here, before merge (about 25 s in all).
perf-smoke:
	@for w in fanout_small churn_update faulty_fanout; do \
		for t in 0 1; do \
			echo "perf-smoke: $$w --trace $$t"; \
			python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace $$t || exit 1; \
		done; \
	done
	@for s in 2 3; do \
		echo "perf-smoke: faulty_fanout --seed $$s --trace 0"; \
		python3 perfbench/run.py --workload faulty_fanout --seed $$s --seconds 1 --trace 0 || exit 1; \
	done

clean:
	$(GO) clean ./...
