# Developer entry points. `make check` is the local gate every PR must
# pass: vet and the analyzers plus the full suite under the race
# detector. CI runs the same two halves as its lint and test jobs.

GO ?= go

.PHONY: build test lint check bench fuzz perf-smoke cover-ladder clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: the toolchain's standard passes (go vet: copylocks,
# printf, ...) plus the ten SQPeer invariant analyzers — seven
# intraprocedural (walltime, seededrand, maporder, errclass, locksafe,
# obsspan, jsonrow) and three interprocedural (lockorder, deadlinebound,
# goroleak) — see DESIGN.md §9. Zero un-allowlisted
# diagnostics is a merge gate. The per-analyzer cost report lands in
# lint-report.txt.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/sqpeer-lint -report lint-report.txt ./...

check: lint
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# The seven fuzzers, 20 s each (about 2.5 min in all); CI's fuzz step runs this
# target, so this is the one list. New findings land in each package's
# testdata/fuzz, where go test replays them.
#
# - FuzzBaseOps drives rdf.Base and a reference triple set through
#   decoded Add/Remove/Has sequences and compares every read.
# - FuzzPacketEnvelope decodes arbitrary bytes as both data-plane
#   envelopes (packet with its final and stamped flags, trailers,
#   statistics generation and dictionary stamp; subplan request with its
#   sequence base and dictionary-mirror fields) and as a plan-change body, and round-trips packets, subplan
#   requests and plan-change bodies built from its values.
# - FuzzBatchCodec decodes arbitrary bytes as a Results batch frame in
#   both forms (self-contained, and mirror frames of base ids),
#   checks that every frame that decodes re-encodes to the same bytes
#   (the front-coded codec is canonical) and that Frame.WireLen (which
#   sizes every Results packet body) equals the encoded length, that a
#   mirror frame's ids stay inside the entries it covers and read back
#   through a table, and round-trips the frame through the ResultSet
#   facade.
# - FuzzBatchOps decodes two small relations, builds each as base ids,
#   store ids and a decoded frame, and checks that the batch operators
#   (union, join, concatenation, projection, filter) give the ResultSet
#   operators' rows over every pairing of id spaces without changing an
#   input.
# - FuzzQueryCodecs decodes arbitrary bytes as every query-path body
#   (plan, routing request, annotated reply, statistics payload), checks
#   that a decodable body re-encodes to itself (so its front-coded string
#   table is canonical: maximal shared prefixes, strictly increasing
#   entries, an exact byte total), and round-trips generated plans,
#   annotations and statistics; its corpus seeds malformed tables too.
# - FuzzMembershipMessages feeds arbitrary payloads to a failure
#   detector's ping, ping-req, sync and push handlers and its gossip
#   blob; one that does not decode must leave the member view unchanged.
# - FuzzAdvertisement feeds arbitrary payloads to a peer's advertisement
#   push handler and routes a query over what it learned; one that does
#   not decode must leave the routing registry and catalog unchanged.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzBaseOps$$' -fuzztime=20s ./internal/rdf
	$(GO) test -run='^$$' -fuzz='^FuzzPacketEnvelope$$' -fuzztime=20s ./internal/channel
	$(GO) test -run='^$$' -fuzz='^FuzzBatchCodec$$' -fuzztime=20s ./internal/rql
	$(GO) test -run='^$$' -fuzz='^FuzzBatchOps$$' -fuzztime=20s ./internal/rql
	$(GO) test -run='^$$' -fuzz='^FuzzQueryCodecs$$' -fuzztime=20s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzMembershipMessages$$' -fuzztime=20s ./internal/membership
	$(GO) test -run='^$$' -fuzz='^FuzzAdvertisement$$' -fuzztime=20s ./internal/peer

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

# The recovery ladder (internal/exec/ladder.go: the table of retry,
# migrate, fill, replan and hole decisions and the code that runs its
# steps) must stay exercised. This runs the suite with coverage of
# internal/exec, merges the per-package blocks of the profile (a block
# ran if any package's tests ran it) and fails, listing them, when some
# block of the ladder file ran in no test.
cover-ladder:
	$(GO) test -coverpkg=./internal/exec -coverprofile=cover-ladder.out ./...
	@awk -F'[: ]' '$$1 ~ /internal\/exec\/ladder\.go$$/ { if (!($$2 in n) || $$4 > n[$$2]) n[$$2] = $$4 } \
		END { for (b in n) if (n[b] == 0) print "internal/exec/ladder.go:" b }' cover-ladder.out | sort -n -t: -k2 > cover-ladder.txt
	@if [ -s cover-ladder.txt ]; then echo "ladder blocks no test executed:"; cat cover-ladder.txt; exit 1; fi
	@echo "cover-ladder: every block of internal/exec/ladder.go ran"

clean:
	$(GO) clean ./...
