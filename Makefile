# Development targets for the lrgp repository. Everything is stdlib-only;
# the only prerequisite is a Go toolchain (>= 1.22).

GO ?= go

.PHONY: all build vet lint test race cover bench bench-core bench-broker bench-dist bench-overlay perfbench-selftest bench-scaling fuzz experiments examples telemetry-smoke trace-analyze clean

all: build vet lint test

# golangci-lint is configured in .golangci.yml; the target degrades to a
# loud skip when the binary is not installed so `make all` stays usable on
# minimal toolchains (CI runs the real thing).
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "lint: golangci-lint not installed; skipping (see .golangci.yml)"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# One benchmark per paper table/figure (plus micro-benchmarks).
bench:
	$(GO) test -bench=. -benchmem ./...

# Engine-core benchmarks recorded as JSON (ns/op, allocs/op per benchmark)
# so the perf trajectory is tracked PR over PR.
bench-core:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/core/ \
		| $(GO) run ./cmd/lrgp-benchjson -out BENCH_core.json

# Broker data-plane benchmarks recorded as JSON. -cpu=1,4 captures the
# contended scaling of the lock-free publish path (BENCH_broker.json in
# the repo additionally keeps the pre-refactor mutex baseline under
# *MutexBaseline names for comparison).
bench-broker:
	$(GO) test -run='^$$' -bench='Publish|ApplyAllocation' -benchmem -cpu=1,4 ./internal/broker/ \
		| $(GO) run ./cmd/lrgp-benchjson -out BENCH_broker.json

# Distributed-runtime benchmarks recorded as JSON: codec encode/decode
# ns/op (transport), binary-wire bytes/round, plain-vs-batched
# frames/round, and rounds-to-converge per staleness bound K.
bench-dist:
	$(GO) test -run='^$$' -bench='DistWire|DistBatch|DistStaleness|SyncRound|Message' -benchmem \
		./internal/dist/ ./internal/transport/ \
		| $(GO) run ./cmd/lrgp-benchjson -out BENCH_dist.json

# Overlay re-optimization benchmarks recorded as JSON: tree repair
# (kill + restore cycle, allocation-bounded), the full warm path per
# failure event (repair + ResetRouting + re-solve) and the cold-rebuild
# baseline it is judged against, all on the 10k-node pod topology, plus
# one restore and one link-churn event (fail or restore, ResetRouting,
# warm re-solve capped at 100 iterations) on X11's 10k-node random
# overlay. -count=5 keeps five samples per benchmark so the record shows
# run-to-run spread.
bench-overlay:
	$(GO) test -run='^$$' -bench='TreeRepair|WarmResolve|ColdResolve|RouterRestoreX11|LinkChurnEventX11' -benchmem -count=5 \
		./internal/overlay/ ./internal/experiments/ \
		| $(GO) run ./cmd/lrgp-benchjson -out BENCH_overlay.json

# The closed-loop benchmark's own tests (perfbench is a separate module).
perfbench-selftest:
	cd perfbench && $(GO) test .

# Scaling-regression gate: workers=8 must beat workers=1 by >= 1.5x on
# the metro-small benchmark (skips loudly on hosts with < 4 CPUs).
bench-scaling:
	bash scripts/bench-scaling.sh

# Short fuzzing pass over the solver and utility-spec fuzz targets.
fuzz:
	$(GO) test -fuzz=FuzzBisectDecreasing -fuzztime=10s ./internal/solver/
	$(GO) test -fuzz=FuzzSpecJSON -fuzztime=10s ./internal/utility/

# End-to-end scrape of lrgp-broker's -telemetry-addr surface (Prometheus
# counters, pprof, expvar, snapshot). RACE=1 builds the binary with the
# race detector, as CI does.
telemetry-smoke:
	bash scripts/telemetry-smoke.sh

# Flight-recorder round trip: a dist lrgp-broker run with -dist-events,
# analyzed by lrgp-trace (round timeline, stragglers, loss hotspots,
# effective staleness).
trace-analyze:
	bash scripts/trace-smoke.sh

# Regenerate every table and figure (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/lrgp-experiments -run all -sa-steps 2000000 -chart=false

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tradedata
	$(GO) run ./examples/latestprice
	$(GO) run ./examples/autoscale
	$(GO) run ./examples/overlaycity

clean:
	rm -f cover.out test_output.txt bench_output.txt
