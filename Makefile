GO ?= go

.PHONY: all build test race vet lint fmt perfbench-check check bench serve smoke cluster-smoke workload-smoke obs-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -count=1 ./...

vet:
	$(GO) vet ./...

# Repo-specific invariant checks (epoch-keyed caching, deterministic
# merges, ctx cancellation, lock scope). Runs simlint through the vet
# driver so test files are covered too; see docs/static-analysis.md.
lint:
	$(GO) build -o bin/simlint ./cmd/simlint
	$(GO) vet -vettool=$(CURDIR)/bin/simlint ./...

# Fails if any file is not gofmt-formatted.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# perfbench is a module of its own, so ./... above never compiles it;
# this keeps a root API change from breaking the benchmark unseen.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: fmt vet lint race perfbench-check obs-smoke

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Serve a synthetic dataset stand-in on :8080 (override with ARGS).
serve:
	$(GO) run ./cmd/simrankd -dataset dblp-sim -scale 0.25 -addr :8080 $(ARGS)

# End-to-end smoke test of the daemon (build, start, curl, shutdown).
smoke:
	./scripts/simrankd_smoke.sh

# End-to-end smoke test of the replicated cluster: leader + 2 followers
# behind simproxy — mutation streaming, bit-identical convergence,
# follower failover.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Workload scenario smoke: simload drives every preset against a live
# simrankd on a fixture graph and checks the SLO-scored report (keep it
# with OUT=report.json). Override with e.g. DURATION=30s RATE_SCALE=1 for
# a real run.
workload-smoke:
	./scripts/workload_smoke.sh

# Observability smoke: request-id echo + slow-query log + /debug/queries
# spans, Prometheus-grammar validation of both daemons' /metricsz, and a
# tracing-disabled SLO run (keep its report with OUT=report.json; see
# docs/observability.md).
obs-smoke:
	./scripts/obs_smoke.sh
