# CI and humans invoke the same targets (see .github/workflows/ci.yml).

GO ?= go

# bench-check knobs: where the fresh capture lands, which baseline gates
# it, the relative tolerance for ns/op and allocs/op, and which gates
# bind (all, or portable = allocs/op + checksums — what CI uses, since
# the committed baseline's ns/op came from different hardware).
# BENCH_PROFILES, when set, is a directory that receives per-stage pprof
# CPU and heap profiles alongside the capture (CI uploads it).
BENCH_OUT ?= /tmp/cata-bench/BENCH_check.json
BENCH_BASE ?= BENCH_3.json
BENCH_TOL ?= 0.15
BENCH_GATE ?= all
BENCH_PROFILES ?=

# Coverage gate: cover-check fails when total statement coverage drops
# below COVER_FLOOR percent (the tree sits at ~80%; the floor leaves
# headroom for platform-dependent paths). CI runs the same target, so
# the threshold is reproducible locally.
COVER_OUT ?= cover.out
COVER_FLOOR ?= 75.0

# Fuzz-smoke budget per harness (internal/sim engine, internal/spec parser,
# the RunConfig JSON decoder in package cata, the compiled TDG against its
# reference resolver, and the DOT and JSON trace parsers).
FUZZTIME ?= 30s

.PHONY: all build test bench bench-capture bench-check perfbench-check vet fmt fmt-check smoke catad-smoke policies-smoke opensys-smoke fuzz-smoke cover cover-check lint docs-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Records the next BENCH_<n>.json in the repo root (the committed bench
# trajectory; see README "Benchmarking").
bench-capture:
	$(GO) run ./cmd/catabench

# Captures to BENCH_OUT and gates it against the committed baseline:
# fails on >BENCH_TOL ns/op or allocs/op regression, or any checksum
# drift. Timings are machine-dependent — regenerate the baseline on your
# hardware before trusting the ns/op gate locally. The probe-overhead
# guard runs first: the disabled flight-recorder path must stay at zero
# allocations and recording must not perturb any result, so the
# checksums gated below are trace-invariant by construction.
bench-check:
	$(GO) test -run 'ZeroAllocs' -count=1 ./internal/probe
	$(GO) test -run 'TestRecorderBehavioralInvariance' -count=1 ./internal/exp
	@mkdir -p $(dir $(BENCH_OUT))
	$(GO) run ./cmd/catabench -out $(BENCH_OUT) \
		$(if $(BENCH_PROFILES),-cpuprofile $(BENCH_PROFILES) -memprofile $(BENCH_PROFILES))
	$(GO) run ./cmd/catabench -compare $(BENCH_BASE) -against $(BENCH_OUT) -tol $(BENCH_TOL) -gate $(BENCH_GATE)

# perfbench is a module of its own (cata/perfbench), so the root
# build, vet and test never compile it; this keeps an internal API
# change from silently breaking the repository benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Exercises the catasweep binary path end to end at a tiny scale.
smoke:
	$(GO) test -run TestSweep -count=1 ./cmd/catasweep

# Boots the real catad binary, exercises /healthz and a POST /v1/runs
# job to completion (closed, traced and open-system traffic), and
# verifies a clean SIGTERM drain.
catad-smoke:
	bash scripts/catad-smoke.sh

# Exercises the policy registry end to end through catad: lists
# /v1/policies (AMTHA with typed params must be there), submits a run
# and a sweep by parameterized spec string, and requires structured
# 400s for hostile specs.
policies-smoke:
	bash scripts/policies-smoke.sh

# Exercises the open-system traffic path end to end: the seeded
# determinism, overload shedding and report-shape tests, the runtime's
# arrival and admission tests, the open-run golden fixtures, plus two
# real catasim -arrivals runs (Poisson with shedding, and fixed-interval
# arrivals that tie with task events).
opensys-smoke:
	$(GO) test -run 'TestOpen|TestScheduleGolden' -count=1 ./internal/opensys ./internal/exp
	$(GO) test -count=1 ./internal/rts
	$(GO) test -run 'TestGoldenOpenRuns' -count=1 .
	$(GO) run ./cmd/catasim -workload 'forkjoin:width=4,phases=2,dur=50' \
		-policy CATA -fast 8 -cores 8 \
		-arrivals 'poisson:lambda=2000,jobs=20,deadline=5ms,cap=4,window=10ms'
	$(GO) run ./cmd/catasim -workload 'forkjoin:width=4,phases=2,dur=40,skew=0' \
		-policy CATA -fast 4 -cores 8 \
		-arrivals 'fixed:interval=100us,jobs=50,deadline=300us'

# Runs each fuzz harness for a bounded budget: the internal/sim engine
# (arena/heap invariants vs a reference engine), the internal/spec
# parser behind every workload, policy and arrivals spec, the
# RunConfig JSON decoder behind catad's request bodies, the compiled
# dependence graph against the reference map-based resolver, the DOT
# and JSON trace parsers that feed program compilation, and the RSU
# against the two-level reference rule. `go test -fuzz` takes one target
# at a time, hence one line each.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=Fuzz -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/spec
	$(GO) test -run=NONE -fuzz=FuzzRunConfigJSON -fuzztime=$(FUZZTIME) .
	$(GO) test -run=NONE -fuzz='^FuzzCompileVsReference$$' -fuzztime=$(FUZZTIME) ./internal/tdg
	$(GO) test -run=NONE -fuzz='^FuzzReadDOT$$' -fuzztime=$(FUZZTIME) ./internal/tdg
	$(GO) test -run=NONE -fuzz='^FuzzReadJSON$$' -fuzztime=$(FUZZTIME) ./internal/program
	$(GO) test -run=NONE -fuzz='^FuzzUnitVsReference$$' -fuzztime=$(FUZZTIME) ./internal/rsu

# Captures a statement-coverage profile across every package.
cover:
	$(GO) test -coverprofile=$(COVER_OUT) ./...

# Gates total coverage against COVER_FLOOR.
cover-check: cover
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }' || \
		{ echo "coverage $$total% is below the floor $(COVER_FLOOR)%" >&2; exit 1; }

# Static analysis beyond vet. CI installs pinned staticcheck/govulncheck
# (see .github/workflows/ci.yml); locally they run when installed.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed; skipping (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed; skipping (CI runs it pinned)"; fi

# Fails on broken relative markdown links and on exported identifiers
# missing doc comments (see internal/tools/docscheck).
docs-check:
	$(GO) run ./internal/tools/docscheck

# The local CI mirror: everything the workflow gates, minus the pinned
# tool installs (lint degrades gracefully when staticcheck/govulncheck
# are absent). Short fuzz budget and the portable bench gate keep it
# runnable on any hardware.
ci: fmt-check build lint test perfbench-check smoke catad-smoke policies-smoke opensys-smoke cover-check docs-check
	$(MAKE) fuzz-smoke FUZZTIME=10s
	$(MAKE) bench-check BENCH_GATE=portable
