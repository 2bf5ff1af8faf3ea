# Developer entry points. `make check` is the tier-1 gate: everything
# a change must pass before merging — vet of both modules (the nested
# bench/ module compiles against the root's API), gofmt and the
# invariant linter (harmonylint), the build, both modules' tests, the race
# detector over the root module (see `race`), the time-boxed fuzzes
# and the contention bench smoke; `test` also runs every example. The
# static plan-verification gate (clean plans pass, seeded plan bugs
# fail, through the CLIs) is cmd/schedcheck's and cmd/harmonytrain's
# tests, so `test` runs it.
# Performance is not gated here: a claim is decided by `make
# bench-pair`.

GO ?= go

.PHONY: all build vet lint lint-sarif test bench-test race bench-contend bench-pair fuzz loc check

all: check

build:
	$(GO) build ./...

# bench/ is a nested module: ./... from the root never reaches it.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# Static enforcement of the executor's concurrency and determinism
# invariants (DESIGN.md §10), one gate each. go vet holds copied locks
# (copylocks); gofmt -l must name no file (.bench_build/ is the
# benchmark's build cache); harmonylint walks the syntax of every
# package once, and on that walk holds wall-clock and map-order
# nondeterminism in the deterministic core and dropped VM errors
# (DMA claim-word writes outside claimword's transitions are the
# compiler's to refuse: the word is an unexported field of
# claimword.Cell), while it builds the
# summaries the interprocedural passes close over the call graph (the
# global lock-order graph, goroutine and done-channel lifecycle,
# call-chain taint flow); the path-sensitive CFG passes (blocking
# under a lock, claim lifecycle and publication, error-path lock
# leaks) follow.
# The ./... pattern covers cmd/ and internal/ alike, the linter's own
# packages included. Runs from the module root in about 0.3 s on a
# 2-vCPU machine, on the build cache vet has just filled, nearly all of
# it the load; exits non-zero on findings.
lint: vet
	@! gofmt -l . | grep -v '^\.bench_build/' || { echo "gofmt -l names the files above"; exit 1; }
	$(GO) run ./cmd/harmonylint ./...

# SARIF log for CI code scanning: same findings and exit code as
# `make lint`, but the report lands in harmonylint.sarif either way so
# the workflow can upload it and annotate the PR.
lint-sarif:
	@$(GO) run ./cmd/harmonylint -sarif ./... > harmonylint.sarif; \
	code=$$?; echo "wrote harmonylint.sarif"; exit $$code

# internal/nn has one vector path (AVX2 assembly, amd64 only) beside
# its portable Go kernels. The plain run tests the path this machine
# dispatches to and, on amd64, both; the 386 run tests the portable
# kernels as a non-amd64 user builds them, and the arm64 build fails
# here, not on the ARM runner, when a declaration lacks its !amd64 stub.
# Last, every program under examples/ runs and must exit 0 (their
# output is not checked; all seven take about a second warm).
test:
	$(GO) test ./...
	GOARCH=386 $(GO) test ./internal/nn
	GOARCH=arm64 $(GO) build ./...
	@for e in examples/*/; do echo "$(GO) run ./$$e"; $(GO) run ./$$e > /dev/null || exit 1; done

# bench/ is a nested module (the harmonybench harness behind
# BENCHMARK.json), so `go test ./...` from the root never reaches its
# unit tests and its -smoke pass, which drives every workload and
# every reference variant (sync, prefetch, chunked, monolithic,
# serial) through the real trainer; this does (~15 s). The static
# prefetch window's evidence under swap pressure is not here but in
# internal/exec's pressure rows (TestPressureRowsBitExact), which
# `test` runs.
bench-test:
	$(GO) test -C bench ./...

# The whole root module under the race detector, internal/analyzers
# included: 107 s on a shared 2-vCPU box, where the parent's run
# without internal/analyzers took 110 s back to back.
race:
	$(GO) test -race ./...

# Benchmark smoke (part of `make check`): the sharded Ensure hot path
# under a Zipf working set and under one goroutine per device at 1..64
# devices, one iteration of each BenchmarkSimulate cell, the
# benchmark whose CPU profile gives the simulator's per-layer rows (the
# write-barrier share of the event loop, DESIGN.md §6), one plan build
# of each of those cells (BenchmarkPlan, the scheduler's own layer,
# allocations included), and ten
# iterations of BenchmarkRunProject, every harmonylint pass over the
# loaded live tree, Program built (its ns/op, B/op and allocs/op are
# the linter's layer row, warm: ten iterations, not the first), and one
# iteration of every BenchmarkDenseStep row, the nn kernels' layer row
# (one replica's Dense kernel sequence on each harmonybench train
# shape, forward and backward GFLOP/s apart, and the swap and pp
# shapes' backward with its SGD update, fused against unfused). The ns/op
# numbers are by hand; what the Ensure curve shows — a resident Ensure
# takes no lock another device can hold — is a test
# (TestEnsureHitTakesOnlyItsOwnShard), so this target only proves the
# benches compile and run clean.
bench-contend:
	$(GO) test -run XXX -bench 'BenchmarkEnsureContended|BenchmarkVMEvictionZipf' -benchtime 10000x ./internal/exec/
	$(GO) test -run XXX -bench BenchmarkSimulate -benchtime 1x .
	$(GO) test -run XXX -bench BenchmarkPlan -benchmem -benchtime 1x ./internal/sched/
	$(GO) test -run XXX -bench BenchmarkRunProject -benchmem -benchtime 10x ./internal/analyzers/
	$(GO) test -run XXX -bench BenchmarkDenseStep -benchtime 1x ./internal/nn/

# The paired-run protocol that decides a performance claim
# (EXPERIMENTS.md, "Making a performance claim"): per workload, PAIRS
# alternating runs (ten by default) of the benchmark BENCHMARK.json
# declares on REF and on the working tree, then one traced pass a
# side. Fails on a regression past a metric's declared bound, an unmet
# CLAIM (metric@workload) or a higher share of failed ops. The report
# prints here; the per-run JSON lines land in benchpair.jsonl. About
# 25 min for all six workloads at PAIRS=5.
bench-pair:
	@test -n "$(REF)" || { echo "usage: make bench-pair REF=<commit> [PAIRS=n] [WORKLOADS=a,b] [CLAIM=metric@workload]"; exit 2; }
	$(GO) run ./cmd/benchpair -ref $(REF) $(if $(PAIRS),-pairs $(PAIRS)) $(if $(WORKLOADS),-workloads $(WORKLOADS)) $(if $(CLAIM),-claim $(CLAIM)) > benchpair.jsonl

# Time-boxed fuzzing: the checkpoint loader must reject arbitrary
# bytes with errors (never panics or huge allocations), the fault-spec
# grammar must accept only rules an injector can evaluate, and the mode,
# -retune and -widths parsers must accept only values that render and
# parse back to themselves.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 10s -test.fuzzminimizetime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -test.fuzzminimizetime 5s ./internal/fault/
	$(GO) test -run '^$$' -fuzz '^FuzzParseMode$$' -fuzztime 5s -test.fuzzminimizetime 5s ./internal/sched/
	$(GO) test -run '^$$' -fuzz '^FuzzParseRetune$$' -fuzztime 5s -test.fuzzminimizetime 5s ./cmd/harmonytrain/
	$(GO) test -run '^$$' -fuzz '^FuzzParseWidths$$' -fuzztime 5s -test.fuzzminimizetime 5s ./cmd/harmonytrain/

# Code-size ledger for the simplicity PRs: non-blank, non-comment,
# non-test Go lines per package, or per file of one package with
# `make loc PKG=internal/exec`. Pure shell; a line counts as a comment
# when it starts with //.
loc:
	@count() { cat "$$@" | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'; }; \
	src() { ls $$1/*.go | grep -v '_test\.go$$'; }; \
	pkgs="$(PKG)"; \
	if [ -n "$$pkgs" ]; then \
		for f in $$(src $$pkgs); do printf '%6d  %s\n' $$(count $$f) $$f; done; \
	else \
		pkgs=$$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path '*/testdata/*' | xargs -n1 dirname | sort -u | sed 's|^\./||'); \
	fi; \
	for d in $$pkgs; do printf '%6d  %s\n' $$(count $$(src $$d)) $$d; done

check: lint build test bench-test race fuzz bench-contend
