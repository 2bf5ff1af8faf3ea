# Developer entry points. `make check` is the tier-1 gate: everything
# a change must pass before merging — vet, gofmt and the invariant
# linter (harmonylint), the build, both modules' tests, the race
# detector over the root module (see `race`), the time-boxed fuzzes,
# the contention bench smoke and the static plan-verification gate.
# Performance is not gated here: a claim is decided by `make
# bench-pair`.

GO ?= go

.PHONY: all build vet lint lint-sarif test bench-test race bench-contend bench-pair schedcheck fuzz loc check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static enforcement of the executor's concurrency and determinism
# invariants (DESIGN.md §10), one gate each. go vet holds copied locks
# (copylocks); gofmt -l must name no file (.bench_build/ is the
# benchmark's build cache); harmonylint holds blocking under vm.mu, DMA
# claim-state writes outside the transition helpers, wall-clock/rand/
# map-order nondeterminism in the deterministic core — plus the
# interprocedural passes (the global lock-order graph, goroutine and
# done-channel lifecycle, call-chain taint flow) and the
# path-sensitive CFG passes (pin balance, claim lifecycle, error-path
# lock/snapshot leaks). The ./... pattern covers cmd/ and internal/
# alike, the linter's own packages included. Runs from the module
# root in about half a second, on the build cache vet has just
# filled; exits non-zero on findings.
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
test:
	$(GO) test ./...
	GOARCH=386 $(GO) test ./internal/nn
	GOARCH=arm64 $(GO) build ./...

# bench/ is a nested module (the harmonybench harness behind
# BENCHMARK.json), so `go test ./...` from the root never reaches its
# unit tests and its -smoke pass, which drives every workload and
# every reference variant (sync, prefetch, adaptive, chunked,
# monolithic, serial) through the real trainer; this does (~15 s).
bench-test:
	$(GO) test -C bench ./...

# The whole root module under the race detector (~30 s), except
# internal/analyzers: the analyzers are single-threaded, and their
# tests, which type-check the fixtures' standard-library imports from
# source over and over, take another 40 s under -race to find that
# out.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v internal/analyzers)

# Contention-scaling smoke (part of `make check`): the sharded Ensure
# hot path under a Zipf working set and under one goroutine per device
# at 1..64 devices. The ns/op curve is the by-hand number; what it
# shows — a resident Ensure takes no lock another device can hold — is
# a test (TestEnsureHitTakesOnlyItsOwnShard), so this target only
# proves both benches run clean.
bench-contend:
	$(GO) test -run XXX -bench 'BenchmarkEnsureContended|BenchmarkVMEvictionZipf' -benchtime 10000x ./internal/exec/

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

# Static plan verification gate (part of `make check`): every clean
# plan shape must PASS, and each seeded plan bug — rendezvous cycle,
# analytic-volume divergence, over-capacity residency, uncommitted DMA
# claim — must be rejected with a counterexample, both by the CLI and
# by the harmonytrain preflight. The exhaustive per-variant sweep runs
# in the schedcheck package tests (TestPropertySweep).
schedcheck:
	$(GO) run ./cmd/schedcheck -mode harmony-dp -devices 2
	$(GO) run ./cmd/schedcheck -mode pp-baseline -devices 4 -layers 16 -prefetch=false
	$(GO) run ./cmd/schedcheck -mode harmony-tp -devices 2
	! $(GO) run ./cmd/schedcheck -mode dp-baseline -devices 2 -inject cycle
	! $(GO) run ./cmd/schedcheck -mode dp-baseline -devices 2 -inject volume
	! $(GO) run ./cmd/schedcheck -mode harmony-dp -devices 2 -inject overcap
	! $(GO) run ./cmd/schedcheck -mode harmony-dp -devices 2 -inject uncommitted
	! $(GO) run ./cmd/harmonytrain -arch mlp -widths 64,32,10 -devices 2 -device-mem 16384 -steps 1

# Time-boxed fuzzing: the checkpoint loader must reject arbitrary
# bytes with errors (never panics or huge allocations), and the
# fault-spec grammar must accept only rules an injector can evaluate.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 10s -test.fuzzminimizetime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -test.fuzzminimizetime 5s ./internal/fault/

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

check: lint build test bench-test race fuzz bench-contend schedcheck
