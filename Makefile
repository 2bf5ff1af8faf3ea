# Developer entry points. `make check` is the tier-1 gate: everything
# a change must pass before merging, including the invariant linter
# (harmonylint), the race detector over the nine packages with
# concurrency or plan code the executor runs (see `race`), and a
# time-boxed fuzz of the checkpoint loader.

GO ?= go

.PHONY: all build vet lint lint-sarif lint-self lint-budget test bench-test race bench bench-contend bench-json bench-smoke bench-gate schedcheck fuzz loc check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static enforcement of the executor's concurrency and determinism
# invariants (DESIGN.md §10): blocking under vm.mu, DMA
# claim-state writes outside the transition helpers, wall-clock/rand/
# map-order nondeterminism in the deterministic core, mutex copies —
# plus the interprocedural passes (the global lock-order graph,
# goroutine and done-channel lifecycle, the claimword/schedcheck
# protocol cross-check, call-chain taint flow) and the path-sensitive
# CFG passes (pin balance, claim lifecycle, error-path lock/snapshot
# leaks). The ./... pattern covers cmd/ and internal/ alike. Runs from
# the module root; exits non-zero on findings.
lint: vet
	$(GO) run ./cmd/harmonylint ./...

# SARIF log for CI code scanning: same findings and exit code as
# `make lint`, but the report lands in harmonylint.sarif either way so
# the workflow can upload it and annotate the PR.
lint-sarif:
	@$(GO) run ./cmd/harmonylint -sarif ./... > harmonylint.sarif; \
	code=$$?; echo "wrote harmonylint.sarif"; exit $$code

# The linter analyzes itself: internal/analyzers and the harmonylint
# CLI are ordinary concurrent Go and get no exemption from their own
# rules.
lint-self:
	$(GO) run ./cmd/harmonylint ./internal/analyzers/... ./cmd/harmonylint

# Developer-loop latency guard for the full lint run. The
# interprocedural engine (call-graph summaries + fixpoints) and the
# CFG dataflow passes reuse one load and one Program per run — per-
# function CFGs are built lazily and cached on it — so the whole suite
# pays for type-checking once; this fails if the run exceeds
# LINT_BUDGET seconds (~3x the current measured ~9s wall time, with
# headroom for slower CI machines).
LINT_BUDGET ?= 30
lint-budget:
	@start=$$(date +%s); \
	$(GO) run ./cmd/harmonylint ./... || exit $$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "harmonylint wall time: $${elapsed}s (budget $(LINT_BUDGET)s)"; \
	[ $$elapsed -le $(LINT_BUDGET) ] || { echo "lint exceeded its wall-time budget"; exit 1; }

test:
	$(GO) test ./...

# bench/ is a nested module (the harmonybench harness behind
# BENCHMARK.json), so `go test ./...` from the root never reaches its
# unit and smoke tests; this does (~15 s).
bench-test:
	$(GO) test -C bench ./...

# The packages that spawn goroutines or take locks — the exec executor,
# memory manager and collectives (real concurrency, async error
# delivery), the nn kernel worker pool, the fault injector and the
# parallel sweep — plus the plan code exec runs on its workers (sched's
# weave, schedcheck's proofs, the tuner's preflight); race-check them
# specifically (the full suite under -race is much slower).
race:
	$(GO) test -race ./internal/exec/... ./internal/memory/... ./internal/collective/... \
		./internal/nn/... ./internal/fault/... ./internal/sweep/... \
		./internal/sched/... ./internal/schedcheck/... ./internal/tuner/...

# Executor ablation: serial reference vs parallel device workers,
# plus the swap-bound sync-vs-prefetch matrix; then the step's two
# per-element layers alone — the Dense kernel sequence of the three
# MLP shapes harmonybench trains (nominal GFLOP/s, forward and
# backward) and one collective chunk of its comm-bound shape.
bench:
	$(GO) test -run XXX -bench 'BenchmarkTrainerStep' -benchmem .
	$(GO) test -run XXX -bench 'BenchmarkDenseStep' -benchmem ./internal/nn/
	$(GO) test -run XXX -bench 'BenchmarkReduceChunk' -benchmem ./internal/exec/

# Contention-scaling smoke (part of `make check`): the sharded Ensure
# hot path under a Zipf working set and under one goroutine per device
# at 1..64 devices. The full ns/op flatness guard lives in bench-gate;
# this target just proves both benches run clean.
bench-contend:
	$(GO) test -run XXX -bench 'BenchmarkEnsureContended|BenchmarkVMEvictionZipf' -benchtime 10000x ./internal/exec/

# Machine-readable swap-overlap report: sync vs static prefetch vs
# adaptive prefetch per-step times, swap volumes, DMA overlap
# fractions and window trajectories on the swap-bound configs.
# Regenerates the checked-in BENCH_trainer.json.
bench-json:
	$(GO) run ./cmd/benchtrainer -steps 4 -out BENCH_trainer.json

# One-step smoke of the same harness (part of `make check`): proves
# the sync and prefetch paths both train and the report writes.
bench-smoke:
	$(GO) run ./cmd/benchtrainer -steps 1 -out /dev/null

# Performance regression gate: regenerate the swap-overlap report and
# fail if (a) the swap-bound config's prefetch speedup dropped >20%
# against the checked-in baseline, (b) the adaptive controller hides
# >5 points less DMA overlap than the static window on the same row,
# (c) the sharded Ensure hot path stopped scaling — ns/op growing
# >15% from 16 to 64 devices means a cross-device lock is back on the
# claim path — or (d) chunked collectives on the dp4-comm row lost
# their edge: >10% slower than the monolithic rendezvous in the same
# report, or comm overlap >5 points below the checked-in baseline.
# CI runs this on every push.
bench-gate:
	$(GO) run ./cmd/benchtrainer -steps 4 -out /tmp/BENCH_trainer.new.json
	$(GO) run ./cmd/benchgate -old BENCH_trainer.json -new /tmp/BENCH_trainer.new.json -row dp1-hostlink -max-regress 0.20 -max-scale-degrade 0.15 -max-comm-overlap-drop 0.05 -max-comm-slowdown 0.10

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
# bytes with errors (never panics or huge allocations), the retuner
# must admit only plans that pass the schedcheck preflight, whatever
# the measured profile claims, and the fault-spec grammar must accept
# only rules an injector can evaluate.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 10s -test.fuzzminimizetime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz FuzzRetune -fuzztime 10s -test.fuzzminimizetime 5s ./internal/tuner/
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

check: lint build test bench-test race fuzz bench-smoke bench-contend schedcheck
