package harmony

import (
	"fmt"
	"io"

	"harmony/internal/data"
	"harmony/internal/exec"
	"harmony/internal/fault"
	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/trace"
)

// TrainerConfig configures real (float32) training of an MLP
// classifier on capacity-limited virtual devices — the end-to-end
// demonstration of Harmony's coherent virtual memory. Users write
// against one logical model "as if running sequentially on a single
// device" (paper §3); Harmony decomposes, schedules and swaps.
type TrainerConfig struct {
	// Widths is the MLP shape: input dimension, hidden layers...,
	// number of classes.
	Widths []int
	// Mode and Devices select the parallel strategy. The op-sharded
	// modes (TPBaseline, HarmonyTP) run in Simulate and Tune only.
	Mode    Mode
	Devices int
	// DeviceBytes is each virtual device's memory capacity. Set it
	// below the model footprint (see Trainer.FootprintBytes) to
	// exercise virtualized training.
	DeviceBytes int64
	// BatchSize is the per-replica samples per iteration; Harmony
	// splits it into Microbatches microbatches (default: one sample
	// per microbatch up to 8 microbatches).
	BatchSize    int
	Microbatches int
	// Adam selects the Adam optimizer (SGD otherwise); LR is the
	// learning rate (default 0.05 SGD, 0.005 Adam).
	Adam bool
	LR   float32
	Seed uint64
	// Toggles override the mode's default optimizations.
	// LookaheadEviction and DeferBlockedUpdates act in the simulator
	// only: NewTrainer rejects a Toggles that sets either.
	Toggles *Toggles
	// Serial forces the single-threaded reference executor instead of
	// the default parallel device-worker executor. Both produce
	// bit-identical weights and losses; Serial exists for determinism
	// tests and ablation benchmarks.
	Serial bool
	// FaultSpec, when non-empty, arms deterministic fault injection
	// seeded by Seed. A spec is ";"-separated rules of ","-separated
	// key=value fields: op (kernel, swap-in, swap-out, p2p,
	// collective, any), mode (transient, fatal, delay), dev, step,
	// layer, count, prob, delay. Example:
	// "step=3,dev=1,op=kernel,mode=fatal;op=swap-in,count=2".
	FaultSpec string
	// MaxRetries bounds retries per faulted operation (0 = default 3,
	// negative disables).
	MaxRetries int
	// Recover enables rollback-and-resume after fatal device faults:
	// the dead device's work is re-bound to survivors and the step is
	// re-run from the last completed weight update.
	Recover bool
	// PrefetchDepth controls schedule-driven prefetch in the parallel
	// executor: async DMA workers swap in the inputs of the next
	// PrefetchDepth tasks of each device's queue while its current
	// kernel runs, and proactively write back dirty LRU pages. 0 uses
	// the mode's default (2 for Harmony modes, off for baselines);
	// negative disables. Prefetch changes only data movement, never
	// math — weights stay bit-identical at every depth.
	PrefetchDepth int
	// AdaptivePrefetch turns the fixed lookahead into an online
	// controller: each device's window and async-DMA byte budget are
	// retuned between iterations from that device's own coverage and
	// demand counters, keyed to the step counter — never wall time —
	// so adaptive runs stay bit-exact and their resize decision logs
	// replay identically (see Trainer.AdaptLog). Implies prefetch;
	// PrefetchDepth is the starting window. The serial executor never
	// prefetches, so Serial+AdaptivePrefetch is the static reference.
	AdaptivePrefetch bool
	// LinkBytesPerSec is the bandwidth of every modeled link: one per
	// device plus the one host uplink they share, the paper's Fig. 1
	// server. A swap reserves bytes/LinkBytesPerSec on its device's
	// link and on the uplink — so devices swapping at once share the
	// uplink instead of each getting all of it (Fig. 2(a)) — a p2p
	// copy on the two devices' links, a gradient reduction on the
	// reducer's. Reservations on a link never overlap; the transferring
	// lane waits for its own to end, in sleeps of at least 2 ms, a
	// smaller remainder carried forward as debt: modeled time is
	// batched, never forgiven. 0 disables modeling (transfers cost only
	// memcpy time); negative is rejected. Useful for benchmarking how
	// well prefetch hides swap latency and which link bounds a plan
	// (Trainer.LinkStats).
	LinkBytesPerSec int64
	// NoVerify skips the static preflight verification of the
	// execution plan (internal/schedcheck): happens-before liveness,
	// peak-residency fit and swap-volume agreement with the analytic
	// model. Verification is on by default; a rejected plan fails
	// NewTrainer with a counterexample trace.
	NoVerify bool
	// CommChunks splits each gradient AllReduce into that many
	// independently retired chunks, spread across device workers in
	// fixed k mod N order, so reduction overlaps backward compute
	// instead of parking every worker at one rendezvous. Chunk
	// boundaries and reducer assignment are fixed at plan time, and the
	// per-element summation order never changes — results stay
	// bit-identical to the monolithic path at every setting. 0 keeps
	// the monolithic rendezvous.
	CommChunks int
	// CommBucketBytes coalesces small per-layer gradients into
	// byte-budgeted buckets (DDP-style, packed in reverse layer order)
	// that share one rendezvous; each bucket is then chunked per
	// CommChunks (implied to 1 if unset). 0 keeps one bucket per
	// layer. Bucketing regroups JIT weight updates after the bucket's
	// deepest backward — queue order changes, math does not.
	CommBucketBytes int64
}

// Trainer trains a real model through Harmony's runtime.
type Trainer struct {
	inner   *exec.Trainer
	inj     *fault.Injector
	widths  []int
	mbSize  int
	mbCount int
}

// FaultEvent is one fault-injection notification: an injected fault
// or a retry (see OnFault). Alias of the internal injector's event.
type FaultEvent = fault.Event

// NewTrainer validates the configuration and builds the trainer.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	return newTrainer(cfg, cfg.Widths, nil)
}

// newTrainer builds a trainer for an explicit kernel stack, or for the
// MLP of the given widths when kernels is nil; widths[0] is the input
// dimension Step slices batches by either way.
func newTrainer(cfg TrainerConfig, widths []int, kernels []nn.Kernel) (*Trainer, error) {
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("harmony: BatchSize must be positive")
	}
	if cfg.Microbatches < 0 {
		return nil, fmt.Errorf("harmony: Microbatches %d is negative (0 = one sample per microbatch, up to 8)", cfg.Microbatches)
	}
	mbCount := cfg.Microbatches
	if mbCount == 0 {
		mbCount = min(cfg.BatchSize, 8)
	}
	if cfg.BatchSize%mbCount != 0 {
		return nil, fmt.Errorf("harmony: BatchSize %d not divisible into %d microbatches", cfg.BatchSize, mbCount)
	}
	lr := cfg.LR
	if lr == 0 {
		if cfg.Adam {
			lr = 0.005
		} else {
			lr = 0.05
		}
	}
	opt := exec.SGD
	if cfg.Adam {
		opt = exec.Adam
	}
	var schedOpts *sched.Options
	if tg := cfg.Toggles; tg != nil {
		// exec.VM evicts by LRU and no device worker runs past a
		// blocked update: refuse what would be accepted to no effect.
		if tg.LookaheadEviction != nil {
			return nil, fmt.Errorf("harmony: TrainerConfig.Toggles.LookaheadEviction acts in Simulate and Tune only")
		}
		if tg.DeferBlockedUpdates != nil {
			return nil, fmt.Errorf("harmony: TrainerConfig.Toggles.DeferBlockedUpdates acts in Simulate and Tune only")
		}
		o := tg.apply(sched.DefaultOptions(cfg.Mode))
		schedOpts = &o
	}
	inj, err := fault.Parse(cfg.FaultSpec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	inner, err := exec.NewTrainer(exec.TrainerConfig{
		Widths:           widths,
		Kernels:          kernels,
		Mode:             cfg.Mode,
		Devices:          cfg.Devices,
		DeviceBytes:      cfg.DeviceBytes,
		MicrobatchSize:   cfg.BatchSize / mbCount,
		Microbatches:     mbCount,
		Optimizer:        opt,
		LR:               lr,
		Seed:             cfg.Seed,
		Options:          schedOpts,
		Serial:           cfg.Serial,
		Injector:         inj,
		MaxRetries:       cfg.MaxRetries,
		Recover:          cfg.Recover,
		PrefetchDepth:    cfg.PrefetchDepth,
		AdaptivePrefetch: cfg.AdaptivePrefetch,
		LinkBytesPerSec:  cfg.LinkBytesPerSec,
		NoVerify:         cfg.NoVerify,
		CommChunks:       cfg.CommChunks,
		CommBucketBytes:  cfg.CommBucketBytes,
	})
	if err != nil {
		return nil, err
	}
	return &Trainer{
		inner:   inner,
		inj:     inj,
		widths:  widths,
		mbSize:  cfg.BatchSize / mbCount,
		mbCount: mbCount,
	}, nil
}

// Step runs one iteration on a flattened [BatchSize×Widths[0]] input
// and its labels, returning the mean loss. For multi-replica (DP)
// modes the same batch shape is required per replica, so inputs and
// labels must hold Replicas()×BatchSize samples.
func (t *Trainer) Step(inputs []float32, labels []int) (float32, error) {
	n := t.inner.Replicas()
	inDim := t.widths[0]
	samples := n * t.mbSize * t.mbCount
	if len(labels) != samples {
		return 0, fmt.Errorf("harmony: Step needs %d labels (%d replicas × %d samples), got %d",
			samples, n, samples/n, len(labels))
	}
	if len(inputs) != samples*inDim {
		return 0, fmt.Errorf("harmony: Step needs %d inputs (%d samples × %d features), got %d",
			samples*inDim, samples, inDim, len(inputs))
	}
	in := make([][][]float32, n)
	lb := make([][][]int, n)
	for r := 0; r < n; r++ {
		in[r] = make([][]float32, t.mbCount)
		lb[r] = make([][]int, t.mbCount)
		for i := 0; i < t.mbCount; i++ {
			off := (r*t.mbCount + i) * t.mbSize
			in[r][i] = inputs[off*inDim : (off+t.mbSize)*inDim]
			lb[r][i] = labels[off : off+t.mbSize]
		}
	}
	return t.inner.Step(in, lb)
}

// Predict runs inference with the current weights and returns logits
// for a flattened [batch×Widths[0]] input.
func (t *Trainer) Predict(inputs []float32, batch int) ([]float32, error) {
	return t.inner.Predict(inputs, batch)
}

// Replicas reports the number of data-parallel model replicas.
func (t *Trainer) Replicas() int { return t.inner.Replicas() }

// SamplesPerStep is the total samples one Step consumes.
func (t *Trainer) SamplesPerStep() int { return t.inner.Replicas() * t.mbSize * t.mbCount }

// FootprintBytes is the persistent model footprint per replica set.
func (t *Trainer) FootprintBytes() int64 { return t.inner.FootprintBytes() }

// Stats reports real data-movement counters (bytes actually copied
// between virtual device memory and host backing).
type Stats = exec.VMStats

// Stats returns accumulated data-movement counters.
func (t *Trainer) Stats() Stats { return t.inner.Stats() }

// LinkStats is the modeled busy time of each link — the host uplink
// and every device's own — under LinkBytesPerSec: the busiest one is
// the plan's bottleneck.
type LinkStats = exec.LinkStats

// LinkStats returns the modeled links' accumulated busy time; all zero
// when LinkBytesPerSec is 0. Call it between Steps.
func (t *Trainer) LinkStats() LinkStats { return t.inner.LinkStats() }

// CommStats reports chunked-collective counters: chunk reductions run
// and per-replica bytes reduced. Zero on monolithic plans (CommChunks
// unset). Alias of the internal executor's counters.
type CommStats = exec.CommStats

// CommStats returns accumulated chunked-collective counters. Safe to
// call between Steps.
func (t *Trainer) CommStats() CommStats { return t.inner.CommStats() }

// OnFault installs an observer notified of every injected fault and
// retry (for timelines and logging). The observer may be called from
// device-worker goroutines and must be safe for concurrent use; it
// must not call back into the trainer.
func (t *Trainer) OnFault(fn func(FaultEvent)) { t.inj.Observe(fn) }

// FaultStats reports how many faults were injected and how many
// retries the retry layers issued.
func (t *Trainer) FaultStats() (injected, retries int) { return t.inj.Stats() }

// EnableTrace starts recording a wall-clock execution timeline:
// compute kernels plus demand-swap, p2p, prefetch and write-back DMA
// lanes per device (with LinkBytesPerSec set, a DMA span is the copy's
// reservation on the modeled link). Returns the live trace; read it
// only between Steps. The swap-overlap Gantt this renders is how prefetch
// effectiveness is eyeballed (see cmd/harmonytrain -swap-trace).
func (t *Trainer) EnableTrace() *trace.Trace { return t.inner.EnableTrace() }

// Close drains and stops the trainer's async DMA workers. Only needed
// when discarding a trainer that ran with prefetch enabled; step
// boundaries drain in-flight DMAs on their own.
func (t *Trainer) Close() { t.inner.Close() }

// Recoveries reports how many fatal device faults the trainer rolled
// back from and resumed past.
func (t *Trainer) Recoveries() int { return t.inner.Recoveries() }

// Blobs re-exports the synthetic dataset generator used by the
// examples: Gaussian class blobs.
type Blobs = data.Blobs

// NewBlobs creates a deterministic synthetic classification dataset.
func NewBlobs(dim, classes int, noise float32, seed uint64) *Blobs {
	return data.NewBlobs(dim, classes, noise, seed)
}

// NewLeNetTrainer builds a trainer for a LeNet-5-style convolutional
// classifier on 32×32 single-channel inputs (10 classes) — the 1998
// starting point of the paper's Fig. 1 — running through the same
// coherent virtual memory as the MLP trainer.
func NewLeNetTrainer(cfg TrainerConfig) (*Trainer, error) {
	return newTrainer(cfg, []int{32 * 32, 10}, []nn.Kernel{
		nn.Conv2D{Cin: 1, H: 32, W: 32, Cout: 6, K: 5, ReLU: true},
		nn.MaxPool2D{C: 6, H: 28, W: 28, P: 2},
		nn.Conv2D{Cin: 6, H: 14, W: 14, Cout: 16, K: 5, ReLU: true},
		nn.MaxPool2D{C: 16, H: 10, W: 10, P: 2},
		nn.Dense{In: 16 * 5 * 5, Out: 120, ReLU: true},
		nn.Dense{In: 120, Out: 84, ReLU: true},
		nn.Dense{In: 84, Out: 10},
	})
}

// AdaptDecision is one adaptive-prefetch controller decision: which
// device resized which knob (window or budget) at which step, and why.
type AdaptDecision = exec.AdaptDecision

// AdaptWindowStats summarizes one device's window trajectory: the
// extremes it visited and how many resizes the controller took.
type AdaptWindowStats = exec.AdaptWindowStats

// AdaptLog returns a copy of the adaptive-prefetch decision log.
// Decisions are keyed to the step counter, so two seeded runs of the
// same config return deep-equal logs; empty unless AdaptivePrefetch
// is on and the parallel executor is in use.
func (t *Trainer) AdaptLog() []AdaptDecision { return t.inner.AdaptLog() }

// AdaptStats returns per-device window extremes and resize counts;
// nil when the plan is not adaptive.
func (t *Trainer) AdaptStats() []AdaptWindowStats { return t.inner.AdaptStats() }

// Retune reshapes the execution plan between Steps to the given number
// of microbatches per replica. BatchSize must stay divisible; the batch
// itself never changes, so Step keeps accepting the same input shape.
// The candidate plan runs the full static preflight first — an
// infeasible retune returns the verifier's counterexample and the
// current plan keeps running untouched. Training state (weights,
// optimizer, step counter) survives adoption.
func (t *Trainer) Retune(microbatches int) error {
	batch := t.mbSize * t.mbCount
	if microbatches <= 0 || batch%microbatches != 0 {
		return fmt.Errorf("harmony: cannot split BatchSize %d into %d microbatches", batch, microbatches)
	}
	req := exec.RetuneRequest{MicrobatchSize: batch / microbatches, Microbatches: microbatches}
	if err := t.inner.Retune(req); err != nil {
		return err
	}
	t.mbSize, t.mbCount = req.MicrobatchSize, req.Microbatches
	return nil
}

// Save writes a checkpoint of the model's weights, optimizer state
// and step counter (dirty device copies are synced first).
func (t *Trainer) Save(w io.Writer) error { return t.inner.Save(w) }

// Load restores a checkpoint into all replicas; the architecture must
// match.
func (t *Trainer) Load(r io.Reader) error { return t.inner.Load(r) }
