package harmony

import (
	"harmony/internal/data"
	"harmony/internal/exec"
	"harmony/internal/fault"
	"harmony/internal/nn"
)

// TrainerConfig configures real (float32) training of a classifier on
// capacity-limited virtual devices: the executor's own (see its fields
// for every default and refusal).
type TrainerConfig = exec.TrainerConfig

// Trainer trains a real model through Harmony's runtime: the
// executor's own.
type Trainer = exec.Trainer

// NewTrainer validates the configuration and builds a trainer for the
// MLP of cfg.Widths.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) { return exec.NewTrainer(cfg, nil) }

// NewLeNetTrainer builds a trainer for a LeNet-5-style convolutional
// classifier on 32×32 single-channel inputs (10 classes) — the 1998
// starting point of the paper's Fig. 1 — running through the same
// coherent virtual memory as the MLP trainer. cfg.Widths is ignored.
func NewLeNetTrainer(cfg TrainerConfig) (*Trainer, error) {
	return exec.NewTrainer(cfg, []nn.Kernel{
		nn.Conv2D{Cin: 1, H: 32, W: 32, Cout: 6, K: 5, ReLU: true},
		nn.MaxPool2D{C: 6, H: 28, W: 28, P: 2},
		nn.Conv2D{Cin: 6, H: 14, W: 14, Cout: 16, K: 5, ReLU: true},
		nn.MaxPool2D{C: 16, H: 10, W: 10, P: 2},
		nn.Dense{In: 16 * 5 * 5, Out: 120, ReLU: true},
		nn.Dense{In: 120, Out: 84, ReLU: true},
		nn.Dense{In: 84, Out: 10},
	})
}

// FaultEvent is one fault-injection notification: an injected fault
// or a retry (see Trainer.OnFault). Alias of the internal injector's
// event.
type FaultEvent = fault.Event

// Stats reports real data-movement counters (bytes actually copied
// between virtual device memory and host backing).
type Stats = exec.VMStats

// LinkStats is the modeled busy time of each link — the host uplink
// and every device's own — under LinkBytesPerSec: the busiest one is
// the plan's bottleneck.
type LinkStats = exec.LinkStats

// CommStats reports chunked-collective counters: chunk reductions run
// and per-replica bytes reduced. Zero on monolithic plans (CommChunks
// unset). Alias of the internal executor's counters.
type CommStats = exec.CommStats

// Blobs re-exports the synthetic dataset generator used by the
// examples: Gaussian class blobs.
type Blobs = data.Blobs

// NewBlobs creates a deterministic synthetic classification dataset.
func NewBlobs(dim, classes int, noise float32, seed uint64) *Blobs {
	return data.NewBlobs(dim, classes, noise, seed)
}
