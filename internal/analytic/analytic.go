// Package analytic implements the paper's analytical swap-volume
// model (§3, "Analytical comparison" and Fig. 5): closed-form
// per-iteration swap volumes for every tensor class under the four
// execution modes, assuming the idealized regime where device memory
// holds only one layer-level operation on one microbatch at a time.
//
// Headline results reproduced here:
//
//	DP + per-GPU virtualization: (4m+2)·N·|W|
//	Harmony-DP:                   3·N·|W|
//	Harmony-PP:                   3·|W|
//
// Two forms are provided: Ideal (the paper's formulas) and Corrected,
// which additionally accounts for the boundary layers that remain
// resident across phase transitions in a real LRU system (the last
// layer's weights survive every forward→backward turn, the first
// layer's survive backward→forward and update turns). The simulator
// matches Corrected to within ~1% and Ideal asymptotically in R.
package analytic

import (
	"fmt"

	"harmony/internal/models"
	"harmony/internal/sched"
)

// Params describes one training iteration for the closed forms.
type Params struct {
	// R is the number of layers, M microbatches per replica, N GPUs.
	R, M, N int
	// WBytes is the total weight size |W| = Σ|W_l|; KBytes the total
	// optimizer state |K|; StashPerMB the total stash for one
	// microbatch across all layers; BoundaryActBytes the activation
	// crossing each pipeline stage boundary for one microbatch.
	WBytes           int64
	KBytes           int64
	StashPerMB       int64
	BoundaryActBytes int64
	// FirstWBytes and LastWBytes are |W_0| and |W_{R-1}| for the
	// corrected forms (equal to WBytes/R for uniform models).
	FirstWBytes, LastWBytes int64
}

// FromModel derives Params from a model and training configuration.
func FromModel(m *models.Model, microbatchSize, microbatches, gpus int) Params {
	R := len(m.Layers)
	var boundary int64
	if R > 0 {
		// Representative stage-boundary activation: a middle layer's
		// output for one microbatch.
		boundary = m.Layers[R/2].ActBytesPerSample * int64(microbatchSize)
	}
	return Params{
		R: R, M: microbatches, N: gpus,
		WBytes:           m.WeightBytes(),
		KBytes:           m.OptStateBytes(),
		StashPerMB:       m.ActivationBytes(microbatchSize),
		BoundaryActBytes: boundary,
		FirstWBytes:      m.Layers[0].WeightBytes(),
		LastWBytes:       m.Layers[R-1].WeightBytes(),
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.R <= 0 || p.M <= 0 || p.N <= 0 {
		return fmt.Errorf("analytic: R, M, N must be positive (got %d, %d, %d)", p.R, p.M, p.N)
	}
	if p.WBytes < 0 || p.KBytes < 0 || p.StashPerMB < 0 {
		return fmt.Errorf("analytic: negative sizes")
	}
	return nil
}

// Mode is the scheduler's mode. The closed forms cover the four
// layer-granular modes; the op-sharded ones have none.
type Mode = sched.Mode

const (
	DPBaseline = sched.DPBaseline
	PPBaseline = sched.PPBaseline
	HarmonyDP  = sched.HarmonyDP
	HarmonyPP  = sched.HarmonyPP
)

// WeightVolumeIdeal returns the paper's per-iteration weight swap
// volume (swap-in + swap-out bytes summed over all GPUs).
//
// Derivations (§3): with per-GPU virtualization each GPU swaps W in
// and out for the forward and the backward pass of each of the m
// microbatches (4m swaps) plus once in and out for the update (2),
// replicated across N GPUs. Harmony-DP's input-batch grouping swaps W
// in once per phase and JIT-scheduling writes the updated W out once:
// 3 per GPU. Harmony-PP partitions rather than replicates W, removing
// the factor N.
func WeightVolumeIdeal(mode Mode, p Params) int64 {
	switch mode {
	case DPBaseline:
		return int64(4*p.M+2) * int64(p.N) * p.WBytes
	case PPBaseline:
		// Weights are partitioned across stages; each stage re-swaps
		// its own weights per microbatch exactly like DP does, but
		// without replication.
		return int64(4*p.M+2) * p.WBytes
	case HarmonyDP:
		return 3 * int64(p.N) * p.WBytes
	case HarmonyPP:
		return 3 * p.WBytes
	default:
		panic(fmt.Sprintf("analytic: unknown mode %v", mode))
	}
}

// WeightVolumeCorrected refines the ideal form with the LRU boundary
// effects observed in a real system: tensors touched on both sides of
// a phase transition are not actually evicted and re-fetched.
func WeightVolumeCorrected(mode Mode, p Params) int64 {
	ideal := WeightVolumeIdeal(mode, p)
	switch mode {
	case DPBaseline:
		// Per microbatch: the last layer's W survives the fwd→bwd
		// turn (one in + one out saved) and the first layer's W
		// survives the bwd→fwd turn (or the final update sweep).
		saved := int64(2*p.M)*p.LastWBytes + int64(2*p.M)*p.FirstWBytes
		return ideal - int64(p.N)*saved
	case PPBaseline:
		// The boundary effect applies within each of the N stages for
		// that stage's own first/last layers (uniform model: every
		// boundary layer has the same size). Unlike DP, the 1F1B
		// schedule does not alternate fwd/bwd once per microbatch:
		// stage st runs warm = min(M, N−st) forwards back-to-back
		// before its first backward, and drains the same number of
		// backwards at the end. Only the M−warm+1 fwd→bwd junctions in
		// the steady 1F1B window (and symmetrically bwd→fwd) merge the
		// boundary weights, so each stage saves 2·(M−warm+1) round
		// trips of (first+last), not 2·M. Exception: a single-layer
		// stage has one weight touched by every task, so the weight
		// simply never leaves — zero steady-state traffic. Exact for
		// uniform stages (R divisible by N); cross-checked against the
		// simulator in TestPPCorrectedMatchesSimulation.
		if p.R <= p.N {
			return 0
		}
		var saved int64
		for st := 0; st < p.N; st++ {
			warm := p.N - st
			if warm > p.M {
				warm = p.M
			}
			saved += int64(2*(p.M-warm+1)) * (p.FirstWBytes + p.LastWBytes)
		}
		return ideal - saved
	case HarmonyDP:
		// The last layer's W survives the single fwd→bwd turn and
		// the first layer's survives into the next iteration.
		return ideal - int64(p.N)*(p.LastWBytes+p.FirstWBytes)
	case HarmonyPP:
		// Each stage's last layer survives its fwd→bwd turn and its
		// first layer survives into the next iteration. Single-layer
		// stages degenerate the same way as PPBaseline's: the stage's
		// only weight is touched by every task and never leaves.
		if p.R <= p.N {
			return 0
		}
		return ideal - int64(p.N)*(p.LastWBytes+p.FirstWBytes)
	default:
		panic(fmt.Sprintf("analytic: unknown mode %v", mode))
	}
}

// GradVolumeIdeal returns per-iteration weight-gradient (dW) swap
// volume. |dW| = |W|. Baselines swap dW in and out for every
// microbatch's backward plus the update (Fig. 5(a)); Harmony brings
// it in once for the grouped backward and writes the reset buffer
// out once after the JIT update.
func GradVolumeIdeal(mode Mode, p Params) int64 {
	switch mode {
	case DPBaseline:
		return int64(2*p.M+2) * int64(p.N) * p.WBytes
	case PPBaseline:
		return int64(2*p.M+2) * p.WBytes
	case HarmonyDP:
		return 2 * int64(p.N) * p.WBytes
	case HarmonyPP:
		return 2 * p.WBytes
	default:
		panic(fmt.Sprintf("analytic: unknown mode %v", mode))
	}
}

// OptStateVolumeIdeal returns per-iteration optimizer-state swap
// volume: K is needed exactly once per layer (the update), in and
// out, under every mode — 2|K| per weight copy. Harmony cannot reduce
// it below that; the savings show up in W and dW.
func OptStateVolumeIdeal(mode Mode, p Params) int64 {
	switch mode {
	case DPBaseline, HarmonyDP:
		return 2 * int64(p.N) * p.KBytes
	case PPBaseline, HarmonyPP:
		return 2 * p.KBytes
	default:
		panic(fmt.Sprintf("analytic: unknown mode %v", mode))
	}
}

// StashVolumeIdeal returns per-iteration stashed-activation swap
// volume per replica set: every microbatch's stash is written out
// during the forward pass and read back during the backward pass —
// inherent to virtualized training when the stash exceeds memory.
func StashVolumeIdeal(mode Mode, p Params) int64 {
	switch mode {
	case DPBaseline, HarmonyDP:
		return 2 * int64(p.M) * int64(p.N) * p.StashPerMB
	case PPBaseline, HarmonyPP:
		return 2 * int64(p.M) * p.StashPerMB
	default:
		panic(fmt.Sprintf("analytic: unknown mode %v", mode))
	}
}

// CrossStageVolume returns the per-iteration activation bytes that
// cross pipeline stage boundaries (forward activations plus backward
// gradients): 2·m·(N−1)·|Y_boundary|. For baseline PP this traffic is
// host-bounced (doubling the bytes on the host link); Harmony-PP
// moves it over p2p. Zero for DP modes.
func CrossStageVolume(mode Mode, p Params) int64 {
	if mode == DPBaseline || mode == HarmonyDP {
		return 0
	}
	return 2 * int64(p.M) * int64(p.N-1) * p.BoundaryActBytes
}

// TotalVolumeIdeal sums all modeled tensor classes (host-link bytes;
// cross-stage p2p traffic excluded since it bypasses the host link
// under Harmony-PP).
func TotalVolumeIdeal(mode Mode, p Params) int64 {
	total := WeightVolumeIdeal(mode, p) +
		GradVolumeIdeal(mode, p) +
		OptStateVolumeIdeal(mode, p) +
		StashVolumeIdeal(mode, p)
	if mode == PPBaseline {
		// Host-bounced cross-stage activations: out of the producer
		// plus into the consumer.
		total += 2 * CrossStageVolume(mode, p)
	}
	return total
}

// Speedup returns the paper's headline reduction factors relative to
// the DP baseline for the weight class.
func Speedup(mode Mode, p Params) float64 {
	base := WeightVolumeIdeal(DPBaseline, p)
	v := WeightVolumeIdeal(mode, p)
	if v == 0 {
		return 0
	}
	return float64(base) / float64(v)
}
