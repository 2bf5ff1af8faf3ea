// Package harmony is a Go reproduction of "Doing more with less:
// Training large DNN models on commodity servers for the masses"
// (HotOS '21): a training system for single-server multi-GPU
// deployments whose model footprint exceeds aggregate device memory.
//
// Harmony decomposes training into fine-grained tasks (forward,
// backward and weight-update per layer per microbatch), late-binds
// tasks to devices, and builds a coherent virtual memory across all
// device and host memory. Four optimizations drive performance:
// input-batch grouping, just-in-time scheduling, peer-to-peer
// transfers, and load-balanced task packing.
//
// The package exposes three front doors:
//
//   - Simulate runs a training configuration on a calibrated
//     discrete-event model of a commodity GPU server (the substitute
//     for the paper's 4×1080Ti testbed) and reports throughput and
//     swap traffic. Every figure of the paper is regenerated this
//     way (see cmd/figures and internal/experiments).
//
//   - Tune searches the §4 "memory–performance tango": microbatch
//     size, group size, prefetching and update deferral.
//
//   - NewTrainer trains real models (float32 math) on virtual
//     devices with capacity-limited memories, proving the coherent
//     virtual memory end to end: weights come out bit-identical to
//     an unconstrained reference implementation.
package harmony

import (
	"harmony/internal/hw"
	"harmony/internal/sched"
)

// Mode selects the parallel training strategy: the scheduler's own.
type Mode = sched.Mode

const (
	// DPBaseline is data parallelism with naive per-GPU memory
	// virtualization (the IBM-LMS/vDNN baseline of the paper).
	DPBaseline = sched.DPBaseline
	// PPBaseline is 1F1B pipeline parallelism with per-GPU
	// virtualization.
	PPBaseline = sched.PPBaseline
	// HarmonyDP is data parallelism with the paper's optimizations.
	HarmonyDP = sched.HarmonyDP
	// HarmonyPP is pipeline parallelism with the paper's
	// optimizations (including the novel grouped pipeline schedule).
	HarmonyPP = sched.HarmonyPP
	// TPBaseline decomposes each operation into per-GPU subtasks
	// (the paper's second key idea: intra-op sharding) with naive
	// per-GPU virtualization. Simulate and Tune only.
	TPBaseline = sched.TPBaseline
	// HarmonyTP is intra-op sharding with the Harmony optimizations.
	// Simulate and Tune only.
	HarmonyTP = sched.HarmonyTP
)

// Toggles exposes the paper's optimizations individually for
// ablation: the scheduler's own. Input-batch grouping is the wave
// shape, GroupSize (1 = off, 0 = the mode's default) and WaveInterleave:
// GroupSize 1 with WaveInterleave is the baselines' microbatch loop, or
// 1F1B in a pipeline. LookaheadEviction and DeferBlockedUpdates act in
// Simulate and Tune only; NewTrainer refuses a Toggles that sets either.
type Toggles = sched.Toggles

// Bool is a convenience for building Toggles literals.
func Bool(v bool) *bool { return &v }

// Server describes the hardware to simulate. The zero value is not
// usable; start from CommodityServer or DenseServer.
type Server struct {
	cfg hw.BoxConfig
}

// CommodityServer is the paper's testbed: numGPUs GTX-1080Ti-class
// GPUs (11 GB each) behind PCIe switches with an oversubscribed host
// link.
func CommodityServer(numGPUs int) Server {
	return Server{cfg: hw.Commodity1080TiBox(numGPUs)}
}

// DenseServer is an 8-GPU 4U box with 4 GPUs per switch (8:1-class
// oversubscription).
func DenseServer(numGPUs int) Server {
	return Server{cfg: hw.DenseBox(numGPUs)}
}

// Cluster joins several commodity servers over InfiniBand-class NICs
// (the paper's §4 multi-machine extension). Each machine keeps its
// own host memory — and therefore its own swap bandwidth.
func Cluster(servers, gpusPerServer int) Server {
	return Server{cfg: hw.CommodityCluster(servers, gpusPerServer)}
}

// WithGPUMemory overrides per-GPU memory capacity in bytes.
func (s Server) WithGPUMemory(bytes int64) Server {
	s.cfg.GPUMemBytes = bytes
	return s
}

// WithNVLink adds an all-to-all NVLink-class interconnect of the
// given bandwidth (bytes/s) for ablations.
func (s Server) WithNVLink(bandwidth float64) Server {
	s.cfg.NVLinkBandwidth = bandwidth
	return s
}

// WithHostLinkBandwidth overrides the shared host-link bandwidth
// (bytes/s), the Fig. 2(b) bottleneck.
func (s Server) WithHostLinkBandwidth(bw float64) Server {
	s.cfg.HostLinkBandwidth = bw
	return s
}

// GPUs returns the cluster-wide GPU count.
func (s Server) GPUs() int { return s.cfg.TotalGPUs() }

// Box exposes the underlying configuration for advanced callers.
func (s Server) Box() hw.BoxConfig { return s.cfg }
