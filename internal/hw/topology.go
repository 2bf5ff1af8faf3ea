// Package hw models the hardware of a commodity multi-GPU server: GPU
// devices with bounded memory and a compute stream, dual DMA copy
// engines per GPU, PCIe links, PCIe switches with an oversubscribed
// uplink to host memory, and optional NVLink-style peer-to-peer links.
//
// This is the substitute for the paper's 4× NVIDIA 1080Ti testbed
// (Fig. 2(b)): the phenomena the paper reports — a bottlenecked shared
// host link under data-parallel swapping, and fast device-to-device
// paths that Harmony exploits — are bandwidth and capacity phenomena,
// which this model reproduces with a store-and-forward contention
// model over FIFO link resources.
package hw

import (
	"fmt"
	"math"

	"harmony/internal/sim"
)

// DeviceID identifies a device in a topology. GPUs are numbered from
// zero; Host denotes CPU/host memory.
type DeviceID int

// Host is the pseudo-device for CPU host memory.
const Host DeviceID = -1

func (d DeviceID) String() string {
	if d == Host {
		return "host"
	}
	return fmt.Sprintf("gpu%d", int(d))
}

// Device is a compute device with bounded memory. The host is also a
// Device (with effectively unbounded memory and no compute modeled).
type Device struct {
	ID   DeviceID
	Name string

	// MemBytes is the device memory capacity. 0 means unbounded
	// (used for host memory).
	MemBytes int64

	// FLOPS is peak float32 throughput; Efficiency scales it to an
	// achievable rate for DNN kernels.
	FLOPS      float64
	Efficiency float64

	// Compute serializes kernels (one stream). H2D and D2H are the
	// two DMA copy engines, matching real GPUs, so an inbound and an
	// outbound transfer can overlap but two same-direction transfers
	// on one GPU serialize.
	Compute *sim.FIFO
	H2D     *sim.FIFO
	D2H     *sim.FIFO
}

// KernelTime returns the simulated duration of a kernel performing the
// given floating-point operations on this device.
func (d *Device) KernelTime(flops float64) sim.Time {
	if flops <= 0 {
		return 0
	}
	rate := d.FLOPS * d.Efficiency
	if rate <= 0 {
		panic(fmt.Sprintf("hw: device %s has no compute rate", d.Name))
	}
	return sim.Time(flops / rate)
}

// Link is one direction of a physical interconnect: a FIFO resource
// with a bandwidth. PCIe and NVLink are full duplex, so each physical
// link is represented by two Links.
type Link struct {
	Name      string
	Bandwidth float64 // bytes per second
	Latency   sim.Time
	Res       *sim.FIFO

	// Bytes is the total payload carried, for utilization reports.
	Bytes int64
}

// Route is the ordered set of directional links a transfer traverses
// plus the copy engines it occupies at the endpoints.
type Route struct {
	Links   []*Link
	Engines []*sim.FIFO
}

// Bottleneck returns the minimum bandwidth along the route.
func (r Route) Bottleneck() float64 {
	bw := 0.0
	for i, l := range r.Links {
		if i == 0 || l.Bandwidth < bw {
			bw = l.Bandwidth
		}
	}
	return bw
}

// latency returns the summed link latencies.
func (r Route) latency() sim.Time {
	var t sim.Time
	for _, l := range r.Links {
		t += l.Latency
	}
	return t
}

// BoxConfig describes a single-server deployment.
type BoxConfig struct {
	Name string

	NumGPUs           int
	GPUMemBytes       int64
	GPUFLOPS          float64
	ComputeEfficiency float64

	// PCIeBandwidth is the per-GPU PCIe link bandwidth (each
	// direction). UplinkBandwidth is each PCIe switch's uplink to the
	// host root complex. HostLinkBandwidth is the root-complex path
	// to host memory shared by *all* switches: with N GPUs and one
	// host link of the same x16 bandwidth this is the paper's N:1
	// oversubscription and the Fig. 2(b) bottleneck.
	PCIeBandwidth     float64
	UplinkBandwidth   float64
	HostLinkBandwidth float64
	GPUsPerSwitch     int
	LinkLatency       sim.Time

	// P2P enables direct device-to-device routes through the PCIe
	// switch (same-switch pairs avoid the host uplink entirely).
	// When false, every transfer between GPUs is bounced through
	// host memory (two transfers), matching frameworks that lack
	// peer access.
	P2P bool

	// NVLinkBandwidth, when non-zero, adds a dedicated all-to-all
	// GPU-GPU link of this bandwidth (a DGX-style upgrade used by
	// ablations; the commodity box of the paper has none).
	NVLinkBandwidth float64

	// Servers > 1 builds a multi-machine cluster (paper §4,
	// "Multi-machine training"): NumGPUs is then the per-server GPU
	// count, each server has its own host memory and PCIe tree, and
	// servers are joined by NICs of NICBandwidth (bytes/s, each
	// direction) through a non-blocking cluster switch. Cross-server
	// transfers traverse both NICs; swaps always target the GPU's
	// local host.
	Servers      int
	NICBandwidth float64
	NICLatency   sim.Time
}

// Validate reports configuration errors. A NaN or infinite rate or
// latency is one: every range check below is false for NaN, and the
// simulated clock cannot order a NaN time.
func (c BoxConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"GPUFLOPS", c.GPUFLOPS},
		{"ComputeEfficiency", c.ComputeEfficiency},
		{"PCIeBandwidth", c.PCIeBandwidth},
		{"UplinkBandwidth", c.UplinkBandwidth},
		{"HostLinkBandwidth", c.HostLinkBandwidth},
		{"LinkLatency", float64(c.LinkLatency)},
		{"NVLinkBandwidth", c.NVLinkBandwidth},
		{"NICBandwidth", c.NICBandwidth},
		{"NICLatency", float64(c.NICLatency)},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("hw: %s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case c.NumGPUs <= 0:
		return fmt.Errorf("hw: NumGPUs must be positive, got %d", c.NumGPUs)
	case c.GPUMemBytes <= 0:
		return fmt.Errorf("hw: GPUMemBytes must be positive, got %d", c.GPUMemBytes)
	case c.GPUFLOPS <= 0:
		return fmt.Errorf("hw: GPUFLOPS must be positive")
	case c.ComputeEfficiency <= 0 || c.ComputeEfficiency > 1:
		return fmt.Errorf("hw: ComputeEfficiency must be in (0,1], got %g", c.ComputeEfficiency)
	case c.PCIeBandwidth <= 0:
		return fmt.Errorf("hw: PCIeBandwidth must be positive")
	case c.UplinkBandwidth <= 0:
		return fmt.Errorf("hw: UplinkBandwidth must be positive")
	case c.HostLinkBandwidth <= 0:
		return fmt.Errorf("hw: HostLinkBandwidth must be positive")
	case c.GPUsPerSwitch <= 0:
		return fmt.Errorf("hw: GPUsPerSwitch must be positive, got %d", c.GPUsPerSwitch)
	case c.LinkLatency < 0:
		return fmt.Errorf("hw: LinkLatency must be non-negative")
	case c.Servers < 0:
		return fmt.Errorf("hw: Servers must be non-negative")
	case c.Servers > 1 && c.NICBandwidth <= 0:
		return fmt.Errorf("hw: a cluster needs NICBandwidth")
	case c.NICLatency < 0:
		return fmt.Errorf("hw: NICLatency must be non-negative")
	}
	return nil
}

// TotalGPUs is the cluster-wide GPU count.
func (c BoxConfig) TotalGPUs() int {
	s := c.Servers
	if s <= 1 {
		return c.NumGPUs
	}
	return s * c.NumGPUs
}

// CommodityCluster joins `servers` Commodity1080TiBox machines (each
// with gpusPerServer GPUs) over 100 Gb/s InfiniBand-class NICs.
func CommodityCluster(servers, gpusPerServer int) BoxConfig {
	c := Commodity1080TiBox(gpusPerServer)
	c.Name = "commodity-cluster"
	c.Servers = servers
	c.NICBandwidth = 12.0e9
	c.NICLatency = 2e-6
	return c
}

// Commodity1080TiBox is the paper's testbed: four GTX 1080Ti GPUs
// (11 GB, ~11.3 TFLOPS fp32) in pairs under two PCIe gen3 switches
// whose shared uplinks oversubscribe the path to host memory.
func Commodity1080TiBox(numGPUs int) BoxConfig {
	return BoxConfig{
		Name:              "commodity-1080ti",
		NumGPUs:           numGPUs,
		GPUMemBytes:       11 << 30,
		GPUFLOPS:          11.3e12,
		ComputeEfficiency: 0.35,
		PCIeBandwidth:     12.0e9,
		UplinkBandwidth:   12.0e9,
		HostLinkBandwidth: 12.0e9,
		GPUsPerSwitch:     2,
		LinkLatency:       10e-6,
		P2P:               true,
	}
}

// DenseBox is an 8-GPU 4U server (ASUS ESC8000 class) with 8:1 style
// oversubscription: four GPUs per switch sharing one uplink.
func DenseBox(numGPUs int) BoxConfig {
	c := Commodity1080TiBox(numGPUs)
	c.Name = "dense-8gpu"
	c.GPUsPerSwitch = 4
	return c
}

// Topology is a built hardware instance bound to a simulation engine.
type Topology struct {
	Eng  *sim.Engine
	Cfg  BoxConfig
	Host *Device
	GPUs []*Device

	// Per-GPU PCIe links, one per direction.
	gpuUp   []*Link // GPU -> switch
	gpuDown []*Link // switch -> GPU
	// Per-switch uplinks to the root complex, one per direction.
	swUp   []*Link // switch -> root complex
	swDown []*Link // root complex -> switch
	// Root-complex path to host memory per server, shared by that
	// server's switches: the oversubscribed bottleneck of Fig. 2(b).
	hostUp   []*Link // root complex -> host memory
	hostDown []*Link // host memory -> root complex
	// Per-server NIC links for clusters (nil for single machines).
	nicUp   []*Link
	nicDown []*Link
	// Optional NVLink mesh (symmetric per ordered pair).
	nvlink map[[2]DeviceID]*Link

	// paths[src+1][dst+1] is the resolved src->dst DMA (Host is -1),
	// each pair filled at its first use: a dense table, so a transfer
	// neither rebuilds its route nor hashes anything.
	paths [][]path

	Links []*Link // all links, for reports
}

// path is one entry of the route table: the route, or the error that
// refuses it, with everything Transfer derives from the route.
type path struct {
	resolved bool
	err      error
	links    []*Link
	// res is what a transfer occupies: the copy engines, then the
	// links' FIFOs in route order.
	res       []*sim.FIFO
	bandwidth float64 // bottleneck
	latency   sim.Time
}

// NewBox builds the topology on the given engine. With Servers > 1
// it builds the whole cluster: per-server PCIe trees and host links,
// joined by NICs.
func NewBox(eng *sim.Engine, cfg BoxConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{Eng: eng, Cfg: cfg}
	// Host compute and host copy engines are not modeled: host DRAM
	// bandwidth far exceeds PCIe, so the shared host *link* is the
	// only host-side constraint.
	t.Host = &Device{ID: Host, Name: "host"}
	servers := cfg.Servers
	if servers < 1 {
		servers = 1
	}
	nswPerServer := (cfg.NumGPUs + cfg.GPUsPerSwitch - 1) / cfg.GPUsPerSwitch
	mkLink := func(name string, bw float64, lat sim.Time) *Link {
		l := &Link{Name: name, Bandwidth: bw, Latency: lat, Res: sim.NewFIFO(eng, name)}
		t.Links = append(t.Links, l)
		return l
	}
	for sv := 0; sv < servers; sv++ {
		prefix := ""
		if servers > 1 {
			prefix = fmt.Sprintf("srv%d-", sv)
		}
		t.hostUp = append(t.hostUp, mkLink(prefix+"host-up", cfg.HostLinkBandwidth, cfg.LinkLatency))
		t.hostDown = append(t.hostDown, mkLink(prefix+"host-down", cfg.HostLinkBandwidth, cfg.LinkLatency))
		for s := 0; s < nswPerServer; s++ {
			t.swUp = append(t.swUp, mkLink(fmt.Sprintf("%ssw%d-up", prefix, s), cfg.UplinkBandwidth, cfg.LinkLatency))
			t.swDown = append(t.swDown, mkLink(fmt.Sprintf("%ssw%d-down", prefix, s), cfg.UplinkBandwidth, cfg.LinkLatency))
		}
		if servers > 1 {
			t.nicUp = append(t.nicUp, mkLink(prefix+"nic-up", cfg.NICBandwidth, cfg.NICLatency))
			t.nicDown = append(t.nicDown, mkLink(prefix+"nic-down", cfg.NICBandwidth, cfg.NICLatency))
		}
		for i := 0; i < cfg.NumGPUs; i++ {
			id := sv*cfg.NumGPUs + i
			d := &Device{
				ID:         DeviceID(id),
				Name:       fmt.Sprintf("gpu%d", id),
				MemBytes:   cfg.GPUMemBytes,
				FLOPS:      cfg.GPUFLOPS,
				Efficiency: cfg.ComputeEfficiency,
				Compute:    sim.NewFIFO(eng, fmt.Sprintf("gpu%d-compute", id)),
				H2D:        sim.NewFIFO(eng, fmt.Sprintf("gpu%d-h2d", id)),
				D2H:        sim.NewFIFO(eng, fmt.Sprintf("gpu%d-d2h", id)),
			}
			t.GPUs = append(t.GPUs, d)
			t.gpuUp = append(t.gpuUp, mkLink(fmt.Sprintf("gpu%d-up", id), cfg.PCIeBandwidth, cfg.LinkLatency))
			t.gpuDown = append(t.gpuDown, mkLink(fmt.Sprintf("gpu%d-down", id), cfg.PCIeBandwidth, cfg.LinkLatency))
		}
	}
	if cfg.NVLinkBandwidth > 0 {
		// NVLink meshes are per server.
		t.nvlink = make(map[[2]DeviceID]*Link)
		for i := range t.GPUs {
			for j := range t.GPUs {
				if i == j || t.serverOf(DeviceID(i)) != t.serverOf(DeviceID(j)) {
					continue
				}
				key := [2]DeviceID{DeviceID(i), DeviceID(j)}
				t.nvlink[key] = mkLink(fmt.Sprintf("nvl%d-%d", i, j), cfg.NVLinkBandwidth, cfg.LinkLatency)
			}
		}
	}
	n := len(t.GPUs) + 1
	t.paths = make([][]path, n)
	cells := make([]path, n*n)
	for s := range t.paths {
		t.paths[s] = cells[s*n : (s+1)*n : (s+1)*n]
	}
	return t, nil
}

// path returns the route-table entry for src->dst, resolving it on
// first use.
func (t *Topology) path(src, dst DeviceID) *path {
	p := &t.paths[src+1][dst+1]
	if !p.resolved {
		t.resolve(p, src, dst)
	}
	return p
}

func (t *Topology) resolve(p *path, src, dst DeviceID) {
	r, err := t.route(src, dst)
	if err != nil {
		*p = path{resolved: true, err: err}
		return
	}
	res := make([]*sim.FIFO, 0, len(r.Engines)+len(r.Links))
	res = append(res, r.Engines...)
	for _, l := range r.Links {
		res = append(res, l.Res)
	}
	*p = path{resolved: true, links: r.Links, res: res, bandwidth: r.Bottleneck(), latency: r.latency()}
}

// serverOf returns the server index hosting a GPU.
func (t *Topology) serverOf(g DeviceID) int { return int(g) / t.Cfg.NumGPUs }

// Servers returns the machine count of the topology.
func (t *Topology) Servers() int {
	if t.Cfg.Servers < 1 {
		return 1
	}
	return t.Cfg.Servers
}

// MustBox is NewBox that panics on config errors; for tests and
// examples with static configs.
func MustBox(eng *sim.Engine, cfg BoxConfig) *Topology {
	t, err := NewBox(eng, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Device returns the device with the given ID (Host allowed).
func (t *Topology) Device(id DeviceID) *Device {
	if id == Host {
		return t.Host
	}
	return t.GPUs[int(id)]
}

// NumGPUs returns the GPU count.
func (t *Topology) NumGPUs() int { return len(t.GPUs) }

// switchOf returns the global switch index of a GPU (switch arrays
// are laid out per server).
func (t *Topology) switchOf(g DeviceID) int {
	perServer := (t.Cfg.NumGPUs + t.Cfg.GPUsPerSwitch - 1) / t.Cfg.GPUsPerSwitch
	local := int(g) % t.Cfg.NumGPUs
	return t.serverOf(g)*perServer + local/t.Cfg.GPUsPerSwitch
}

// route computes the links and copy engines for a single DMA between
// src and dst. It supports host<->GPU and (when enabled) direct
// GPU<->GPU. Callers needing host-bounced GPU->GPU issue two routes.
// It runs once per pair, to fill the route table; transfers read the
// table.
func (t *Topology) route(src, dst DeviceID) (Route, error) {
	if src == dst {
		return Route{}, fmt.Errorf("hw: transfer %s->%s to itself", src, dst)
	}
	var r Route
	switch {
	case src == Host:
		// Swaps target the GPU's local host memory.
		g := dst
		r.Links = []*Link{t.hostDown[t.serverOf(g)], t.swDown[t.switchOf(g)], t.gpuDown[g]}
		r.Engines = []*sim.FIFO{t.Device(g).H2D}
	case dst == Host:
		g := src
		r.Links = []*Link{t.gpuUp[g], t.swUp[t.switchOf(g)], t.hostUp[t.serverOf(g)]}
		r.Engines = []*sim.FIFO{t.Device(g).D2H}
	default:
		if l, ok := t.nvlink[[2]DeviceID{src, dst}]; ok {
			r.Links = []*Link{l}
			r.Engines = []*sim.FIFO{t.Device(src).D2H, t.Device(dst).H2D}
			return r, nil
		}
		if !t.Cfg.P2P {
			return Route{}, fmt.Errorf("hw: p2p disabled between %s and %s", src, dst)
		}
		ss, ds := t.switchOf(src), t.switchOf(dst)
		sSrv, dSrv := t.serverOf(src), t.serverOf(dst)
		r.Links = []*Link{t.gpuUp[src]}
		switch {
		case sSrv != dSrv:
			// Cross-server: out through the source NIC, across the
			// (non-blocking) cluster switch, in through the
			// destination NIC (GPUDirect-RDMA-style, no host copy).
			r.Links = append(r.Links, t.swUp[ss], t.nicUp[sSrv], t.nicDown[dSrv], t.swDown[ds])
		case ss != ds:
			// Cross-switch p2p traverses the root complex via both
			// switch uplinks (still avoiding a host memory copy).
			r.Links = append(r.Links, t.swUp[ss], t.swDown[ds])
		}
		r.Links = append(r.Links, t.gpuDown[dst])
		r.Engines = []*sim.FIFO{t.Device(src).D2H, t.Device(dst).H2D}
	}
	return r, nil
}

// CanP2P reports whether a direct device-to-device route exists
// between two GPUs.
func (t *Topology) CanP2P(src, dst DeviceID) bool {
	if src == Host || dst == Host || src == dst {
		return false
	}
	// Between two distinct GPUs route refuses only a missing p2p path.
	return t.path(src, dst).err == nil
}

// TransferTime returns the uncontended duration of moving bytes along
// the src->dst route (bottleneck bandwidth plus latency).
func (t *Topology) TransferTime(src, dst DeviceID, bytes int64) (sim.Time, error) {
	p := t.path(src, dst)
	if p.err != nil {
		return 0, p.err
	}
	return sim.Time(float64(bytes)/p.bandwidth) + p.latency, nil
}

// Transfer schedules a DMA of bytes from src to dst, invoking done
// when the payload has fully arrived. Contention with other transfers
// sharing any link or copy engine on the route is modeled by FIFO
// queueing; the transfer occupies every resource on the route for
// bytes / bottleneck-bandwidth.
func (t *Topology) Transfer(src, dst DeviceID, bytes int64, done func(at sim.Time)) error {
	if bytes < 0 {
		return fmt.Errorf("hw: negative transfer size %d", bytes)
	}
	p := t.path(src, dst)
	if p.err != nil {
		return p.err
	}
	service := sim.Time(float64(bytes)/p.bandwidth) + p.latency
	for _, l := range p.links {
		l.Bytes += bytes
	}
	sim.Chain(t.Eng, p.res, service, done)
	return nil
}
