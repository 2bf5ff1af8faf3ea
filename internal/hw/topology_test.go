package hw

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"harmony/internal/sim"
)

func testBox(t *testing.T, n int) (*sim.Engine, *Topology) {
	t.Helper()
	eng := sim.NewEngine()
	top, err := NewBox(eng, Commodity1080TiBox(n))
	if err != nil {
		t.Fatal(err)
	}
	return eng, top
}

func TestBoxConfigValidate(t *testing.T) {
	good := Commodity1080TiBox(4)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*BoxConfig){
		func(c *BoxConfig) { c.NumGPUs = 0 },
		func(c *BoxConfig) { c.GPUMemBytes = 0 },
		func(c *BoxConfig) { c.GPUFLOPS = 0 },
		func(c *BoxConfig) { c.ComputeEfficiency = 0 },
		func(c *BoxConfig) { c.ComputeEfficiency = 1.5 },
		func(c *BoxConfig) { c.PCIeBandwidth = 0 },
		func(c *BoxConfig) { c.UplinkBandwidth = 0 },
		func(c *BoxConfig) { c.HostLinkBandwidth = 0 },
		func(c *BoxConfig) { c.GPUsPerSwitch = 0 },
		func(c *BoxConfig) { c.LinkLatency = -1 },
	}
	for i, mutate := range cases {
		c := Commodity1080TiBox(4)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestBoxConfigValidateRejectsNonFinite: NaN is false under every range
// check, so each float field is tested for finiteness by name.
func TestBoxConfigValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*BoxConfig, float64)
	}{
		{"GPUFLOPS", func(c *BoxConfig, v float64) { c.GPUFLOPS = v }},
		{"ComputeEfficiency", func(c *BoxConfig, v float64) { c.ComputeEfficiency = v }},
		{"PCIeBandwidth", func(c *BoxConfig, v float64) { c.PCIeBandwidth = v }},
		{"UplinkBandwidth", func(c *BoxConfig, v float64) { c.UplinkBandwidth = v }},
		{"HostLinkBandwidth", func(c *BoxConfig, v float64) { c.HostLinkBandwidth = v }},
		{"LinkLatency", func(c *BoxConfig, v float64) { c.LinkLatency = sim.Time(v) }},
		{"NVLinkBandwidth", func(c *BoxConfig, v float64) { c.NVLinkBandwidth = v }},
		{"NICBandwidth", func(c *BoxConfig, v float64) { c.NICBandwidth = v }},
		{"NICLatency", func(c *BoxConfig, v float64) { c.NICLatency = sim.Time(v) }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := CommodityCluster(2, 2)
			f.set(&c, v)
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: err = %v, want one naming the field", f.name, v, err)
			}
			if _, err := NewBox(sim.NewEngine(), c); err == nil {
				t.Errorf("%s = %v: NewBox built the box", f.name, v)
			}
		}
	}
}

func TestKernelTime(t *testing.T) {
	_, top := testBox(t, 1)
	d := top.GPUs[0]
	got := d.KernelTime(d.FLOPS * d.Efficiency) // exactly one second of work
	if got != 1 {
		t.Fatalf("KernelTime = %v, want 1s", got)
	}
	if d.KernelTime(0) != 0 {
		t.Fatal("zero FLOPs should take zero time")
	}
}

func TestTransferTimeUncontended(t *testing.T) {
	_, top := testBox(t, 4)
	bytes := int64(12.0e9) // exactly one second at 12 GB/s
	d, err := top.TransferTime(0, Host, bytes)
	if err != nil {
		t.Fatal(err)
	}
	wantLat := top.Cfg.LinkLatency * 3 // gpu-up, sw-up, host-up
	if diff := d - (1 + wantLat); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("TransferTime = %v, want ~%v", d, 1+wantLat)
	}
}

func TestTransferToSelfRejected(t *testing.T) {
	_, top := testBox(t, 2)
	if _, err := top.TransferTime(1, 1, 100); err == nil {
		t.Fatal("self transfer accepted")
	}
	if err := top.Transfer(Host, Host, 100, func(sim.Time) {}); err == nil {
		t.Fatal("host->host transfer accepted")
	}
}

func TestNegativeTransferRejected(t *testing.T) {
	_, top := testBox(t, 2)
	if err := top.Transfer(0, Host, -5, func(sim.Time) {}); err == nil {
		t.Fatal("negative transfer accepted")
	}
}

// Four GPUs swapping out simultaneously must serialize on the shared
// host link: total time ≈ 4× a single transfer. This is the Fig. 2(b)
// bottleneck in miniature.
func TestHostLinkOversubscription(t *testing.T) {
	eng, top := testBox(t, 4)
	bytes := int64(1.2e9) // 0.1 s each at 12 GB/s
	doneAt := make([]sim.Time, 4)
	for g := 0; g < 4; g++ {
		g := g
		if err := top.Transfer(DeviceID(g), Host, bytes, func(at sim.Time) { doneAt[g] = at }); err != nil {
			t.Fatal(err)
		}
	}
	end, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end < 0.39 || end > 0.45 {
		t.Fatalf("4 concurrent swap-outs finished at %v, want ~0.4s (serialized on host link)", end)
	}
}

// P2P between GPUs under the same switch must not touch the host link.
func TestP2PSameSwitchAvoidsHostLink(t *testing.T) {
	eng, top := testBox(t, 4)
	if !top.CanP2P(0, 1) {
		t.Fatal("p2p should be available")
	}
	if err := top.Transfer(0, 1, 1.2e9, func(sim.Time) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if top.hostUp[0].Bytes != 0 || top.hostDown[0].Bytes != 0 {
		t.Fatalf("p2p transfer used host link: up=%d down=%d", top.hostUp[0].Bytes, top.hostDown[0].Bytes)
	}
	if top.gpuUp[0].Bytes == 0 || top.gpuDown[1].Bytes == 0 {
		t.Fatal("p2p transfer did not use GPU links")
	}
}

// Cross-switch p2p uses switch uplinks but still avoids a host memory
// copy (host link carries no bytes).
func TestP2PCrossSwitch(t *testing.T) {
	eng, top := testBox(t, 4)
	// GPUs 0,1 on switch 0; GPUs 2,3 on switch 1.
	if err := top.Transfer(0, 2, 1.2e9, func(sim.Time) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if top.swUp[0].Bytes == 0 || top.swDown[1].Bytes == 0 {
		t.Fatal("cross-switch p2p should traverse switch uplinks")
	}
	if top.hostUp[0].Bytes != 0 {
		t.Fatal("cross-switch p2p should not copy through host memory")
	}
}

func TestP2PDisabled(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Commodity1080TiBox(2)
	cfg.P2P = false
	top := MustBox(eng, cfg)
	if top.CanP2P(0, 1) {
		t.Fatal("CanP2P should be false")
	}
	if err := top.Transfer(0, 1, 100, func(sim.Time) {}); err == nil {
		t.Fatal("direct transfer should fail with p2p disabled")
	}
}

func TestNVLinkRoute(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Commodity1080TiBox(4)
	cfg.NVLinkBandwidth = 50e9
	top := MustBox(eng, cfg)
	d, err := top.TransferTime(0, 3, 50e9)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1) + cfg.LinkLatency
	if diff := d - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("NVLink transfer = %v, want %v", d, want)
	}
}

// Property: transfer completion time is never earlier than the
// uncontended time, and byte accounting matches what was sent.
func TestTransferNeverBeatsUncontended(t *testing.T) {
	f := func(sizesRaw []uint32) bool {
		eng := sim.NewEngine()
		top := MustBox(eng, Commodity1080TiBox(4))
		okAll := true
		for i, s := range sizesRaw {
			if i >= 16 {
				break
			}
			bytes := int64(s)%(1<<30) + 1
			g := DeviceID(i % 4)
			uncontended, err := top.TransferTime(g, Host, bytes)
			if err != nil {
				return false
			}
			start := eng.Now()
			if err := top.Transfer(g, Host, bytes, func(at sim.Time) {
				if at-start < uncontended-1e-12 {
					okAll = false
				}
			}); err != nil {
				return false
			}
		}
		_, err := eng.Run()
		return err == nil && okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceIDString(t *testing.T) {
	if Host.String() != "host" {
		t.Fatalf("Host.String() = %q", Host.String())
	}
	if DeviceID(2).String() != "gpu2" {
		t.Fatalf("DeviceID(2).String() = %q", DeviceID(2).String())
	}
}

func TestDenseBoxOversubscription(t *testing.T) {
	cfg := DenseBox(8)
	if cfg.GPUsPerSwitch != 4 {
		t.Fatalf("DenseBox GPUsPerSwitch = %d, want 4", cfg.GPUsPerSwitch)
	}
	eng := sim.NewEngine()
	top := MustBox(eng, cfg)
	if got := top.NumGPUs(); got != 8 {
		t.Fatalf("NumGPUs = %d", got)
	}
	if top.switchOf(3) != 0 || top.switchOf(4) != 1 {
		t.Fatal("switch assignment wrong for dense box")
	}
}

// ------------------------------------------------------------ clusters

func TestClusterTopologyShape(t *testing.T) {
	eng := sim.NewEngine()
	cfg := CommodityCluster(2, 2)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.TotalGPUs() != 4 {
		t.Fatalf("TotalGPUs = %d", cfg.TotalGPUs())
	}
	top := MustBox(eng, cfg)
	if top.NumGPUs() != 4 || top.Servers() != 2 {
		t.Fatalf("gpus=%d servers=%d", top.NumGPUs(), top.Servers())
	}
	if top.serverOf(1) != 0 || top.serverOf(2) != 1 {
		t.Fatal("server assignment wrong")
	}
	// Each server has its own host links.
	if len(top.hostUp) != 2 || len(top.nicUp) != 2 {
		t.Fatalf("hostUp=%d nicUp=%d", len(top.hostUp), len(top.nicUp))
	}
}

func TestClusterSwapsStayLocal(t *testing.T) {
	eng := sim.NewEngine()
	top := MustBox(eng, CommodityCluster(2, 2))
	// GPU 3 (server 1) swapping out must use server 1's host link and
	// never the NICs.
	if err := top.Transfer(3, Host, 1.2e9, func(sim.Time) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if top.hostUp[1].Bytes == 0 {
		t.Fatal("swap should use local host link")
	}
	if top.hostUp[0].Bytes != 0 || top.nicUp[0].Bytes != 0 || top.nicUp[1].Bytes != 0 {
		t.Fatal("swap leaked onto remote or network links")
	}
}

func TestClusterCrossServerP2P(t *testing.T) {
	eng := sim.NewEngine()
	top := MustBox(eng, CommodityCluster(2, 2))
	// GPU 0 (server 0) to GPU 2 (server 1): through both NICs, no
	// host memory copy.
	if err := top.Transfer(0, 2, 1.2e9, func(sim.Time) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if top.nicUp[0].Bytes == 0 || top.nicDown[1].Bytes == 0 {
		t.Fatal("cross-server p2p should traverse the NICs")
	}
	if top.hostUp[0].Bytes != 0 || top.hostUp[1].Bytes != 0 {
		t.Fatal("cross-server p2p must not copy through host memory")
	}
}

func TestClusterHostLinksIndependent(t *testing.T) {
	// Two servers swapping concurrently do NOT contend: each has its
	// own host link. Contrast with TestHostLinkOversubscription.
	eng := sim.NewEngine()
	top := MustBox(eng, CommodityCluster(2, 1))
	bytes := int64(1.2e9) // 0.1 s at 12 GB/s
	for g := 0; g < 2; g++ {
		if err := top.Transfer(DeviceID(g), Host, bytes, func(sim.Time) {}); err != nil {
			t.Fatal(err)
		}
	}
	end, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end > 0.15 {
		t.Fatalf("independent host links should not serialize: end=%v", end)
	}
}

func TestClusterValidation(t *testing.T) {
	cfg := CommodityCluster(2, 2)
	cfg.NICBandwidth = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("cluster without NIC bandwidth accepted")
	}
	cfg = CommodityCluster(2, 2)
	cfg.NICLatency = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative NIC latency accepted")
	}
}

func TestClusterNVLinkStaysInServer(t *testing.T) {
	eng := sim.NewEngine()
	cfg := CommodityCluster(2, 2)
	cfg.NVLinkBandwidth = 50e9
	top := MustBox(eng, cfg)
	// Same-server pair has an NVLink route.
	d1, err := top.TransferTime(0, 1, 50e9)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-server pair must fall back to the NIC path (slower).
	d2, err := top.TransferTime(0, 2, 50e9)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Fatalf("cross-server transfer (%v) should be slower than NVLink (%v)", d2, d1)
	}
}

func TestKernelTimeZeroRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := &Device{Name: "dead"}
	d.KernelTime(1)
}

func TestRouteBottleneckAndLatency(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Commodity1080TiBox(2)
	cfg.HostLinkBandwidth = 6e9 // slower than PCIe: the bottleneck
	top := MustBox(eng, cfg)
	d, err := top.TransferTime(0, Host, 6e9)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1) + 3*cfg.LinkLatency
	if diff := d - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("bottleneck not honored: %v vs %v", d, want)
	}
}

func TestClusterTransferTimeCrossServer(t *testing.T) {
	eng := sim.NewEngine()
	cfg := CommodityCluster(2, 1)
	cfg.NICBandwidth = 3e9 // NIC is the bottleneck
	top := MustBox(eng, cfg)
	d, err := top.TransferTime(0, 1, 3e9)
	if err != nil {
		t.Fatal(err)
	}
	if d < 1 {
		t.Fatalf("cross-server transfer %v should be NIC-bound (≥1s)", d)
	}
}

// TestTransferAllocs: a DMA reads its route from the table and, once the
// engine has a spent join to reuse, allocates nothing.
func TestTransferAllocs(t *testing.T) {
	eng, top := testBox(t, 2)
	done := func(sim.Time) {}
	transfer := func() {
		if err := top.Transfer(Host, 1, 1<<20, done); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	transfer() // resolves the route, grows the event heap
	before := eng.Processed
	if n := testing.AllocsPerRun(100, transfer); n != 0 {
		t.Errorf("Transfer(host -> gpu1): %v allocs, want 0", n)
	}
	// One engine and three links: four FIFO services, four events.
	if per := (eng.Processed - before) / 101; per != 4 {
		t.Errorf("Transfer(host -> gpu1) took %d events, want 4", per)
	}
}

// TestRouteTableKeepsRouteErrors: a refused pair is refused the same way
// on every call, by Transfer, TransferTime and CanP2P alike.
func TestRouteTableKeepsRouteErrors(t *testing.T) {
	cfg := Commodity1080TiBox(2)
	cfg.P2P = false
	top := MustBox(sim.NewEngine(), cfg)
	for i := 0; i < 2; i++ {
		if err := top.Transfer(0, 1, 8, func(sim.Time) {}); err == nil || !strings.Contains(err.Error(), "p2p disabled between gpu0 and gpu1") {
			t.Fatalf("call %d: Transfer(0, 1) = %v", i, err)
		}
		if _, err := top.TransferTime(Host, Host, 8); err == nil || !strings.Contains(err.Error(), "to itself") {
			t.Fatalf("call %d: TransferTime(host, host) = %v", i, err)
		}
		if top.CanP2P(0, 1) || top.CanP2P(0, 0) || top.CanP2P(Host, 1) {
			t.Fatalf("call %d: CanP2P true on a box without p2p", i)
		}
	}
	if _, err := top.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if top.Eng.Processed != 0 || top.gpuUp[0].Bytes != 0 {
		t.Fatal("a refused transfer scheduled events or counted bytes")
	}
}
