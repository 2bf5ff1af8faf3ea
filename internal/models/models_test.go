package models

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestZooMatchesFig1(t *testing.T) {
	z := Zoo()
	if len(z) != 7 {
		t.Fatalf("zoo has %d entries, want 7", len(z))
	}
	if z[0].Name != "LeNet" || z[0].Params != 60_000 {
		t.Fatalf("first entry %+v, want LeNet 60K", z[0])
	}
	if z[6].Name != "GPT-3" || z[6].Params != 175_000_000_000 {
		t.Fatalf("last entry %+v, want GPT-3 175B", z[6])
	}
	for i := 1; i < len(z); i++ {
		if z[i].Params <= z[i-1].Params {
			t.Errorf("zoo not monotonically growing at %s", z[i].Name)
		}
		if z[i].Year < z[i-1].Year {
			t.Errorf("zoo not chronological at %s", z[i].Name)
		}
	}
}

func TestTransformerParamAccounting(t *testing.T) {
	// GPT-2 XL should land near its published 1.5e9 parameters.
	m := GPT2XL()
	p := m.TotalParams()
	if p < 1_400_000_000 || p > 1_800_000_000 {
		t.Fatalf("GPT2-XL params = %d, want ≈1.5B", p)
	}
	// BERT-Large near 340M (plus untied LM head).
	bl := BERTLarge()
	p = bl.TotalParams()
	if p < 300_000_000 || p > 420_000_000 {
		t.Fatalf("BERT-Large params = %d, want ≈340M", p)
	}
}

func TestBERT48ExceedsGPUMemory(t *testing.T) {
	m := BERT48()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	gpu := int64(11 << 30)
	if m.PersistentBytes() <= gpu {
		t.Fatalf("BERT-48 persistent footprint %d must exceed 11 GB to reproduce Fig. 2", m.PersistentBytes())
	}
	// But weights alone fit in host memory terms, and a single layer
	// must fit on one GPU (otherwise no schedule exists).
	var maxLayer int64
	for _, l := range m.Layers {
		if b := l.WeightBytes(); b > maxLayer {
			maxLayer = b
		}
	}
	if maxLayer >= gpu {
		t.Fatalf("largest single layer %d must fit in GPU memory", maxLayer)
	}
}

func TestFootprintComposition(t *testing.T) {
	m := Uniform("u", 4, 1000, 64, 1e6)
	if got, want := m.TotalParams(), int64(4000); got != want {
		t.Fatalf("TotalParams = %d, want %d", got, want)
	}
	if got, want := m.WeightBytes(), int64(16000); got != want {
		t.Fatalf("WeightBytes = %d, want %d", got, want)
	}
	if got, want := m.OptStateBytes(), int64(32000); got != want {
		t.Fatalf("OptStateBytes = %d, want %d (Adam 2x)", got, want)
	}
	if got, want := m.PersistentBytes(), int64(16000*2+32000); got != want {
		t.Fatalf("PersistentBytes = %d, want %d", got, want)
	}
	if got, want := m.ActivationBytes(3), int64(4*64*3); got != want {
		t.Fatalf("ActivationBytes = %d, want %d", got, want)
	}
}

func TestMLPShapes(t *testing.T) {
	m := MLP(MLPConfig{Name: "mlp", Widths: []int{784, 256, 10}, OptAdam: true})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Layers) != 2 {
		t.Fatalf("layers = %d, want 2", len(m.Layers))
	}
	if got, want := m.Layers[0].Params, int64(784*256+256); got != want {
		t.Fatalf("fc0 params = %d, want %d", got, want)
	}
	if m.OptStateParamsFactor != 2.0 {
		t.Fatal("Adam MLP should have optimizer factor 2")
	}
	if m.SampleBytes != 784*4 {
		t.Fatalf("SampleBytes = %d", m.SampleBytes)
	}
}

func TestMLPTooFewWidthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MLP(MLPConfig{Name: "bad", Widths: []int{10}})
}

func TestValidateCatchesBadModels(t *testing.T) {
	m := &Model{}
	if err := m.Validate(); err == nil {
		t.Fatal("nameless model accepted")
	}
	m = &Model{Name: "x", SampleBytes: 4}
	if err := m.Validate(); err == nil {
		t.Fatal("layerless model accepted")
	}
	m = Uniform("u", 2, 10, 10, 10)
	m.Layers[1].Params = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative layer size accepted")
	}
	m = Uniform("u2", 2, 10, 10, 10)
	m.SampleBytes = 0
	if err := m.Validate(); err == nil {
		t.Fatal("zero sample size accepted")
	}
	m = Uniform("u3", 2, 10, 10, 10)
	m.OptStateParamsFactor = -0.5
	if err := m.Validate(); err == nil {
		t.Fatal("negative optimizer factor accepted")
	}
	// NaN passes every `< 0` check; it must not reach the simulated
	// clock as a kernel time.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m = Uniform("u4", 2, 10, 10, v)
		// -Inf is already "negative"; the other two must name the field.
		if err := m.Validate(); err == nil || !math.IsInf(v, -1) && !strings.Contains(err.Error(), "FwdFLOPsPerSample") {
			t.Fatalf("FwdFLOPsPerSample %v: err = %v, want one naming the field", v, err)
		}
		m = Uniform("u5", 2, 10, 10, 10)
		m.OptStateParamsFactor = v
		if err := m.Validate(); err == nil {
			t.Fatalf("optimizer factor %v accepted", v)
		}
	}
}

// Property: for any transformer configuration, footprints scale
// monotonically with depth and all builders produce valid models.
func TestTransformerMonotoneInDepth(t *testing.T) {
	f := func(depthRaw, hiddenRaw uint8) bool {
		depth := int(depthRaw%16) + 1
		hidden := (int(hiddenRaw%8) + 1) * 64
		a := Transformer(TransformerConfig{Name: "a", NumLayers: depth, Hidden: hidden, SeqLen: 128, Vocab: 1000})
		b := Transformer(TransformerConfig{Name: "b", NumLayers: depth + 1, Hidden: hidden, SeqLen: 128, Vocab: 1000})
		if a.Validate() != nil || b.Validate() != nil {
			return false
		}
		return b.TotalParams() > a.TotalParams() &&
			b.PersistentBytes() > a.PersistentBytes() &&
			b.ActivationBytes(1) > a.ActivationBytes(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLeNetMatchesFig1(t *testing.T) {
	m := LeNet()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p := m.TotalParams()
	// Fig. 1 cites 60K; LeNet-5's exact count is ~61.7K.
	if p < 55_000 || p > 70_000 {
		t.Fatalf("LeNet params = %d, want ≈60K", p)
	}
	// Pools have no parameters.
	if m.Layers[1].Params != 0 || m.Layers[3].Params != 0 {
		t.Fatal("pool layers must be parameter-free")
	}
}

func TestAlexNetMatchesFig1(t *testing.T) {
	m := AlexNet()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p := m.TotalParams()
	// Fig. 1 cites 61M; the dense layers dominate.
	if p < 55_000_000 || p > 70_000_000 {
		t.Fatalf("AlexNet params = %d, want ≈61M", p)
	}
	var dense int64
	for _, l := range m.Layers[7:] {
		dense += l.Params
	}
	if float64(dense) < 0.8*float64(p) {
		t.Fatal("AlexNet's dense layers should dominate the parameter count")
	}
}

func TestConvLayerFormulas(t *testing.T) {
	l := conv("c", 3, 8, 8, 4, 3) // -> 4x6x6
	if l.Params != int64(4*3*9+4) {
		t.Fatalf("conv params = %d", l.Params)
	}
	if l.ActBytesPerSample != 4*6*6*4 {
		t.Fatalf("conv act = %d", l.ActBytesPerSample)
	}
	if l.FwdFLOPsPerSample != 2*4*6*6*3*9 {
		t.Fatalf("conv flops = %v", l.FwdFLOPsPerSample)
	}
	pl := pool("p", 4, 6, 6, 2)
	if pl.Params != 0 || pl.ActBytesPerSample != 4*3*3*4 {
		t.Fatalf("pool spec = %+v", pl)
	}
}

func TestGNMTMatchesFig1(t *testing.T) {
	m := GNMT()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p := m.TotalParams()
	if p < 230_000_000 || p > 330_000_000 {
		t.Fatalf("GNMT params = %d, want ≈278M", p)
	}
}

func TestAmoebaNetMatchesFig1(t *testing.T) {
	m := AmoebaNet()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p := m.TotalParams()
	if p < 450_000_000 || p > 650_000_000 {
		t.Fatalf("AmoebaNet params = %d, want ≈557M", p)
	}
}

func TestT511BMatchesFig1(t *testing.T) {
	m := T511B()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p := m.TotalParams()
	if p < 6_000_000_000 || p > 13_000_000_000 {
		t.Fatalf("T5-11B params = %d, want ≈11B", p)
	}
}

func TestGPT3MatchesFig1(t *testing.T) {
	m := GPT3()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p := m.TotalParams()
	if p < 160_000_000_000 || p > 190_000_000_000 {
		t.Fatalf("GPT-3 params = %d, want ≈175B", p)
	}
	// Its fp32 weights alone exceed a commodity server's aggregate
	// GPU memory by an order of magnitude — the paper's premise.
	if m.WeightBytes() < 10*4*(11<<30) {
		t.Fatal("GPT-3 should dwarf 4x11GB")
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	for _, name := range []string{"lenet", "alexnet", "gnmt", "amoebanet", "bertlarge", "bert48", "gpt2xl", "t5-11b", "gpt3"} {
		ctor, ok := cat[name]
		if !ok {
			t.Fatalf("catalog missing %q", name)
		}
		m := ctor()
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
