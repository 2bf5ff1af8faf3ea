// Package models is the model zoo: the parameter-count history used
// by the paper's Fig. 1, plus trainable model descriptions (per-layer
// parameter, activation, stash and FLOP formulas) that drive the
// simulator. Architectural shapes follow the published models; the
// simulator needs only sizes and operation counts, not learned values.
package models

import (
	"fmt"
	"math"
)

// BytesPerParam is fp32 training.
const BytesPerParam = 4

// LayerSpec describes one layer of a sequential model.
type LayerSpec struct {
	Name   string
	Params int64

	// FwdFLOPsPerSample is the forward-pass floating point operations
	// for one input sample. The backward pass is modeled as
	// BwdFLOPsFactor times this (≈2 for DNNs: grad w.r.t. inputs and
	// weights).
	FwdFLOPsPerSample float64

	// ActBytesPerSample is the size of the layer's output activation
	// Y for one sample (which is the next layer's input X).
	ActBytesPerSample int64

	// StashBytesPerSample is what the backward pass needs retained
	// from the forward pass (stashed input plus any internal
	// activations, e.g. attention probabilities for transformers).
	StashBytesPerSample int64

	// WorkspaceBytes is scratch memory the layer's kernels need while
	// executing (independent of batch size in this model).
	WorkspaceBytes int64
}

// WeightBytes is the fp32 size of the layer's parameters.
func (l LayerSpec) WeightBytes() int64 { return l.Params * BytesPerParam }

// BwdFLOPsFactor: backward ≈ 2× forward for DNN layers.
const BwdFLOPsFactor = 2.0

// UpdateFLOPsPerParam approximates optimizer arithmetic (Adam: a few
// multiply-adds per parameter).
const UpdateFLOPsPerParam = 6.0

// Model is a sequential DNN with an optimizer choice.
type Model struct {
	Name   string
	Layers []LayerSpec

	// OptStateParamsFactor is optimizer state size in units of the
	// parameter count (Adam keeps two fp32 moments: 2.0; plain SGD
	// with momentum: 1.0; vanilla SGD: 0).
	OptStateParamsFactor float64

	// SampleBytes is the size of one input sample fed to layer 0.
	SampleBytes int64
}

// Validate reports structural problems.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("models: model has no name")
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("models: %s has no layers", m.Name)
	}
	for i, l := range m.Layers {
		if l.Params < 0 || l.ActBytesPerSample < 0 || l.StashBytesPerSample < 0 ||
			l.WorkspaceBytes < 0 || l.FwdFLOPsPerSample < 0 {
			return fmt.Errorf("models: %s layer %d (%s) has negative size", m.Name, i, l.Name)
		}
		// A NaN passes every comparison above and would reach the
		// simulated clock as a kernel time.
		if math.IsNaN(l.FwdFLOPsPerSample) || math.IsInf(l.FwdFLOPsPerSample, 0) {
			return fmt.Errorf("models: %s layer %d (%s) FwdFLOPsPerSample must be finite, got %g", m.Name, i, l.Name, l.FwdFLOPsPerSample)
		}
	}
	if !(m.OptStateParamsFactor >= 0) || math.IsInf(m.OptStateParamsFactor, 0) {
		return fmt.Errorf("models: %s optimizer factor must be finite and non-negative, got %g", m.Name, m.OptStateParamsFactor)
	}
	if m.SampleBytes <= 0 {
		return fmt.Errorf("models: %s non-positive sample size", m.Name)
	}
	return nil
}

// TotalParams sums parameters over all layers.
func (m *Model) TotalParams() int64 {
	var p int64
	for _, l := range m.Layers {
		p += l.Params
	}
	return p
}

// WeightBytes is total |W| in bytes.
func (m *Model) WeightBytes() int64 { return m.TotalParams() * BytesPerParam }

// OptStateBytes is total optimizer state |K| in bytes.
func (m *Model) OptStateBytes() int64 {
	return int64(float64(m.WeightBytes()) * m.OptStateParamsFactor)
}

// PersistentBytes is the per-replica persistent footprint: weights +
// gradient buffers + optimizer state.
func (m *Model) PersistentBytes() int64 {
	return 2*m.WeightBytes() + m.OptStateBytes()
}

// ActivationBytes is the total stashed-activation footprint for one
// microbatch of the given size held across the whole model (what a
// pipeline head stage must retain per in-flight microbatch).
func (m *Model) ActivationBytes(microbatch int) int64 {
	var b int64
	for _, l := range m.Layers {
		b += l.StashBytesPerSample * int64(microbatch)
	}
	return b
}

// TransformerConfig parameterizes a GPT/BERT-class encoder stack.
type TransformerConfig struct {
	Name      string
	NumLayers int
	Hidden    int
	SeqLen    int
	Vocab     int
	// Adam optimizer unless overridden.
	OptStateParamsFactor float64
}

// Transformer builds a sequential transformer LM: an embedding layer,
// NumLayers identical transformer blocks, and an output projection.
// Parameter and FLOP formulas follow the standard accounting
// (12·h² + 13·h parameters per block; ≈2·params FLOPs per token).
func Transformer(c TransformerConfig) *Model {
	h := int64(c.Hidden)
	s := int64(c.SeqLen)
	v := int64(c.Vocab)
	opt := c.OptStateParamsFactor
	if opt == 0 {
		opt = 2.0 // Adam
	}
	m := &Model{
		Name:                 c.Name,
		OptStateParamsFactor: opt,
		// Token ids, int32 per position.
		SampleBytes: s * 4,
	}
	// Embedding: vocab×h table plus position embeddings. FLOPs are a
	// gather — negligible next to the blocks but nonzero.
	m.Layers = append(m.Layers, LayerSpec{
		Name:                "embed",
		Params:              v*h + s*h,
		FwdFLOPsPerSample:   float64(s * h),
		ActBytesPerSample:   s * h * BytesPerParam,
		StashBytesPerSample: s * 4, // token ids
	})
	blockParams := 12*h*h + 13*h
	// Attention probabilities are s×s per head, kept for backward:
	// s·s·4 bytes × (h/64) heads.
	heads := h / 64
	if heads < 1 {
		heads = 1
	}
	attnStash := s * s * 4 * heads
	block := LayerSpec{
		Name:              "block",
		Params:            blockParams,
		FwdFLOPsPerSample: 2 * float64(blockParams) * float64(s),
		ActBytesPerSample: s * h * BytesPerParam,
		// Stash: block input + attention internals + MLP hidden.
		StashBytesPerSample: s*h*BytesPerParam*6 + attnStash,
		WorkspaceBytes:      64 << 20,
	}
	for i := 0; i < c.NumLayers; i++ {
		b := block
		b.Name = fmt.Sprintf("block%d", i)
		m.Layers = append(m.Layers, b)
	}
	// LM head: h×vocab projection (weights often tied; we keep them
	// explicit as PyTorch does by default for BERT heads).
	m.Layers = append(m.Layers, LayerSpec{
		Name:                "lmhead",
		Params:              h * v,
		FwdFLOPsPerSample:   2 * float64(h*v) * float64(s),
		ActBytesPerSample:   s * v * BytesPerParam / 16, // loss-reduced
		StashBytesPerSample: s * h * BytesPerParam,
		WorkspaceBytes:      64 << 20,
	})
	return m
}

// BERT48 is the paper's "large BERT" workload: a 48-layer, 1536-hidden
// BERT variant (~1.4 B parameters). With Adam its persistent footprint
// alone (~22 GB) exceeds a 1080Ti's 11 GB, forcing memory
// virtualization exactly as in Fig. 2.
func BERT48() *Model {
	return Transformer(TransformerConfig{
		Name:      "bert-48",
		NumLayers: 48,
		Hidden:    1536,
		SeqLen:    512,
		Vocab:     30522,
	})
}

// BERTLarge is the standard 24-layer BERT-Large (~340 M parameters).
func BERTLarge() *Model {
	return Transformer(TransformerConfig{
		Name:      "bert-large",
		NumLayers: 24,
		Hidden:    1024,
		SeqLen:    512,
		Vocab:     30522,
	})
}

// GPT2XL is the 48-layer, 1600-hidden GPT-2 (~1.5 B parameters).
func GPT2XL() *Model {
	return Transformer(TransformerConfig{
		Name:      "gpt2-xl",
		NumLayers: 48,
		Hidden:    1600,
		SeqLen:    1024,
		Vocab:     50257,
	})
}

// Uniform builds the analytical-model workload of §3: R identical
// layers, each with the given parameter count and activation size.
// "a simplified DNN model with one type of layer (like Transformers)
// and where each layer has the same runtime and memory footprint".
func Uniform(name string, layers int, paramsPerLayer, actBytesPerSample int64, flopsPerSample float64) *Model {
	m := &Model{
		Name:                 name,
		OptStateParamsFactor: 2.0,
		SampleBytes:          actBytesPerSample,
	}
	for i := 0; i < layers; i++ {
		m.Layers = append(m.Layers, LayerSpec{
			Name:                fmt.Sprintf("L%d", i+1),
			Params:              paramsPerLayer,
			FwdFLOPsPerSample:   flopsPerSample,
			ActBytesPerSample:   actBytesPerSample,
			StashBytesPerSample: actBytesPerSample,
		})
	}
	return m
}

// conv returns a LayerSpec for a 2-D convolution layer (valid
// padding, unit stride) followed by an activation: the cost formulas
// behind the image-classification workloads of Fig. 1.
func conv(name string, cin, h, w, cout, k int) LayerSpec {
	oh, ow := h-k+1, w-k+1
	params := int64(cout*cin*k*k + cout)
	return LayerSpec{
		Name:                name,
		Params:              params,
		FwdFLOPsPerSample:   2 * float64(cout) * float64(oh) * float64(ow) * float64(cin) * float64(k*k),
		ActBytesPerSample:   int64(cout*oh*ow) * BytesPerParam,
		StashBytesPerSample: int64(cin*h*w) * BytesPerParam,
	}
}

// pool returns a LayerSpec for a P×P max pool.
func pool(name string, c, h, w, p int) LayerSpec {
	return LayerSpec{
		Name:                name,
		FwdFLOPsPerSample:   float64(c * h * w),
		ActBytesPerSample:   int64(c*(h/p)*(w/p)) * BytesPerParam,
		StashBytesPerSample: int64(c*h*w) * BytesPerParam,
	}
}

// fc returns a LayerSpec for a fully connected layer.
func fc(name string, in, out int) LayerSpec {
	return LayerSpec{
		Name:                name,
		Params:              int64(in*out + out),
		FwdFLOPsPerSample:   2 * float64(in) * float64(out),
		ActBytesPerSample:   int64(out) * BytesPerParam,
		StashBytesPerSample: int64(in) * BytesPerParam,
	}
}

// LeNet is the 1998 LeNet-5 shape (≈62 K parameters, Fig. 1's first
// point) on the original 32×32 single-channel inputs.
func LeNet() *Model {
	return &Model{
		Name:                 "lenet",
		OptStateParamsFactor: 0, // plain SGD, as in 1998
		SampleBytes:          32 * 32 * BytesPerParam,
		Layers: []LayerSpec{
			conv("conv1", 1, 32, 32, 6, 5),  // -> 6x28x28
			pool("pool1", 6, 28, 28, 2),     // -> 6x14x14
			conv("conv2", 6, 14, 14, 16, 5), // -> 16x10x10
			pool("pool2", 16, 10, 10, 2),    // -> 16x5x5
			fc("fc1", 16*5*5, 120),
			fc("fc2", 120, 84),
			fc("fc3", 84, 10),
		},
	}
}

// AlexNet approximates the 2012 network's shape (≈62 M parameters,
// Fig. 1's second point): strides are replaced by pools (this model
// only needs sizes), the feature extractor reaches the original
// 256×6×6 so the dominant fc6 matches the real 37.7 M parameters.
func AlexNet() *Model {
	return &Model{
		Name:                 "alexnet",
		OptStateParamsFactor: 1.0, // SGD with momentum
		SampleBytes:          3 * 204 * 204 * BytesPerParam,
		Layers: []LayerSpec{
			conv("conv1", 3, 204, 204, 96, 9),  // -> 96x196x196
			pool("pool1", 96, 196, 196, 7),     // -> 96x28x28
			conv("conv2", 96, 28, 28, 256, 5),  // -> 256x24x24
			pool("pool2", 256, 24, 24, 2),      // -> 256x12x12
			conv("conv3", 256, 12, 12, 384, 3), // -> 384x10x10
			conv("conv4", 384, 10, 10, 384, 3), // -> 384x8x8
			conv("conv5", 384, 8, 8, 256, 3),   // -> 256x6x6
			fc("fc6", 256*6*6, 4096),
			fc("fc7", 4096, 4096),
			fc("fc8", 4096, 1000),
		},
	}
}

// lstm returns a LayerSpec for one LSTM layer: 4 gates of
// (in+hidden+1)×hidden parameters, unrolled over seqLen steps.
func lstm(name string, in, hidden, seqLen int) LayerSpec {
	params := int64(4 * (in + hidden + 1) * hidden)
	return LayerSpec{
		Name:              name,
		Params:            params,
		FwdFLOPsPerSample: 2 * float64(params) * float64(seqLen),
		ActBytesPerSample: int64(seqLen*hidden) * BytesPerParam,
		// Backward-through-time needs every step's gate activations.
		StashBytesPerSample: int64(seqLen*hidden*5) * BytesPerParam,
	}
}

// GNMT approximates Google's NMT system (Fig. 1's 278 M-parameter
// point): 8 encoder + 8 decoder LSTM layers of 1024 units with
// attention, over 32 K-word vocabularies.
func GNMT() *Model {
	const (
		hidden = 1024
		seq    = 64
		vocab  = 32000
	)
	m := &Model{
		Name:                 "gnmt",
		OptStateParamsFactor: 1.0, // Adagrad-class accumulator
		SampleBytes:          seq * 4,
	}
	m.Layers = append(m.Layers, LayerSpec{
		Name:                "embed",
		Params:              2 * vocab * hidden, // source + target tables
		FwdFLOPsPerSample:   float64(seq * hidden),
		ActBytesPerSample:   seq * hidden * BytesPerParam,
		StashBytesPerSample: seq * 4,
	})
	// Encoder: first layer is bidirectional (double width).
	m.Layers = append(m.Layers, lstm("enc-bi", hidden, 2*hidden, seq))
	for i := 1; i < 8; i++ {
		in := hidden
		if i == 1 {
			in = 2 * hidden
		}
		m.Layers = append(m.Layers, lstm(fmt.Sprintf("enc%d", i), in, hidden, seq))
	}
	// Attention projection.
	m.Layers = append(m.Layers, fc("attention", hidden, hidden))
	for i := 0; i < 8; i++ {
		in := hidden
		if i == 0 {
			in = 2 * hidden // attention context concatenated
		}
		m.Layers = append(m.Layers, lstm(fmt.Sprintf("dec%d", i), in, hidden, seq))
	}
	m.Layers = append(m.Layers, fc("softmax", hidden, vocab))
	return m
}

// AmoebaNet approximates the evolved image classifier (Fig. 1's
// 557 M-parameter point) as a stack of convolutional cells whose
// parameter total matches the published count; per-cell shapes follow
// the reduction structure (feature maps shrink, filters grow).
func AmoebaNet() *Model {
	m := &Model{
		Name:                 "amoebanet",
		OptStateParamsFactor: 1.0,
		SampleBytes:          3 * 331 * 331 * BytesPerParam, // 331×331 inputs as published
	}
	// Three stages of cells; filter counts chosen so the total lands
	// at ≈557M (the published AmoebaNet-B (18, 512) configuration).
	type stage struct {
		cells, ch, hw int
	}
	stages := []stage{
		{12, 1024, 83},
		{12, 2048, 42},
		{12, 3072, 21},
	}
	for si, st := range stages {
		for c := 0; c < st.cells; c++ {
			// A cell ≈ separable convs + 1x1 projections; modeled as
			// one conv-like layer of ch→ch with a 3x3 kernel plus a
			// 1x1 projection.
			params := int64(st.ch)*int64(st.ch)*9/4 + int64(st.ch*st.ch)
			m.Layers = append(m.Layers, LayerSpec{
				Name:                fmt.Sprintf("cell%d-%d", si, c),
				Params:              params,
				FwdFLOPsPerSample:   2 * float64(params) * float64(st.hw*st.hw) / 9,
				ActBytesPerSample:   int64(st.ch*st.hw*st.hw) * BytesPerParam / 4,
				StashBytesPerSample: int64(st.ch*st.hw*st.hw) * BytesPerParam / 2,
			})
		}
	}
	m.Layers = append(m.Layers, fc("classifier", 3072, 1000))
	return m
}

// T511B approximates the 11 B-parameter T5 (Fig. 1): 24 encoder + 24
// decoder blocks with d_model 1024 and the characteristic 65536-wide
// feed-forward that holds most of the parameters.
func T511B() *Model {
	const (
		h     = 1024
		ff    = 65536
		seq   = 512
		vocab = 32128
	)
	m := &Model{
		Name:                 "t5-11b",
		OptStateParamsFactor: 2.0,
		SampleBytes:          seq * 4,
	}
	m.Layers = append(m.Layers, LayerSpec{
		Name:                "embed",
		Params:              vocab * h,
		FwdFLOPsPerSample:   float64(seq * h),
		ActBytesPerSample:   seq * h * BytesPerParam,
		StashBytesPerSample: seq * 4,
	})
	// Attention (4h²·k with T5-11B's 128-headed attention ≈ 16h²) +
	// the giant FFN (2·h·ff).
	blockParams := int64(16*h*h) + int64(2*h*ff)
	for i := 0; i < 48; i++ {
		m.Layers = append(m.Layers, LayerSpec{
			Name:                fmt.Sprintf("block%d", i),
			Params:              blockParams,
			FwdFLOPsPerSample:   2 * float64(blockParams) * float64(seq),
			ActBytesPerSample:   seq * h * BytesPerParam,
			StashBytesPerSample: seq*h*BytesPerParam*6 + seq*seq*4*16,
			WorkspaceBytes:      256 << 20,
		})
	}
	m.Layers = append(m.Layers, fc("lmhead", h, vocab))
	return m
}

// GPT3 is the 175 B-parameter model (Fig. 1's endpoint): 96 layers,
// 12288 hidden, 2048-token context. Even its weights (700 GB fp32)
// dwarf a commodity server; the feasibility experiment (§4) uses it
// to show why Harmony targets development and fine-tuning, not
// pre-training.
func GPT3() *Model {
	return Transformer(TransformerConfig{
		Name:      "gpt3",
		NumLayers: 96,
		Hidden:    12288,
		SeqLen:    2048,
		Vocab:     50257,
	})
}

// Catalog maps workload names to constructors — shared by the CLIs
// and the feasibility experiment so every tool accepts the same
// model names.
func Catalog() map[string]func() *Model {
	return map[string]func() *Model{
		"lenet":     LeNet,
		"alexnet":   AlexNet,
		"gnmt":      GNMT,
		"amoebanet": AmoebaNet,
		"bertlarge": BERTLarge,
		"bert48":    BERT48,
		"gpt2xl":    GPT2XL,
		"t5-11b":    T511B,
		"gpt3":      GPT3,
	}
}
