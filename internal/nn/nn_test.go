package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+math.Abs(b))
}

func TestDenseForwardKnownValues(t *testing.T) {
	l := Dense{In: 2, Out: 2}
	// W = [[1,2],[3,4]], b = [0.5, -0.5]
	params := []float32{1, 2, 3, 4, 0.5, -0.5}
	x := []float32{1, 1}
	y := make([]float32, 2)
	stash := make([]float32, 2)
	l.Forward(params, x, y, stash, 1)
	if y[0] != 4.5 || y[1] != 5.5 {
		t.Fatalf("y = %v, want [4.5 5.5]", y)
	}
	if stash[0] != 1 || stash[1] != 1 {
		t.Fatalf("stash = %v", stash)
	}
}

func TestReLUClampsForward(t *testing.T) {
	l := Dense{In: 1, Out: 2, ReLU: true}
	params := []float32{1, -1, 0, 0} // W=[[1,-1]], b=0
	y := make([]float32, 2)
	stash := make([]float32, 1)
	l.Forward(params, []float32{2}, y, stash, 1)
	if y[0] != 2 || y[1] != 0 {
		t.Fatalf("y = %v, want [2 0]", y)
	}
}

func TestSoftmaxXentKnown(t *testing.T) {
	// Uniform logits: loss = ln(C).
	logits := []float32{0, 0, 0, 0}
	dl := make([]float32, 4)
	loss := SoftmaxXent(logits, []int{2}, dl, 1, 4)
	if !almost(float64(loss), math.Log(4), 1e-5) {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient sums to zero and is negative only at the label.
	var sum float32
	for j, g := range dl {
		sum += g
		if (j == 2) != (g < 0) {
			t.Fatalf("dlogits = %v", dl)
		}
	}
	if !almost(float64(sum), 0, 1e-5) {
		t.Fatalf("gradient sum = %v", sum)
	}
}

// Numerical gradient check of the full layer stack: dense+ReLU →
// dense → softmax cross-entropy.
func TestGradientCheck(t *testing.T) {
	l1 := Dense{In: 3, Out: 4, ReLU: true}
	l2 := Dense{In: 4, Out: 2}
	p1 := make([]float32, l1.ParamCount())
	p2 := make([]float32, l2.ParamCount())
	XavierInit(l1, p1, 1)
	XavierInit(l2, p2, 2)
	x := []float32{0.3, -0.7, 1.2, -0.1, 0.9, 0.4}
	labels := []int{1, 0}
	batch := 2

	forward := func() float32 {
		h := make([]float32, batch*4)
		s1 := make([]float32, batch*3)
		l1.Forward(p1, x, h, s1, batch)
		logits := make([]float32, batch*2)
		s2 := make([]float32, batch*4)
		l2.Forward(p2, h, logits, s2, batch)
		dl := make([]float32, batch*2)
		return SoftmaxXent(logits, labels, dl, batch, 2)
	}

	// Analytic gradients.
	h := make([]float32, batch*4)
	s1 := make([]float32, batch*3)
	l1.Forward(p1, x, h, s1, batch)
	logits := make([]float32, batch*2)
	s2 := make([]float32, batch*4)
	l2.Forward(p2, h, logits, s2, batch)
	dl := make([]float32, batch*2)
	SoftmaxXent(logits, labels, dl, batch, 2)
	g2 := make([]float32, l2.ParamCount())
	dh := make([]float32, batch*4)
	l2.Backward(p2, s2, dl, dh, g2, batch)
	g1 := make([]float32, l1.ParamCount())
	l1.Backward(p1, s1, dh, nil, g1, batch)

	check := func(params, grad []float32, name string) {
		t.Helper()
		const eps = 1e-3
		for i := 0; i < len(params); i += 3 { // sample every 3rd param
			orig := params[i]
			params[i] = orig + eps
			up := float64(forward())
			params[i] = orig - eps
			down := float64(forward())
			params[i] = orig
			numeric := (up - down) / (2 * eps)
			if !almost(float64(grad[i]), numeric, 0.05) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, i, grad[i], numeric)
			}
		}
	}
	check(p1, g1, "layer1")
	check(p2, g2, "layer2")
}

func TestSGDStep(t *testing.T) {
	w := []float32{1, 2}
	g := []float32{10, -10}
	SGD(w, g, 0.1)
	if w[0] != 0 || w[1] != 3 {
		t.Fatalf("w = %v", w)
	}
	if g[0] != 0 || g[1] != 0 {
		t.Fatal("gradient should be reset")
	}
}

// SGD must not trust the gradient's capacity: reslicing a short g to
// len(w) would read stale floats past it and zero memory the caller
// never passed.
func TestSGDRejectsShortGradient(t *testing.T) {
	g := make([]float32, 3, 64)
	beyond := g[:cap(g)]
	for i := range beyond {
		beyond[i] = 1
	}
	w := make([]float32, 8)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "3 floats for 8 weights") {
			t.Errorf("panic %q, want one naming both lengths", msg)
		}
		if beyond[3] != 1 || w[3] != 0 {
			t.Errorf("SGD touched memory past its gradient: g[3] = %v, w[3] = %v", beyond[3], w[3])
		}
	}()
	SGD(w, g, 0.5)
	t.Error("SGD accepted a 3-float gradient for 8 weights")
}

// Adam validates every length before it writes: a short gradient must
// leave the weights, both moments and the gradient itself untouched.
func TestAdamRejectsShortGradient(t *testing.T) {
	w, g := []float32{1, 2, 3, 4, 5, 6, 7, 8}, []float32{0.5, -0.5, 0.25}
	m, v := make([]float32, len(w)), make([]float32, len(w))
	for i := range m {
		m[i], v[i] = 0.1, 0.2
	}
	bufs := [][]float32{w, g, m, v}
	var was [][]float32
	for _, b := range bufs {
		was = append(was, append([]float32(nil), b...))
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "3 floats for 8 weights") {
			t.Errorf("panic %q, want one naming both lengths", msg)
		}
		for i, b := range bufs {
			if fmt.Sprint(b) != fmt.Sprint(was[i]) {
				t.Errorf("Adam wrote %s before it panicked: %v, was %v", "wgmv"[i:i+1], b, was[i])
			}
		}
	}()
	Adam(w, g, m, v, 0.01, 0.9, 0.999, 1e-8, 1)
	t.Error("Adam accepted a 3-float gradient for 8 weights")
}

// TestDenseBackwardRejectsShortBuffers gives Dense.Backward (batch 2 on
// an 8·8 layer) and Conv2D.Backward one operand too short for the batch
// at a time, and requires an "nn:" panic naming the pass before anything
// is written: grad and dx keep every bit they held. The Dense kernels
// take offsets into their operands, not slice headers, so this check is
// what keeps them in bounds.
func TestDenseBackwardRejectsShortBuffers(t *testing.T) {
	eachKernelPath(t, testDenseBackwardRejectsShortBuffers)
}

func testDenseBackwardRejectsShortBuffers(t *testing.T) {
	const batch = 2
	for _, kc := range []struct {
		k    Kernel
		want string
	}{
		{Dense{In: 8, Out: 8, ReLU: true}, "nn: Dense.Backward buffer sizes"},
		{Conv2D{Cin: 2, Cout: 3, H: 5, W: 5, K: 3, ReLU: true}, "nn: Conv2D.Backward buffer sizes"},
	} {
		k := kc.k
		for short, name := range []string{"params", "stash", "dy", "dx", "grad"} {
			bufs := [...][]float32{
				make([]float32, k.ParamCount()),
				make([]float32, batch*k.InSize()),
				make([]float32, batch*k.OutSize()),
				make([]float32, batch*k.InSize()),
				make([]float32, k.ParamCount()),
			}
			for i, b := range bufs {
				fillRand(b, uint64(i+1))
			}
			dx0, grad0 := append([]float32(nil), bufs[3]...), append([]float32(nil), bufs[4]...)
			args := bufs
			args[short] = args[short][:len(args[short])-1]
			if name == "dy" {
				args[short] = args[short][:k.OutSize()]
			}
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, kc.want) {
						t.Errorf("%s with short %s: panic %q, want %q…", k.Name(), name, msg, kc.want)
					}
				}()
				k.Backward(args[0], args[1], args[2], args[3], args[4], batch)
				t.Errorf("%s accepted a short %s", k.Name(), name)
			}()
			sameBits(t, k.Name()+" short "+name+": dx", bufs[3], dx0)
			sameBits(t, k.Name()+" short "+name+": grad", bufs[4], grad0)
		}
	}
}

// TestOptimizersResetGradientBitZero is the contract exec's known-zero
// pages rest on (exec.VM.MarkZero): whatever a gradient buffer held —
// negatives, -0, infinities, NaN — every element is +0 after the
// optimizer has applied it, bit for bit. An optimizer that forgets the
// reset, or resets to -0, fails here and not as silently lost gradients
// in a trainer that swaps.
func TestOptimizersResetGradientBitZero(t *testing.T) {
	eachKernelPath(t, testOptimizersResetGradientBitZero)
}

func testOptimizersResetGradientBitZero(t *testing.T) {
	nasty := func() []float32 {
		nan, inf := float32(math.NaN()), float32(math.Inf(1))
		g := []float32{1, -1, float32(math.Copysign(0, -1)), inf, -inf, nan, 1e-45, -3e38}
		for i := 0; i < 1000; i++ {
			g = append(g, float32(i%17)-8.5)
		}
		return g
	}
	check := func(name string, g []float32) {
		t.Helper()
		for i, v := range g {
			if b := math.Float32bits(v); b != 0 {
				t.Fatalf("%s left g[%d] = %v (bits %#x), want +0", name, i, v, b)
			}
		}
	}
	g := nasty()
	SGD(make([]float32, len(g)), g, 0.1)
	check("SGD", g)
	g = nasty()
	n := len(g)
	Adam(make([]float32, n), g, make([]float32, n), make([]float32, n), 0.01, 0.9, 0.999, 1e-8, 3)
	check("Adam", g)
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)² with Adam; gradient = 2(w-3).
	w := []float32{0}
	g := make([]float32, 1)
	m := make([]float32, 1)
	v := make([]float32, 1)
	for step := 1; step <= 500; step++ {
		g[0] = 2 * (w[0] - 3)
		Adam(w, g, m, v, 0.05, 0.9, 0.999, 1e-8, step)
	}
	if !almost(float64(w[0]), 3, 0.02) {
		t.Fatalf("w = %v, want ≈3", w[0])
	}
}

func TestXavierDeterministicAndBounded(t *testing.T) {
	l := Dense{In: 16, Out: 16}
	a := make([]float32, l.ParamCount())
	b := make([]float32, l.ParamCount())
	XavierInit(l, a, 7)
	XavierInit(l, b, 7)
	limit := math.Sqrt(6.0 / 32.0)
	nonzero := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("XavierInit not deterministic")
		}
		if math.Abs(float64(a[i])) > limit {
			t.Fatalf("weight %v exceeds Xavier limit %v", a[i], limit)
		}
		if a[i] != 0 {
			nonzero++
		}
	}
	if nonzero < l.In*l.Out/2 {
		t.Fatal("suspiciously many zero weights")
	}
	// Bias is zero.
	for i := l.In * l.Out; i < l.ParamCount(); i++ {
		if a[i] != 0 {
			t.Fatal("bias should start at zero")
		}
	}
}

func TestArgmax(t *testing.T) {
	data := []float32{1, 5, 2, 9, 0, 3}
	if Argmax(data, 0, 3) != 1 || Argmax(data, 1, 3) != 0 {
		t.Fatal("argmax wrong")
	}
}

// Property: softmax gradient always sums to ~0 per row and loss is
// non-negative.
func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []int8, labelRaw uint8) bool {
		classes := 4
		if len(raw) < classes {
			return true
		}
		logits := make([]float32, classes)
		for j := 0; j < classes; j++ {
			logits[j] = float32(raw[j]) / 8
		}
		dl := make([]float32, classes)
		label := int(labelRaw) % classes
		loss := SoftmaxXent(logits, []int{label}, dl, 1, classes)
		if loss < 0 {
			return false
		}
		var sum float64
		for _, g := range dl {
			sum += float64(g)
		}
		return math.Abs(sum) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: no gradient crosses a non-positive pre-activation. The
// ReLU layer's consumer applies the mask, by the rectified output it
// stashed, so it takes two layers to see it.
func TestReLUBackwardMasksProperty(t *testing.T) {
	f := func(xRaw, dyRaw int8) bool {
		relu, head := Dense{In: 1, Out: 1, ReLU: true}, Dense{In: 1, Out: 1}
		params := []float32{1, 0} // identity weight, zero bias, both layers
		x := []float32{float32(xRaw)}
		h, y := make([]float32, 1), make([]float32, 1)
		s1, s2 := make([]float32, 1), make([]float32, 1)
		relu.Forward(params, x, h, s1, 1)
		head.Forward(params, h, y, s2, 1)
		dy := []float32{float32(dyRaw)}
		dh := make([]float32, 1)
		g1, g2 := make([]float32, 2), make([]float32, 2)
		head.Backward(params, s2, dy, dh, g2, 1)
		relu.Backward(params, s1, dh, nil, g1, 1)
		if xRaw <= 0 {
			return math.Float32bits(dh[0]) == 0 && g1[0] == 0 && g1[1] == 0
		}
		return dh[0] == float32(dyRaw) && g1[0] == float32(xRaw)*float32(dyRaw) && g1[1] == float32(dyRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConvForwardKnownValues(t *testing.T) {
	// 1x3x3 input, single 2x2 filter of ones, bias 0.5: each output
	// is the window sum + 0.5.
	c := Conv2D{Cin: 1, H: 3, W: 3, Cout: 1, K: 2}
	params := []float32{1, 1, 1, 1, 0.5}
	x := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	y := make([]float32, c.OutSize())
	stash := make([]float32, c.StashSize())
	c.Forward(params, x, y, stash, 1)
	want := []float32{12.5, 16.5, 24.5, 28.5}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
	if stash[4] != 5 {
		t.Fatal("stash should hold the input")
	}
}

func TestConvGradientCheck(t *testing.T) {
	c := Conv2D{Cin: 2, H: 4, W: 4, Cout: 3, K: 3, ReLU: true}
	params := make([]float32, c.ParamCount())
	InitKernel(c, params, 5)
	batch := 2
	x := make([]float32, batch*c.InSize())
	rng := uint64(99)
	for i := range x {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		x[i] = float32(rng>>11)/float32(1<<53) - 0.5
	}
	labels := []int{1, 2}
	classes := c.OutSize()

	forward := func() float32 {
		y := make([]float32, batch*c.OutSize())
		stash := make([]float32, batch*c.StashSize())
		c.Forward(params, x, y, stash, batch)
		dl := make([]float32, batch*classes)
		return SoftmaxXent(y, labels, dl, batch, classes)
	}
	// Analytic gradient. The loss is the conv's consumer, so it applies
	// the ReLU mask, by the rectified output.
	y := make([]float32, batch*c.OutSize())
	stash := make([]float32, batch*c.StashSize())
	c.Forward(params, x, y, stash, batch)
	dl := make([]float32, batch*classes)
	SoftmaxXent(y, labels, dl, batch, classes)
	maskBySign(dl, y)
	grad := make([]float32, c.ParamCount())
	dx := make([]float32, batch*c.InSize())
	c.Backward(params, stash, dl, dx, grad, batch)

	const eps = 1e-2
	for i := 0; i < c.ParamCount(); i += 7 {
		orig := params[i]
		params[i] = orig + eps
		up := float64(forward())
		params[i] = orig - eps
		down := float64(forward())
		params[i] = orig
		numeric := (up - down) / (2 * eps)
		if !almost(float64(grad[i]), numeric, 0.08) {
			t.Fatalf("conv grad[%d]: analytic %v vs numeric %v", i, grad[i], numeric)
		}
	}
	// Input gradient too (spot check). dx is masked by the sign of x, as
	// if x were the output of a ReLU below: where x is not > 0 it is +0.
	for i := 0; i < len(x); i += 11 {
		if !(x[i] > 0) {
			if math.Float32bits(dx[i]) != 0 {
				t.Fatalf("conv dx[%d] = %v at x = %v, want +0", i, dx[i], x[i])
			}
			continue
		}
		orig := x[i]
		x[i] = orig + eps
		up := float64(forward())
		x[i] = orig - eps
		down := float64(forward())
		x[i] = orig
		numeric := (up - down) / (2 * eps)
		if !almost(float64(dx[i]), numeric, 0.08) {
			t.Fatalf("conv dx[%d]: analytic %v vs numeric %v", i, dx[i], numeric)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := MaxPool2D{C: 1, H: 4, W: 4, P: 2}
	x := []float32{
		1, 2, 0, 0,
		3, 4, 0, 9,
		0, 0, 5, 0,
		7, 0, 0, 6,
	}
	y := make([]float32, p.OutSize())
	stash := make([]float32, p.StashSize())
	p.Forward(nil, x, y, stash, 1)
	want := []float32{4, 9, 7, 6}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("pool y = %v, want %v", y, want)
		}
	}
	dy := []float32{1, 2, 3, 4}
	dx := make([]float32, p.InSize())
	p.Backward(nil, stash, dy, dx, nil, 1)
	// Gradient lands exactly on the max positions.
	if dx[5] != 1 || dx[7] != 2 || dx[12] != 3 || dx[15] != 4 {
		t.Fatalf("pool dx = %v", dx)
	}
	var sum float32
	for _, v := range dx {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("pool gradient mass %v, want 10", sum)
	}
}

func TestKernelInterfaceSizes(t *testing.T) {
	ks := []Kernel{
		Dense{In: 8, Out: 4, ReLU: true},
		Conv2D{Cin: 1, H: 8, W: 8, Cout: 4, K: 3, ReLU: true},
		MaxPool2D{C: 4, H: 6, W: 6, P: 2},
	}
	for _, k := range ks {
		if k.Name() == "" || k.InSize() <= 0 || k.OutSize() <= 0 {
			t.Fatalf("bad kernel metadata for %T", k)
		}
		if k.FLOPsPerSample() <= 0 {
			t.Fatalf("%s has no FLOPs", k.Name())
		}
	}
	if (MaxPool2D{C: 1, H: 4, W: 4, P: 2}).ParamCount() != 0 {
		t.Fatal("pool has no params")
	}
}

func TestInitKernelZerosBias(t *testing.T) {
	c := Conv2D{Cin: 1, H: 5, W: 5, Cout: 3, K: 3}
	params := make([]float32, c.ParamCount())
	InitKernel(c, params, 1)
	for i := c.ParamCount() - c.Cout; i < c.ParamCount(); i++ {
		if params[i] != 0 {
			t.Fatal("conv bias should start zero")
		}
	}
	nonzero := 0
	for _, v := range params[:c.ParamCount()-c.Cout] {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 20 {
		t.Fatal("weights look uninitialized")
	}
	// Pool init is a no-op and must not panic on empty params.
	InitKernel(MaxPool2D{C: 1, H: 2, W: 2, P: 2}, nil, 1)
}

// refForward and refBackward are the Dense loops as they stood before
// the register-tiled kernels replaced them: one weight row, one batch
// row, one dot product at a time. They are the oracle the tiled
// kernels must match bit for bit.
func refForward(l Dense, params, x, y, stash []float32, batch int) {
	copy(stash, x[:batch*l.In])
	w := params[:l.In*l.Out]
	b := params[l.In*l.Out:]
	for i := 0; i < batch; i++ {
		xi := x[i*l.In : (i+1)*l.In]
		yi := y[i*l.Out : (i+1)*l.Out]
		copy(yi, b[:l.Out])
		for k, xv := range xi {
			if xv == 0 {
				continue
			}
			row := w[k*l.Out : (k+1)*l.Out]
			for j, wv := range row {
				yi[j] += xv * wv
			}
		}
		if l.ReLU {
			for j := range yi {
				if yi[j] < 0 {
					yi[j] = 0
				}
			}
		}
	}
}

func refBackward(l Dense, params, stash, dy, dx, grad []float32, batch int) {
	w := params[:l.In*l.Out]
	gw := grad[:l.In*l.Out]
	gb := grad[l.In*l.Out:]
	masked := dy
	if l.ReLU {
		masked = make([]float32, batch*l.Out)
		b := params[l.In*l.Out:]
		zi := make([]float32, l.Out)
		for i := 0; i < batch; i++ {
			xi := stash[i*l.In : (i+1)*l.In]
			copy(zi, b[:l.Out])
			for k, xv := range xi {
				if xv == 0 {
					continue
				}
				row := w[k*l.Out : (k+1)*l.Out]
				for j, wv := range row {
					zi[j] += xv * wv
				}
			}
			di := dy[i*l.Out : (i+1)*l.Out]
			mi := masked[i*l.Out : (i+1)*l.Out]
			for j := range zi {
				if zi[j] > 0 {
					mi[j] = di[j]
				}
			}
		}
	}
	for i := 0; i < batch; i++ {
		di := masked[i*l.Out : (i+1)*l.Out]
		for j := 0; j < l.Out; j++ {
			gb[j] += di[j]
		}
	}
	for i := 0; i < batch; i++ {
		xi := stash[i*l.In : (i+1)*l.In]
		di := masked[i*l.Out : (i+1)*l.Out]
		for k := 0; k < l.In; k++ {
			xv := xi[k]
			if xv == 0 {
				continue
			}
			gRow := gw[k*l.Out : (k+1)*l.Out]
			for j, dv := range di {
				gRow[j] += xv * dv
			}
		}
	}
	if dx != nil {
		for i := 0; i < batch; i++ {
			di := masked[i*l.Out : (i+1)*l.Out]
			dxi := dx[i*l.In : (i+1)*l.In]
			for k := range dxi {
				row := w[k*l.Out : (k+1)*l.Out]
				var s float32
				for j, dv := range di {
					s += row[j] * dv
				}
				dxi[k] = s
			}
		}
	}
}

// eachKernelPath runs f on the Go tiles and then on the vector kernels
// (skipped where this build or CPU has none), so one machine checks
// both against the oracle, or times both.
func eachKernelPath[T interface {
	Run(string, func(T)) bool
	Skip(...any)
}](t T, f func(t T)) {
	have := useAVX2
	defer func() { useAVX2 = have }()
	for _, path := range []struct {
		name string
		vec  bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(path.name, func(t T) {
			if path.vec && !have {
				t.Skip("no AVX2 kernels in this build or on this CPU")
			}
			useAVX2 = path.vec
			f(t)
		})
	}
}

// sameBits fails unless got and want agree bit for bit. Which NaN comes
// out of NaN + NaN is the hardware's choice by operand position, which
// no Go source pins down, so any NaN equals any NaN.
func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// unaligned returns n floats that start 1–7 floats into their
// allocation, so a kernel that assumed a 32-byte boundary would fault
// or misread.
func unaligned(rng *rand.Rand, n int) []float32 {
	off := 1 + rng.Intn(7)
	return make([]float32, off+n)[off:]
}

// oracleDims are the layer widths the oracle tests draw from: around
// the tile and vector widths (1, primes, one either side of 8, 16, 32
// and 128).
var oracleDims = []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 24, 31, 32, 33, 64, 67, 100, 128, 129, 257}

var negZero = float32(math.Copysign(0, -1))

// salt fills s with normal draws, each replaced with probability p by
// one of specials.
func salt(rng *rand.Rand, s []float32, p float64, specials ...float32) {
	for i := range s {
		if s[i] = float32(rng.NormFloat64()); rng.Float64() < p {
			s[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// saltWeights salts params with ±Inf, NaN and -0 on every fifth draw:
// a zero input must still skip them.
func saltWeights(rng *rand.Rand, params []float32, draw int) {
	salt(rng, params, 0)
	if draw%5 == 0 {
		salt(rng, params, 0.02, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), negZero)
	}
}

// maskedBy returns a copy of g with +0 wherever s is not > 0: the ReLU
// mask taken from s, written the way the old contract's mask wrote it.
func maskedBy(g, s []float32) []float32 {
	if g == nil {
		return nil
	}
	m := make([]float32, len(g))
	for i, v := range s[:len(g)] {
		if v > 0 {
			m[i] = g[i]
		}
	}
	return m
}

// TestDenseBitIdenticalToOracle draws layer shapes from oracleDims,
// batches 1–9 and inputs salted with +0, -0 and all-zero rows, and
// requires the kernels to reproduce the oracle's y, stash, dx and grad
// bit for bit at pool sizes 1, 2 and 3, on top of a non-zero incoming
// grad, on both kernel paths. The weights carry ±Inf and NaN now and
// then. Every buffer starts 1–7 floats into its allocation, so no
// kernel may assume an aligned one. The oracle is the recompute
// contract — dy unmasked, the ReLU mask recomputed, dx handed on
// unmasked — so the kernel is given dy as its consumer would hand it,
// masked by the output it stashed, and its dx must be the oracle's with
// +0 wherever x is not > 0.
func TestDenseBitIdenticalToOracle(t *testing.T) {
	eachKernelPath(t, testDenseBitIdenticalToOracle)
}

func testDenseBitIdenticalToOracle(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	dims := oracleDims
	rng := rand.New(rand.NewSource(15))
	for draw := 0; draw < 300; draw++ {
		l := Dense{In: dims[rng.Intn(len(dims))], Out: dims[rng.Intn(len(dims))], ReLU: rng.Intn(2) == 0}
		batch := 1 + rng.Intn(9)
		// A few big layers so that pools of 2 and 3 really split.
		if draw%25 == 0 {
			l.In, l.Out, batch = 520+rng.Intn(9), 460+rng.Intn(9), 9
		}
		SetWorkers(1 + draw%3)
		params := unaligned(rng, l.ParamCount())
		saltWeights(rng, params, draw)
		x := unaligned(rng, batch*l.In)
		salt(rng, x, 0.4, 0, negZero)
		if batch > 1 {
			clear(x[l.In : 2*l.In])
		}
		dy := unaligned(rng, batch*l.Out)
		salt(rng, dy, 0.1, 0, negZero)
		grad0 := unaligned(rng, l.ParamCount())
		salt(rng, grad0, 0.1, 0, negZero)
		withDx := rng.Intn(4) > 0

		forward := func(fwd func(Dense, []float32, []float32, []float32, []float32, int)) (y, stash []float32) {
			y = unaligned(rng, batch*l.Out)
			stash = unaligned(rng, batch*l.In)
			fwd(l, params, x, y, stash, batch)
			return
		}
		backward := func(bwd func(Dense, []float32, []float32, []float32, []float32, []float32, int),
			stash, dy []float32) (dx, grad []float32) {
			if withDx {
				dx = unaligned(rng, batch*l.In)
			}
			grad = unaligned(rng, len(grad0))
			copy(grad, grad0)
			bwd(l, params, stash, dy, dx, grad, batch)
			return
		}
		y, stash := forward(Dense.Forward)
		wy, wstash := forward(refForward)
		kdy := dy
		if l.ReLU {
			kdy = maskedBy(dy, wy)
		}
		dx, grad := backward(Dense.Backward, stash, kdy)
		wdx, wgrad := backward(refBackward, wstash, dy)
		t.Logf("draw %d: %+v batch %d workers %d dx %v", draw, l, batch, Workers(), withDx)
		sameBits(t, "y", y, wy)
		sameBits(t, "stash", stash, wstash)
		sameBits(t, "dx", dx, maskedBy(wdx, x))
		sameBits(t, "grad", grad, wgrad)
	}
}

// TestBlockedDenseBitIdenticalToOracle holds the blocked Dense loops to
// the oracle at the edges of their blocks: batches of 1, 7, 8, 9, 63, 64
// and 65 rows (forwardRows' row blocks of fwdBatch, the weight
// gradient's strips of termCap), and widths of 10, 17, 33 and 784, none
// a multiple of every block (fwdRows rows of W, the 64-float segments of
// axpyTerms). Every strip a gather compacts — a row's fwdRows inputs in
// the forward, a column's batch in the weight gradient — keeps 0–5, 8 or
// 9 of its coefficients or all of them, so the lists' lengths take every
// remainder mod 4, and +0, -0, NaN and ±Inf sit on the first and last
// element of row and column blocks, in the input and so in the stash.
// Both kernel paths, pool sizes 1 and 2.
func TestBlockedDenseBitIdenticalToOracle(t *testing.T) {
	eachKernelPath(t, testBlockedDenseBitIdenticalToOracle)
}

func testBlockedDenseBitIdenticalToOracle(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(55))
	inf := float32(math.Inf(1))
	specials := []float32{0, negZero, float32(math.NaN()), inf, -inf}
	keeps := []int{0, 1, 2, 3, 4, 5, 8, 9, 1 << 30}
	// thin keeps at most keep of the n floats at s[0], s[stride], …,
	// zeroing the others (+0 or -0) at random places.
	thin := func(s []float32, n, stride, keep int) {
		for _, t := range rng.Perm(n)[min(keep, n):] {
			s[t*stride] = specials[rng.Intn(2)]
		}
	}
	edge := func(v, block int) bool { return v%block == 0 || v%block == block-1 }
	draw := 0
	for _, batch := range []int{1, 7, 8, 9, 63, 64, 65} {
		for _, shape := range [][2]int{{10, 17}, {17, 33}, {33, 10}, {784, 33}, {33, 784}, {17, 784}, {784, 10}} {
			draw++
			SetWorkers(1 + draw%2)
			l := Dense{In: shape[0], Out: shape[1], ReLU: draw%3 != 0}
			params := unaligned(rng, l.ParamCount())
			saltWeights(rng, params, draw)
			x := unaligned(rng, batch*l.In)
			salt(rng, x, 0)
			for i := 0; i < batch; i++ {
				for k0 := 0; k0 < l.In; k0 += fwdRows {
					thin(x[i*l.In+k0:], min(fwdRows, l.In-k0), 1, keeps[rng.Intn(len(keeps))])
				}
			}
			for k := 0; k < l.In; k++ {
				if rng.Intn(3) == 0 {
					for i0 := 0; i0 < batch; i0 += termCap {
						thin(x[i0*l.In+k:], min(termCap, batch-i0), l.In, keeps[rng.Intn(len(keeps))])
					}
				}
			}
			// Signed zeros on block edges anywhere; NaN or ±Inf once in
			// a third of the edge rows, so most rows' sums stay finite.
			for i := 0; i < batch; i++ {
				if !edge(i, fwdBatch) && !edge(i, termCap) {
					continue
				}
				var ks []int
				for k := 0; k < l.In; k++ {
					if edge(k, fwdRows) {
						ks = append(ks, k)
						if rng.Intn(4) == 0 {
							x[i*l.In+k] = specials[rng.Intn(2)]
						}
					}
				}
				if rng.Intn(3) == 0 {
					x[i*l.In+ks[rng.Intn(len(ks))]] = specials[2+rng.Intn(3)]
				}
			}
			dy := unaligned(rng, batch*l.Out)
			salt(rng, dy, 0.1, 0, negZero)
			grad0 := unaligned(rng, l.ParamCount())
			salt(rng, grad0, 0.1, 0, negZero)

			y, stash := unaligned(rng, batch*l.Out), unaligned(rng, batch*l.In)
			l.Forward(params, x, y, stash, batch)
			wy, wstash := make([]float32, batch*l.Out), make([]float32, batch*l.In)
			refForward(l, params, x, wy, wstash, batch)
			kdy := dy
			if l.ReLU {
				kdy = maskedBy(dy, wy)
			}
			dx, grad := unaligned(rng, batch*l.In), unaligned(rng, len(grad0))
			copy(grad, grad0)
			l.Backward(params, stash, kdy, dx, grad, batch)
			wdx, wgrad := make([]float32, batch*l.In), append([]float32(nil), grad0...)
			refBackward(l, params, wstash, dy, wdx, wgrad, batch)
			name := fmt.Sprintf("%+v batch %d workers %d: ", l, batch, Workers())
			sameBits(t, name+"y", y, wy)
			sameBits(t, name+"stash", stash, wstash)
			sameBits(t, name+"dx", dx, maskedBy(wdx, x))
			sameBits(t, name+"grad", grad, wgrad)
		}
	}
}

// TestKernelsSplitAcrossBatchBitIdentical is the property the trainer's
// runs rest on (exec.Trainer.runRun: a wave's microbatches of one layer
// in one kernel call): Forward and Backward over B rows give the same
// y, stash, dx and accumulated grad, bit for bit, as consecutive calls
// over every split of those rows into contiguous pieces, the grad
// carried from one piece to the next. It holds because every kernel's
// outputs are row-independent and each dW and db element sums the batch
// in row order. Dense (on both kernel paths), Conv2D and MaxPool2D are
// drawn with B 1–6 rows (every one of the 2^(B-1) splits is tried) at
// pool sizes 1–3, weights salted as the oracle tests salt them, inputs
// with +0, -0, NaN and ±Inf, an incoming grad with ±0, and now and then
// no dx, as for a first layer.
func TestKernelsSplitAcrossBatchBitIdentical(t *testing.T) {
	eachKernelPath(t, testKernelsSplitAcrossBatchBitIdentical)
}

func testKernelsSplitAcrossBatchBitIdentical(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(54))
	dims := oracleDims
	inf := float32(math.Inf(1))
	for draw := 0; draw < 120; draw++ {
		var k Kernel
		switch draw % 3 {
		case 0:
			k = Dense{In: dims[rng.Intn(len(dims))], Out: dims[rng.Intn(len(dims))], ReLU: rng.Intn(2) == 0}
			if draw%30 == 0 { // big enough that pools of 2 and 3 split it
				k = Dense{In: 520 + rng.Intn(9), Out: 460 + rng.Intn(9), ReLU: true}
			}
		case 1:
			h := 4 + rng.Intn(5)
			k = Conv2D{Cin: 1 + rng.Intn(3), H: h, W: h + rng.Intn(3), Cout: 1 + rng.Intn(4), K: 1 + rng.Intn(3), ReLU: rng.Intn(2) == 0}
		default:
			p := 1 + rng.Intn(3)
			k = MaxPool2D{C: 1 + rng.Intn(3), H: p * (1 + rng.Intn(4)), W: p * (1 + rng.Intn(4)), P: p}
		}
		SetWorkers(1 + draw%3)
		batch := 1 + rng.Intn(6)
		in, out, st := k.InSize(), k.OutSize(), k.StashSize()
		params := unaligned(rng, k.ParamCount())
		saltWeights(rng, params, draw)
		x := unaligned(rng, batch*in)
		salt(rng, x, 0.3, 0, negZero, float32(math.NaN()), inf, -inf)
		dy := unaligned(rng, batch*out)
		salt(rng, dy, 0.1, 0, negZero)
		grad0 := unaligned(rng, k.ParamCount())
		salt(rng, grad0, 0.1, 0, negZero)
		withDx := rng.Intn(4) > 0

		// run makes one Forward and one Backward call per piece of the
		// split: cuts[i] is where piece i ends, the last at batch.
		run := func(cuts []int) (y, stash, dx, grad []float32) {
			y, stash = unaligned(rng, batch*out), unaligned(rng, batch*st)
			grad = unaligned(rng, len(grad0))
			copy(grad, grad0)
			if withDx {
				dx = unaligned(rng, batch*in)
			}
			lo := 0
			for _, hi := range cuts {
				k.Forward(params, x[lo*in:hi*in], y[lo*out:hi*out], stash[lo*st:hi*st], hi-lo)
				lo = hi
			}
			lo = 0
			for _, hi := range cuts {
				var dxp []float32
				if withDx {
					dxp = dx[lo*in : hi*in]
				}
				k.Backward(params, stash[lo*st:hi*st], dy[lo*out:hi*out], dxp, grad, hi-lo)
				lo = hi
			}
			return
		}
		wy, wstash, wdx, wgrad := run([]int{batch})
		for mask := 0; mask < 1<<(batch-1); mask++ {
			var cuts []int
			for r := 1; r < batch; r++ {
				if mask&(1<<(r-1)) != 0 {
					cuts = append(cuts, r)
				}
			}
			cuts = append(cuts, batch)
			y, stash, dx, grad := run(cuts)
			name := fmt.Sprintf("draw %d %s batch %d split %v", draw, k.Name(), batch, cuts)
			sameBits(t, name+" y", y, wy)
			sameBits(t, name+" stash", stash, wstash)
			sameBits(t, name+" dx", dx, wdx)
			sameBits(t, name+" grad", grad, wgrad)
		}
	}
}

// The chain tests hold the contract to the one it replaced on whole
// stacks, where the consumer's mask must agree with the recompute the
// producer used to do. A stack runs forward and backward once through
// the kernels and once through the oracle (refForward/refBackward and
// the conv and pool references below), which masks each layer's dy by
// its recomputed pre-activation and hands dx down unmasked. Every
// layer's grad must agree bit for bit, and so must every gradient
// handed down, the oracle's once the mask of the layer it reaches is
// applied: that layer's pre-activation, recomputed by the oracle, or
// for a MaxPool2D its output, the max of rectified values, whose sign is
// that of the element Backward routes to.

// chain is one drawn stack: kernels, parameters, incoming grads, the
// input and the loss gradient.
type chain struct {
	ks            []Kernel
	params, grad0 [][]float32
	x, dy         []float32
	batch         int
}

// newChain draws parameters, grads and the loss gradient for ks on x.
func newChain(rng *rand.Rand, draw int, ks []Kernel, x []float32, batch int) *chain {
	c := &chain{ks: ks, x: x, batch: batch}
	for _, k := range ks {
		p := unaligned(rng, k.ParamCount())
		saltWeights(rng, p, draw)
		g := unaligned(rng, k.ParamCount())
		salt(rng, g, 0.1, 0, negZero)
		c.params, c.grad0 = append(c.params, p), append(c.grad0, g)
	}
	c.dy = unaligned(rng, batch*ks[len(ks)-1].OutSize())
	salt(rng, c.dy, 0.1, 0, negZero)
	return c
}

// run steps the chain forward and backward, through the kernels or the
// oracle, and returns each layer's grad, stash and the gradient it
// handed down (nil for the first layer).
func (c *chain) run(rng *rand.Rand, oracle bool) (grads, stash, dxs [][]float32) {
	n, b := len(c.ks), c.batch
	grads, stash, dxs = make([][]float32, n), make([][]float32, n), make([][]float32, n)
	act := c.x
	for i, k := range c.ks {
		y := unaligned(rng, b*k.OutSize())
		stash[i] = unaligned(rng, b*k.StashSize())
		if oracle {
			refKernelForward(k, c.params[i], act, y, stash[i], b)
		} else {
			k.Forward(c.params[i], act, y, stash[i], b)
		}
		act = y
	}
	up := c.dy
	for i := n - 1; i >= 0; i-- {
		k := c.ks[i]
		if i > 0 {
			dxs[i] = unaligned(rng, b*k.InSize())
		}
		grads[i] = unaligned(rng, len(c.grad0[i]))
		copy(grads[i], c.grad0[i])
		if oracle {
			refKernelBackward(k, c.params[i], stash[i], up, dxs[i], grads[i], b)
		} else {
			k.Backward(c.params[i], stash[i], up, dxs[i], grads[i], b)
		}
		up = dxs[i]
	}
	return grads, stash, dxs
}

func (c *chain) check(t *testing.T, rng *rand.Rand) {
	t.Helper()
	grads, _, dxs := c.run(rng, false)
	wgrads, wstash, wdxs := c.run(rng, true)
	for i, k := range c.ks {
		sameBits(t, fmt.Sprintf("%s grad", k.Name()), grads[i], wgrads[i])
		if i == 0 {
			continue
		}
		// The sign of what layer i-1 produced, as the oracle sees it.
		sign := wstash[i]
		switch below := c.ks[i-1].(type) {
		case Dense:
			sign = make([]float32, c.batch*below.Out)
			refForward(Dense{In: below.In, Out: below.Out}, c.params[i-1], wstash[i-1], sign, make([]float32, c.batch*below.In), c.batch)
		case Conv2D:
			sign = make([]float32, c.batch*below.OutSize())
			refConvPreact(below, c.params[i-1], wstash[i-1], sign, c.batch)
		}
		sameBits(t, fmt.Sprintf("%s dx", k.Name()), dxs[i], maskedBy(wdxs[i], sign))
	}
}

// chainInput draws a chain input salted with ±0, with an all-zero first
// row and a NaN elsewhere when the batch has more than one row.
func chainInput(rng *rand.Rand, n, batch int) []float32 {
	x := unaligned(rng, batch*n)
	salt(rng, x, 0.4, 0, negZero)
	if batch > 1 {
		clear(x[:n])
		x[n+rng.Intn((batch-1)*n)] = float32(math.NaN())
	}
	return x
}

// TestDenseChainBitIdenticalToOracle: stacks of 2–4 Dense layers, ReLU
// on all but the last, widths from oracleDims, batches 1–9, weights
// with ±Inf and NaN on every fifth draw, at pool sizes 1–3 (one big
// draw in twenty so that they split), on both kernel paths.
func TestDenseChainBitIdenticalToOracle(t *testing.T) {
	eachKernelPath(t, testDenseChainBitIdenticalToOracle)
}

func testDenseChainBitIdenticalToOracle(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(25))
	for draw := 0; draw < 120; draw++ {
		widths := make([]int, 3+rng.Intn(3))
		for i := range widths {
			widths[i] = oracleDims[rng.Intn(len(oracleDims))]
		}
		batch := 1 + rng.Intn(9)
		if draw%20 == 0 {
			widths[0], widths[1], batch = 520, 460, 9
		}
		SetWorkers(1 + draw%3)
		var ks []Kernel
		for i := 0; i+1 < len(widths); i++ {
			ks = append(ks, Dense{In: widths[i], Out: widths[i+1], ReLU: i+2 < len(widths)})
		}
		t.Logf("draw %d: %v batch %d workers %d", draw, ks, batch, Workers())
		newChain(rng, draw, ks, chainInput(rng, widths[0], batch), batch).check(t, rng)
	}
}

// TestConvChainBitIdenticalToOracle: one or two Conv2D → MaxPool2D
// stages and then Dense → Dense, the LeNet pattern (a second stage's
// conv is asked for dx, so its mask is checked too), or no Dense at all
// one draw in four, with kernel sizes
// 1–3, pools 1–3, 1–4 channels, batches 1–5, at pool sizes 1–3, on both
// kernel paths.
func TestConvChainBitIdenticalToOracle(t *testing.T) {
	eachKernelPath(t, testConvChainBitIdenticalToOracle)
}

func testConvChainBitIdenticalToOracle(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(35))
	for draw := 0; draw < 80; draw++ {
		// Stages are drawn top-down, so every pool divides what it pools.
		var ks []Kernel
		h, w, c := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(4)
		top := c * h * w
		for stages := 1 + rng.Intn(2); stages > 0; stages-- {
			k, p, cin := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(4)
			conv := Conv2D{Cin: cin, H: h*p + k - 1, W: w*p + k - 1, Cout: c, K: k, ReLU: true}
			ks = append([]Kernel{conv, MaxPool2D{C: c, H: h * p, W: w * p, P: p}}, ks...)
			h, w, c = conv.H, conv.W, cin
		}
		// One draw in four ends at the pool: the loss gradient reaches it
		// unmasked, and the pool's own mask is all that stands before the conv.
		if draw%4 != 3 {
			hidden := oracleDims[rng.Intn(len(oracleDims))]
			ks = append(ks, Dense{In: top, Out: hidden, ReLU: true}, Dense{In: hidden, Out: 1 + rng.Intn(10)})
		}
		batch := 1 + rng.Intn(5)
		SetWorkers(1 + draw%3)
		t.Logf("draw %d: %v batch %d workers %d", draw, ks, batch, Workers())
		newChain(rng, draw, ks, chainInput(rng, ks[0].InSize(), batch), batch).check(t, rng)
	}
}

// refKernelForward and refKernelBackward run a kernel's oracle. The
// pool's forward has no second form; it is the kernel's own.
func refKernelForward(k Kernel, params, x, y, stash []float32, batch int) {
	switch k := k.(type) {
	case Dense:
		refForward(k, params, x, y, stash, batch)
	case Conv2D:
		copy(stash, x[:batch*k.InSize()])
		refConvPreact(k, params, x, y, batch)
		if k.ReLU {
			for i, v := range y[:batch*k.OutSize()] {
				if v < 0 {
					y[i] = 0
				}
			}
		}
	default:
		k.Forward(params, x, y, stash, batch)
	}
}

func refKernelBackward(k Kernel, params, stash, dy, dx, grad []float32, batch int) {
	switch k := k.(type) {
	case Dense:
		refBackward(k, params, stash, dy, dx, grad, batch)
	case Conv2D:
		refConvBackward(k, params, stash, dy, dx, grad, batch)
	case MaxPool2D:
		refPoolBackward(k, stash, dy, dx, batch)
	default:
		panic(fmt.Sprintf("no oracle for %T", k))
	}
}

// refConvPreact, refConvBackward and refPoolBackward are the conv and
// pool loops as they stood under the old contract, serial: the conv
// recomputes its pre-activation to mask dy, and both hand dx down
// unmasked.
func refConvPreact(c Conv2D, params, x, z []float32, batch int) {
	oh, ow, nw := c.OutH(), c.OutW(), c.Cout*c.Cin*c.K*c.K
	for b := 0; b < batch; b++ {
		xs, zs := x[b*c.InSize():], z[b*c.OutSize():]
		for co := 0; co < c.Cout; co++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					sum := params[nw+co]
					for ci := 0; ci < c.Cin; ci++ {
						for kh := 0; kh < c.K; kh++ {
							for kw := 0; kw < c.K; kw++ {
								sum += xs[ci*c.H*c.W+(i+kh)*c.W+j+kw] * params[((co*c.Cin+ci)*c.K+kh)*c.K+kw]
							}
						}
					}
					zs[co*oh*ow+i*ow+j] = sum
				}
			}
		}
	}
}

func refConvBackward(c Conv2D, params, stash, dy, dx, grad []float32, batch int) {
	oh, ow, nw := c.OutH(), c.OutW(), c.Cout*c.Cin*c.K*c.K
	masked := dy
	if c.ReLU {
		z := make([]float32, batch*c.OutSize())
		refConvPreact(c, params, stash, z, batch)
		masked = make([]float32, len(z))
		for i, v := range z {
			if v > 0 {
				masked[i] = dy[i]
			}
		}
	}
	if dx != nil {
		clear(dx[:batch*c.InSize()])
	}
	for b := 0; b < batch; b++ {
		xs, ds := stash[b*c.InSize():], masked[b*c.OutSize():]
		for co := 0; co < c.Cout; co++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					d := ds[co*oh*ow+i*ow+j]
					if d == 0 {
						continue
					}
					grad[nw+co] += d
					for ci := 0; ci < c.Cin; ci++ {
						for kh := 0; kh < c.K; kh++ {
							for kw := 0; kw < c.K; kw++ {
								wi, xi := ((co*c.Cin+ci)*c.K+kh)*c.K+kw, ci*c.H*c.W+(i+kh)*c.W+j+kw
								grad[wi] += d * xs[xi]
								if dx != nil {
									dx[b*c.InSize()+xi] += d * params[wi]
								}
							}
						}
					}
				}
			}
		}
	}
}

func refPoolBackward(p MaxPool2D, stash, dy, dx []float32, batch int) {
	if dx == nil {
		return
	}
	oh, ow := p.H/p.P, p.W/p.P
	clear(dx[:batch*p.InSize()])
	for b := 0; b < batch; b++ {
		xs, ds, dxs := stash[b*p.InSize():], dy[b*p.OutSize():], dx[b*p.InSize():]
		for c := 0; c < p.C; c++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					best := c*p.H*p.W + i*p.P*p.W + j*p.P
					for di := 0; di < p.P; di++ {
						for dj := 0; dj < p.P; dj++ {
							if at := c*p.H*p.W + (i*p.P+di)*p.W + j*p.P + dj; xs[at] > xs[best] {
								best = at
							}
						}
					}
					dxs[best] += ds[c*oh*ow+i*ow+j]
				}
			}
		}
	}
}

// TestVectorKernelsMatchGoTiles holds each assembly kernel to its Go
// twin at every length from 0 to 40 — every split between the vector
// prefix and the Go tail, the 32-float and 8-float loops, the four-row
// dx tile with and without a last block of eight, and the gathered rows
// a batch of 1–6 leaves after it, their active count on both sides of
// every group of sixteen, and a block of k past the first eight, as
// backwardBlocks asks for one — and axpyTerms, lists of 1–9 terms, storing
// its sums and with its SGD epilogue, at every length to 40 and around
// its 64-float segments, on operands salted
// with ±Inf, NaN, -0, denormals and values whose products overflow, in
// buffers at odd alignments. Average has its own test below, against
// the element-at-a-time oracle.
func TestVectorKernelsMatchGoTiles(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels in this build or on this CPU")
	}
	defer func() { useAVX2 = true }()
	rng := rand.New(rand.NewSource(23))
	specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		float32(math.Copysign(0, -1)), 0, 1e-45, -1e-40, 3e38, -3e38}
	salted := func(n int) []float32 {
		s := unaligned(rng, n)
		for i := range s {
			if s[i] = float32(rng.NormFloat64()); rng.Intn(8) == 0 {
				s[i] = specials[rng.Intn(len(specials))]
			}
		}
		return s
	}
	// maskStash draws a stashed layer input that masks about half of dx
	// with +0, -0, negatives and NaN, with one all-masked row and, in a
	// batch of two or more, one all-active row.
	maskStash := func(batch, in int) []float32 {
		x := unaligned(rng, batch*in)
		salt(rng, x, 0.125, 0, negZero, float32(math.NaN()))
		none := rng.Intn(batch)
		for k := range x[none*in : (none+1)*in] {
			x[none*in+k] = -float32(math.Abs(float64(x[none*in+k])))
		}
		if batch > 1 {
			all := (none + 1 + rng.Intn(batch-1)) % batch
			for k := range x[all*in : (all+1)*in] {
				x[all*in+k] = 1 + float32(rng.Float64())
			}
		}
		return x
	}
	// both runs kernel on a copy of out with the vector path on and off.
	both := func(name string, out []float32, kernel func(out []float32)) {
		t.Helper()
		got, want := salted(len(out)), salted(len(out))
		copy(got, out)
		copy(want, out)
		useAVX2 = true
		kernel(got)
		useAVX2 = false
		kernel(want)
		sameBits(t, name, got, want)
	}
	// terms runs axpyTerms over n floats with m terms whose rows lie
	// anywhere in one buffer, overlapping or repeated, adding to dst and
	// to +0 in its place.
	terms := func(n, m int) {
		rows, c, off := salted(n+m*3+1), salted(m), make([]int, m)
		for t := range off {
			off[t] = rng.Intn(len(rows) - n + 1)
		}
		for _, fresh := range []bool{false, true} {
			both(fmt.Sprintf("axpyTerms n=%d m=%d fresh=%v", n, m, fresh), salted(n), func(dst []float32) {
				axpyTerms(dst, rows, off, c, fresh, nil, 0)
			})
			// The SGD epilogue: dst is read, not written, and w updated.
			acc, lr := salted(n), float32(rng.NormFloat64())
			both(fmt.Sprintf("axpyTerms SGD n=%d m=%d fresh=%v", n, m, fresh), salted(n), func(w []float32) {
				dst := append([]float32(nil), acc...)
				axpyTerms(dst, rows, off, c, fresh, w, lr)
				sameBits(t, "axpyTerms SGD's dst", dst, acc)
			})
		}
	}
	for _, n := range []int{56, 63, 64, 65, 72, 127, 128, 129, 136, 200} {
		for m := 1; m <= 9; m++ {
			terms(n, m)
		}
	}
	for n := 0; n <= 40; n++ {
		for rep := 0; rep < 8; rep++ {
			terms(n, 1+rep)
			// SGD zeroes its gradient, so each run gets a fresh copy.
			g, lr := salted(n), float32(rng.NormFloat64())
			for _, reset := range []bool{false, true} {
				both(fmt.Sprintf("sgd n=%d reset=%v", n, reset), salted(n), func(w []float32) {
					sgd("SGD", w, append([]float32(nil), g...), lr, reset)
				})
			}
		}
		for in := 0; in <= 40; in++ {
			for batch := 1; batch <= 6; batch++ {
				l := Dense{In: in, Out: n}
				params, masked, x := salted(l.ParamCount()), salted(batch*n), maskStash(batch, in)
				both(fmt.Sprintf("dx in=%d out=%d batch=%d", in, n, batch), salted(batch*in), func(dx []float32) {
					l.inputGradRows(params, x, masked, dx, 0, batch, 0, in)
				})
				if in > blockRows { // a block of k, as backwardBlocks asks for one
					both(fmt.Sprintf("dx in=%d out=%d batch=%d k≥%d", in, n, batch, blockRows), salted(batch*in), func(dx []float32) {
						l.inputGradRows(params, x, masked, dx, 0, batch, blockRows, in)
					})
				}
			}
		}
	}
}

// averageElementwise is the oracle of Average: one element at a time,
// the views added to +0 in index order, then scaled.
func averageElementwise(views [][]float32, lo, hi int, inv float32) {
	for j := lo; j < hi; j++ {
		var s float32
		for i := range views {
			s += views[i][j]
		}
		s *= inv
		for i := range views {
			views[i][j] = s
		}
	}
}

// Average must leave the oracle's bits for any replica count, at every
// length from 0 to 40 — every split between the 32-float blocks and the
// Go tail — from an even and an odd lo, and over one longer span, in
// views of unequal lengths at odd alignments. The views are salted with
// ±Inf, NaN, -0 (whose sum from +0 is +0), denormals and 3e38, whose
// sums overflow; elements outside the range must be left alone.
func TestAverageBitIdenticalToElementwise(t *testing.T) {
	eachKernelPath(t, testAverageBitIdenticalToElementwise)
}

func testAverageBitIdenticalToElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	inf := float32(math.Inf(1))
	specials := []float32{inf, -inf, float32(math.NaN()), negZero, 0, 1e-45, -1e-40, 3e38, -3e38}
	var spans [][2]int
	for n := 0; n <= 40; n++ {
		spans = append(spans, [2]int{0, n}, [2]int{3, 3 + n})
	}
	spans = append(spans, [2]int{1, 1 + 2*2048 + 37}) // past two of the Go loop's blocks
	for _, replicas := range []int{1, 2, 3, 4, 7} {
		inv := float32(1) / float32(replicas)
		for _, span := range spans {
			got, want := make([][]float32, replicas), make([][]float32, replicas)
			for r := range got {
				got[r] = unaligned(rng, span[1]+rng.Intn(9))
				salt(rng, got[r], 0.125, specials...)
				want[r] = append([]float32(nil), got[r]...)
			}
			Average(got, span[0], span[1], inv)
			averageElementwise(want, span[0], span[1], inv)
			for r := range got {
				sameBits(t, fmt.Sprintf("%d replicas, range %v: view %d", replicas, span, r), got[r], want[r])
			}
		}
	}
}

// Average must not trust a view's capacity either: the vector kernel
// reads and writes through the data pointer, so a view shorter than the
// range is refused before anything is touched.
func TestAverageRejectsShortView(t *testing.T) {
	short := make([]float32, 40, 64)
	views := [][]float32{make([]float32, 64), short}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "view 1 has 40 floats, range ends at 64") {
			t.Errorf("panic %q, want one naming the view and both lengths", msg)
		}
	}()
	Average(views, 0, 64, 0.5)
	t.Error("Average accepted a 40-float view for the range [0, 64)")
}

// AverageSGD must leave the weights Average followed by an SGD on every
// view leaves, bit for bit, and every gradient view as it found it: for
// 1–5 replicas holding the same weights, at
// every length from 0 to 97 — every split between the 32-float blocks and
// the Go tail — over sub-ranges that start at 0 and at an odd element,
// and over one span past two of the Go loop's blocks. Gradients and weights
// are salted with ±0, ±Inf and NaN; elements outside the range must be
// left alone.
func TestAverageSGDMatchesAverageThenSGD(t *testing.T) {
	eachKernelPath(t, testAverageSGDMatchesAverageThenSGD)
}

func testAverageSGDMatchesAverageThenSGD(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	inf := float32(math.Inf(1))
	specials := []float32{inf, -inf, float32(math.NaN()), negZero, 0, 1e-45, 3e38, -3e38}
	var spans [][2]int
	for n := 0; n <= 97; n++ {
		lo := 1 + 2*rng.Intn(4)
		spans = append(spans, [2]int{0, n}, [2]int{lo, lo + n})
	}
	spans = append(spans, [2]int{5, 5 + 2*2048 + 41})
	for replicas := 1; replicas <= 5; replicas++ {
		inv := float32(1) / float32(replicas)
		for _, span := range spans {
			lr := float32(rng.NormFloat64())
			w := make([]float32, span[1]+rng.Intn(9))
			salt(rng, w, 0.05, specials...)
			gs, ws := make([][]float32, replicas), make([][]float32, replicas)
			g0, avgG, wantW := make([][]float32, replicas), make([][]float32, replicas), make([][]float32, replicas)
			for r := range gs {
				gs[r] = unaligned(rng, len(w))
				salt(rng, gs[r], 0.125, specials...)
				ws[r] = unaligned(rng, len(w))
				copy(ws[r], w)
				g0[r] = append([]float32(nil), gs[r]...)
				avgG[r] = append([]float32(nil), gs[r]...)
				wantW[r] = append([]float32(nil), ws[r]...)
			}
			AverageSGD(gs, ws, span[0], span[1], inv, lr)
			Average(avgG, span[0], span[1], inv)
			for r := range avgG {
				SGD(wantW[r][span[0]:span[1]], avgG[r][span[0]:span[1]], lr)
			}
			for r := range gs {
				name := fmt.Sprintf("%d replicas, range %v, view %d", replicas, span, r)
				sameBits(t, name+" W", ws[r], wantW[r])
				sameBits(t, name+" dW", gs[r], g0[r])
			}
		}
	}
}

// AverageSGD checks every view before it writes: a short weight view
// anywhere in the list panics with every gradient and weight untouched.
func TestAverageSGDRejectsShortView(t *testing.T) {
	gs := [][]float32{make([]float32, 64), make([]float32, 64)}
	ws := [][]float32{make([]float32, 64), make([]float32, 40, 64)}
	for _, v := range append(gs, ws...) {
		for i := range v[:cap(v)] {
			v[:cap(v)][i] = 1
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "view 1 has 64 gradient and 40 weight floats, range ends at 64") {
			t.Errorf("panic %q, want one naming the view and its lengths", msg)
		}
		for i, v := range append(gs, ws...) {
			for j, x := range v[:cap(v)] {
				if x != 1 {
					t.Fatalf("AverageSGD wrote view %d[%d] = %v before it panicked", i, j, x)
				}
			}
		}
	}()
	AverageSGD(gs, ws, 0, 64, 0.5, 0.1)
	t.Error("AverageSGD accepted a 40-float weight view for the range [0, 64)")
}

// poolRetains reports whether sync.Pool keeps what it is given: under
// the race detector it drops a quarter of all Puts on purpose, and an
// allocation count means nothing there.
func poolRetains() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// TestSteadyStateAllocs pins the zero-allocation claims: on a
// one-worker pool a scratch round trip, a Dense.Forward, a
// Dense.Backward, a Dense.BackwardUpdate reset and with SGD, an SGD, an
// Average and an AverageSGD allocate nothing once the pool is warm, on
// either kernel path.
func TestSteadyStateAllocs(t *testing.T) {
	eachKernelPath(t, testSteadyStateAllocs)
}

func testSteadyStateAllocs(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	defer SetWorkers(runtime.GOMAXPROCS(0))
	SetWorkers(1)
	l := Dense{In: 67, Out: 31, ReLU: true}
	const batch = 5
	params := make([]float32, l.ParamCount())
	fillRand(params, 1)
	x := make([]float32, batch*l.In)
	fillRand(x, 2)
	dy := make([]float32, batch*l.Out)
	fillRand(dy, 3)
	y := make([]float32, batch*l.Out)
	stash := make([]float32, batch*l.In)
	dx := make([]float32, batch*l.In)
	grad := make([]float32, l.ParamCount())
	views := [][]float32{params, grad, x, stash}
	for name, fn := range map[string]func(){
		"PutScratch(GetScratch(n))":  func() { PutScratch(GetScratch(4096)) },
		"Dense.Forward":              func() { l.Forward(params, x, y, stash, batch) },
		"Dense.Backward":             func() { l.Backward(params, stash, dy, dx, grad, batch) },
		"SGD":                        func() { SGD(params, grad, 0.01) },
		"ApplySGD":                   func() { ApplySGD(params, grad, 0.01) },
		"Dense.BackwardUpdate reset": func() { l.BackwardUpdate(params, stash, dy, dx, grad, batch, Update{Reset: true}) },
		"Dense.BackwardUpdate SGD": func() {
			l.BackwardUpdate(params, stash, dy, dx, grad, batch, Update{Reset: true, SGD: true, LR: 0.01})
		},
		"Average":    func() { Average(views, 3, len(x), 0.25) },
		"AverageSGD": func() { AverageSGD(views[:2], views[2:], 3, len(x), 0.5, 0.01) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// BenchmarkDenseStep runs one replica's Dense kernel sequence of a
// training step — per microbatch, Forward up the stack and Backward
// down it — on the four MLP shapes harmonybench trains, and reports
// nominal GFLOP/s (2·In·Out per sample forward, twice that backward;
// skipped zeros count as done) for the two passes separately. The swap
// and pp shapes train eight one-sample microbatches: their mb1x8 rows
// make a call per microbatch, and their mb8x1 rows make one call over
// the same eight rows, as the trainer runs a wave's microbatches of a
// layer (exec.Trainer.runRun), so W and dW stream once, not eight
// times. The compute shape likewise: mb8x8 makes eight 8-row calls a
// layer, mb64x1 the one 64-row call a layer that train-compute's runs
// make.
func BenchmarkDenseStep(b *testing.B) {
	defer SetWorkers(Workers())
	for _, shape := range []struct {
		name        string
		widths      []int
		mb, mbCount int
	}{
		{"compute-784x512x512x10-mb8x8", []int{784, 512, 512, 10}, 8, 8},
		{"compute-784x512x512x10-mb64x1", []int{784, 512, 512, 10}, 64, 1},
		{"comm-64x1536x1536x1536x10-mb4x1", []int{64, 1536, 1536, 1536, 10}, 4, 1},
		{"swap-256x512x512x512x10-mb1x8", []int{256, 512, 512, 512, 10}, 1, 8},
		{"swap-256x512x512x512x10-mb8x1", []int{256, 512, 512, 512, 10}, 8, 1},
		{"pp-256x640x640x640x10-mb1x8", []int{256, 640, 640, 640, 10}, 1, 8},
		{"pp-256x640x640x640x10-mb8x1", []int{256, 640, 640, 640, 10}, 8, 1},
	} {
		b.Run(shape.name, func(b *testing.B) {
			// -cpu takes effect here: the enclosing function runs once,
			// each leaf once per -cpu value.
			SetWorkers(runtime.GOMAXPROCS(0))
			var layers []Dense
			var params, grads, stash, dxs [][]float32
			acts := [][]float32{make([]float32, shape.mb*shape.widths[0])}
			fillRand(acts[0], 1)
			var flops float64
			for i := 0; i+1 < len(shape.widths); i++ {
				l := Dense{In: shape.widths[i], Out: shape.widths[i+1], ReLU: i+2 < len(shape.widths)}
				layers = append(layers, l)
				p := make([]float32, l.ParamCount())
				XavierInit(l, p, uint64(i+1))
				params = append(params, p)
				grads = append(grads, make([]float32, l.ParamCount()))
				stash = append(stash, make([]float32, shape.mb*l.In))
				dxs = append(dxs, make([]float32, shape.mb*l.In))
				acts = append(acts, make([]float32, shape.mb*l.Out))
				flops += 2 * float64(l.In*l.Out) * float64(shape.mb*shape.mbCount)
			}
			dy := make([]float32, shape.mb*shape.widths[len(layers)])
			fillRand(dy, 2)
			var fwd, bwd time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for m := 0; m < shape.mbCount; m++ {
					start := time.Now()
					for i, l := range layers {
						l.Forward(params[i], acts[i], acts[i+1], stash[i], shape.mb)
					}
					mid := time.Now()
					up := dy
					for i := len(layers) - 1; i >= 0; i-- {
						var dx []float32
						if i > 0 {
							dx = dxs[i]
						}
						layers[i].Backward(params[i], stash[i], up, dx, grads[i], shape.mb)
						up = dx
					}
					fwd += mid.Sub(start)
					bwd += time.Since(mid)
				}
			}
			b.ReportMetric(flops*float64(b.N)/fwd.Seconds()/1e9, "fwd-GFLOP/s")
			b.ReportMetric(2*flops*float64(b.N)/bwd.Seconds()/1e9, "bwd-GFLOP/s")
		})
	}
	// The backward with its update, as the trainer's last backward run of
	// a layer makes it on a single-replica SGD plan: a reset backward
	// over the eight rows then ApplySGD (unfused), against one
	// BackwardUpdate with SGD (fused), down the whole stack. One op is
	// one step's backward and update.
	for _, shape := range []struct {
		name   string
		widths []int
	}{
		{"swap-256x512x512x512x10-mb8x1", []int{256, 512, 512, 512, 10}},
		{"pp-256x640x640x640x10-mb8x1", []int{256, 640, 640, 640, 10}},
	} {
		for _, fused := range []bool{false, true} {
			name := shape.name + "-bwd+sgd/unfused"
			if fused {
				name = shape.name + "-bwd+sgd/fused"
			}
			b.Run(name, func(b *testing.B) {
				SetWorkers(runtime.GOMAXPROCS(0))
				const batch = 8
				var layers []Dense
				var params, grads, stash, dxs [][]float32
				var flops float64
				for i := 0; i+1 < len(shape.widths); i++ {
					l := Dense{In: shape.widths[i], Out: shape.widths[i+1], ReLU: i+2 < len(shape.widths)}
					layers = append(layers, l)
					p := make([]float32, l.ParamCount())
					XavierInit(l, p, uint64(i+1))
					params = append(params, p)
					grads = append(grads, make([]float32, l.ParamCount()))
					st := make([]float32, batch*l.In)
					fillRand(st, uint64(i+7))
					if i > 0 { // a rectified input: about half of it zero
						for k, v := range st {
							st[k] = max(v, 0)
						}
					}
					stash = append(stash, st)
					dxs = append(dxs, make([]float32, batch*l.In))
					flops += 4 * float64(l.In*l.Out) * batch
				}
				dy := make([]float32, batch*shape.widths[len(layers)])
				fillRand(dy, 2)
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					up := dy
					for i := len(layers) - 1; i >= 0; i-- {
						var dx []float32
						if i > 0 {
							dx = dxs[i]
						}
						if fused {
							layers[i].BackwardUpdate(params[i], stash[i], up, dx, grads[i], batch, Update{Reset: true, SGD: true, LR: 1e-6})
						} else {
							layers[i].BackwardUpdate(params[i], stash[i], up, dx, grads[i], batch, Update{Reset: true})
							ApplySGD(params[i], grads[i], 1e-6)
						}
						up = dx
					}
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "bwd-GFLOP/s")
			})
		}
	}
}

// BenchmarkSGD applies one replica's update of harmonybench's train-comm
// step: SGD over every layer of a 64·1536·1536·1536·10 MLP, 4.83 M
// floats, on both kernel paths — the SGD that resets its gradient and
// the trainer's ApplySGD, which does not write it.
func BenchmarkSGD(b *testing.B) {
	eachKernelPath(b, func(b *testing.B) {
		widths := []int{64, 1536, 1536, 1536, 10}
		var w, g [][]float32
		floats := 0
		for i := 0; i+1 < len(widths); i++ {
			n := Dense{In: widths[i], Out: widths[i+1]}.ParamCount()
			w, g = append(w, make([]float32, n)), append(g, make([]float32, n))
			fillRand(w[i], uint64(i+1))
			floats += n
		}
		for _, f := range []struct {
			name  string
			fn    func(w, g []float32, lr float32)
			bytes int // per float: w read and written, g read and, by SGD, written
		}{{"SGD", SGD, 16}, {"ApplySGD", ApplySGD, 12}} {
			b.Run(f.name, func(b *testing.B) {
				b.SetBytes(int64(f.bytes * floats))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for l := range w {
						f.fn(w[l], g[l], 0.005)
					}
				}
			})
		}
	})
}

// BenchmarkReduceChunk averages one chunk of harmonybench's train-comm
// step: four replicas, an eighth of a 1536×1536 layer's gradient, on
// both kernel paths.
func BenchmarkReduceChunk(b *testing.B) {
	eachKernelPath(b, func(b *testing.B) {
		const replicas, n = 4, (1536*1536 + 1536) / 8
		views := make([][]float32, replicas)
		for r := range views {
			views[r] = make([]float32, n)
			for j := range views[r] {
				views[r][j] = float32(r + j%7)
			}
		}
		b.SetBytes(2 * replicas * n * 4) // every replica's chunk read once and written once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Average(views, 0, n, 1.0/replicas)
		}
	})
}

// BenchmarkAverageSGD is BenchmarkReduceChunk's chunk with the update
// applied in the same pass, on both kernel paths: four replicas' weights
// beside their gradients. The unfused row is that chunk's Average
// followed by an ApplySGD on every replica, the work the reducer and the four
// updates share when the update is not folded into the reduction.
func BenchmarkAverageSGD(b *testing.B) {
	eachKernelPath(b, func(b *testing.B) {
		const replicas, n = 4, (1536*1536 + 1536) / 8
		gs, ws := make([][]float32, replicas), make([][]float32, replicas)
		for r := range gs {
			gs[r], ws[r] = make([]float32, n), make([]float32, n)
			for j := range gs[r] {
				gs[r][j], ws[r][j] = float32(r+j%7), float32(j%5)
			}
		}
		b.Run("unfused", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Average(gs, 0, n, 1.0/replicas)
				for r := range gs {
					ApplySGD(ws[r], gs[r], 0.005)
				}
			}
		})
		b.Run("fused", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AverageSGD(gs, ws, 0, n, 1.0/replicas, 0.005)
			}
		})
	})
}
