package data

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBlobsDeterministic(t *testing.T) {
	a := NewBlobs(8, 3, 0.5, 42)
	b := NewBlobs(8, 3, 0.5, 42)
	xa, ya := a.Batch(16, 7)
	xb, yb := b.Batch(16, 7)
	for i := range xa {
		if xa[i] != xb[i] {
			t.Fatal("inputs not reproducible")
		}
	}
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("labels not reproducible")
		}
	}
}

func TestBlobsBatchesDiffer(t *testing.T) {
	b := NewBlobs(8, 3, 0.5, 42)
	x1, _ := b.Batch(16, 0)
	x2, _ := b.Batch(16, 1)
	same := true
	for i := range x1 {
		if x1[i] != x2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different batch indices should differ")
	}
}

func TestBlobsShapesAndLabels(t *testing.T) {
	b := NewBlobs(5, 4, 0.1, 1)
	x, y := b.Batch(32, 0)
	if len(x) != 32*5 || len(y) != 32 {
		t.Fatalf("shapes: x=%d y=%d", len(x), len(y))
	}
	seen := map[int]bool{}
	for _, lbl := range y {
		if lbl < 0 || lbl >= 4 {
			t.Fatalf("label %d out of range", lbl)
		}
		seen[lbl] = true
	}
	if len(seen) < 2 {
		t.Fatal("suspiciously few classes in a 32-sample batch")
	}
}

func TestBlobsSeparableAtLowNoise(t *testing.T) {
	// Nearest-center classification should be near-perfect at low
	// noise: the blobs are a usable supervised task.
	b := NewBlobs(6, 3, 0.2, 9)
	x, y := b.Batch(128, 3)
	correct := 0
	for i := 0; i < 128; i++ {
		best, bestD := -1, math.MaxFloat64
		for c := 0; c < 3; c++ {
			var d float64
			for j := 0; j < 6; j++ {
				diff := float64(x[i*6+j] - b.centers[c][j])
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == y[i] {
			correct++
		}
	}
	if correct < 120 {
		t.Fatalf("nearest-center accuracy %d/128 too low", correct)
	}
}

func TestBlobsBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlobs(0, 3, 0.5, 1)
}

// Property: samples are finite and labels valid for arbitrary shapes.
func TestBlobsFiniteProperty(t *testing.T) {
	f := func(dimRaw, classRaw, seedRaw uint8) bool {
		dim := int(dimRaw%16) + 1
		classes := int(classRaw%8) + 1
		b := NewBlobs(dim, classes, 1.0, uint64(seedRaw))
		x, y := b.Batch(8, uint64(seedRaw)*3)
		for _, v := range x {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
		for _, lbl := range y {
			if lbl < 0 || lbl >= classes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
