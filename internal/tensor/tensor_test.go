package tensor

import (
	"testing"
	"testing/quick"

	"harmony/internal/hw"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	w := r.Add(Weight, 1000, 0, -1)
	x := r.Add(Activation, 200, 0, 0)
	if w.ID != 0 || x.ID != 1 {
		t.Fatalf("IDs = %d,%d; want 0,1", w.ID, x.ID)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := r.TotalBytes(); got != 1200 {
		t.Fatalf("TotalBytes = %d", got)
	}
	if got := r.TotalBytes(Weight); got != 1000 {
		t.Fatalf("TotalBytes(Weight) = %d", got)
	}
	if got := r.TotalBytes(Weight, Activation); got != 1200 {
		t.Fatalf("TotalBytes(W,Y) = %d", got)
	}
	// The deprecated New registers like Add and keeps no name.
	if y := r.New("y0.0", Activation, 200, 1, 0); *y != (Tensor{ID: 2, Kind: Activation, Bytes: 200, Layer: 1}) {
		t.Fatalf("New = %+v", *y)
	}
}

func TestRegistryNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative size")
		}
	}()
	NewRegistry().Add(Weight, -1, 0, -1)
}

func TestKindProperties(t *testing.T) {
	persistent := []Kind{Weight, WeightGrad, OptState}
	transient := []Kind{Activation, Stash, ActivationGrad, Workspace}
	for _, k := range persistent {
		if !k.IsPersistent() {
			t.Errorf("%s should be persistent", k)
		}
	}
	for _, k := range transient {
		if k.IsPersistent() {
			t.Errorf("%s should be transient", k)
		}
	}
}

func TestTensorString(t *testing.T) {
	r := NewRegistry()
	w := r.Add(Weight, 1, 3, -1)
	x := r.Add(Stash, 1, 2, 5)
	if w.String() != "W[L3]" {
		t.Fatalf("w.String() = %q", w.String())
	}
	if x.String() != "X[L2,mb5]" {
		t.Fatalf("x.String() = %q", x.String())
	}
}

func newState() *State {
	r := NewRegistry()
	return NewState(r.Add(Weight, 100, 0, -1))
}

func TestSwapInOutCycle(t *testing.T) {
	s := newState()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AllocHost())
	if !s.HostValid() || s.OnAnyDevice() {
		t.Fatal("expected host-only after AllocHost")
	}
	must(s.BeginSwapIn(0))
	if !s.InFlight {
		t.Fatal("expected in-flight")
	}
	must(s.EndSwapIn())
	if !s.OnDevice(0) || !s.HostValid() || s.Dirty() {
		t.Fatalf("after swap-in: loc=%s dev=%s", s.Loc, s.Dev)
	}
	must(s.Pin())
	if err := s.Drop(); err == nil {
		t.Fatal("Drop of pinned tensor must fail")
	}
	must(s.MarkDirty(0))
	if !s.Dirty() {
		t.Fatal("expected dirty after MarkDirty")
	}
	must(s.Unpin())
	if err := s.Drop(); err == nil {
		t.Fatal("Drop of dirty tensor must fail")
	}
	must(s.BeginSwapOut())
	must(s.EndSwapOut())
	if !s.HostValid() || s.OnAnyDevice() {
		t.Fatal("expected host-only after writeback")
	}
	must(s.Free())
	if s.Loc != LocNone {
		t.Fatal("expected none after Free")
	}
}

func TestCleanDropIsLegal(t *testing.T) {
	s := newState()
	if err := s.AllocHost(); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginSwapIn(1); err != nil {
		t.Fatal(err)
	}
	if err := s.EndSwapIn(); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop(); err != nil {
		t.Fatal(err)
	}
	if s.Loc != LocHost {
		t.Fatalf("loc = %s, want host", s.Loc)
	}
}

func TestAllocDeviceIsDirty(t *testing.T) {
	s := newState()
	if err := s.AllocDevice(2); err != nil {
		t.Fatal(err)
	}
	if !s.Dirty() || !s.OnDevice(2) {
		t.Fatal("device-allocated tensor must be dirty on its device")
	}
	if err := s.AllocDevice(hw.Host); err == nil {
		t.Fatal("AllocDevice(Host) must fail")
	}
}

func TestMigrate(t *testing.T) {
	s := newState()
	if err := s.AllocDevice(0); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginMigrate(1); err != nil {
		t.Fatal(err)
	}
	if err := s.EndMigrate(1); err != nil {
		t.Fatal(err)
	}
	if !s.OnDevice(1) || !s.Dirty() {
		t.Fatalf("after migrate: loc=%s dev=%s", s.Loc, s.Dev)
	}
	if err := s.BeginMigrate(1); err == nil {
		t.Fatal("migrate to same device must fail")
	}
}

func TestInvalidTransitions(t *testing.T) {
	s := newState()
	if err := s.BeginSwapIn(0); err == nil {
		t.Fatal("swap-in with no host copy must fail")
	}
	if err := s.MarkDirty(0); err == nil {
		t.Fatal("MarkDirty with no device copy must fail")
	}
	if err := s.Pin(); err == nil {
		t.Fatal("Pin with no device copy must fail")
	}
	if err := s.Unpin(); err == nil {
		t.Fatal("Unpin with no pins must fail")
	}
	if err := s.AllocHost(); err != nil {
		t.Fatal(err)
	}
	if err := s.AllocHost(); err == nil {
		t.Fatal("double AllocHost must fail")
	}
	if err := s.BeginSwapOut(); err == nil {
		t.Fatal("swap-out with no device copy must fail")
	}
	if err := s.BeginSwapIn(0); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginSwapIn(1); err == nil {
		t.Fatal("concurrent swap-in must fail")
	}
	if err := s.Free(); err == nil {
		t.Fatal("Free of in-flight tensor must fail")
	}
}

// Property: no legal sequence of random operations can reach a state
// where the tensor is InFlight while LocNone, pinned without a device
// copy, or located on the host device marker while claiming residence.
func TestStateMachineInvariants(t *testing.T) {
	type opCode uint8
	f := func(ops []opCode) bool {
		s := newState()
		for _, op := range ops {
			switch op % 12 {
			case 0:
				s.AllocHost() //nolint:errcheck
			case 1:
				s.AllocDevice(hw.DeviceID(int(op) % 4)) //nolint:errcheck
			case 2:
				s.BeginSwapIn(hw.DeviceID(int(op) % 4)) //nolint:errcheck
			case 3:
				s.EndSwapIn() //nolint:errcheck
			case 4:
				s.BeginSwapOut() //nolint:errcheck
			case 5:
				s.EndSwapOut() //nolint:errcheck
			case 6:
				s.Drop() //nolint:errcheck
			case 7:
				s.MarkDirty(hw.DeviceID(int(op) % 4)) //nolint:errcheck
			case 8:
				s.Pin() //nolint:errcheck
			case 9:
				s.Unpin() //nolint:errcheck
			case 10:
				s.BeginMigrate(hw.DeviceID(int(op) % 4)) //nolint:errcheck
			case 11:
				s.Free() //nolint:errcheck
			}
			// Invariants.
			if s.Pins < 0 {
				return false
			}
			if s.Pins > 0 && !s.OnAnyDevice() {
				return false
			}
			if s.InFlight && s.Loc == LocNone {
				return false
			}
			if s.OnAnyDevice() && s.Dev == hw.Host {
				return false
			}
			if !s.OnAnyDevice() && s.Loc != LocNone && s.Loc != LocHost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
