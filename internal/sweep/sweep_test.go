package sweep

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunPreservesOrder(t *testing.T) {
	configs := []int{5, 3, 9, 1, 7}
	got, err := Run(configs, 3, func(c int) (int, error) { return c * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range configs {
		if got[i] != c*2 {
			t.Fatalf("results out of order: %v", got)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	got, err := Run(nil, 4, func(int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: %v, %v", got, err)
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int32
	configs := make([]int, 32)
	_, err := Run(configs, 4, func(int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		// Small spin so workers overlap.
		s := 0
		for i := 0; i < 10000; i++ {
			s += i
		}
		_ = s
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("observed %d concurrent workers, cap was 4", p)
	}
}

func TestRunFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run([]int{1, 2, 3, 4}, 2, func(c int) (int, error) {
		if c == 3 {
			return 0, boom
		}
		return c, nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	_, err := Run([]int{1}, 1, func(int) (int, error) { panic("kaboom") })
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

// Property: Run with any worker count equals the serial map.
func TestRunEquivalentToSerial(t *testing.T) {
	f := func(raw []uint8, workersRaw uint8) bool {
		workers := int(workersRaw%8) + 1
		configs := make([]int, len(raw))
		for i, v := range raw {
			configs[i] = int(v)
		}
		got, err := Run(configs, workers, func(c int) (string, error) {
			return fmt.Sprintf("v%d", c*3), nil
		})
		if err != nil {
			return false
		}
		for i, c := range configs {
			if got[i] != fmt.Sprintf("v%d", c*3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
