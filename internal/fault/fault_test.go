package fault

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// ------------------------------------------------------------- parsing

func TestParseGrammar(t *testing.T) {
	in, err := Parse("step=3,dev=1,op=kernel,mode=fatal; op=swap-in,count=2,prob=0.5,delay=2ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.Rules() != 2 {
		t.Fatalf("rules = %d, want 2", in.Rules())
	}
	r0, r1 := in.rules[0].Rule, in.rules[1].Rule
	if r0.Op != Kernel || r0.Mode != Fatal || r0.Dev != 1 || r0.Step != 3 || r0.Count != 1 {
		t.Fatalf("rule 0 = %+v", r0)
	}
	if r1.Op != SwapIn || r1.Mode != Transient || r1.Dev != -1 || r1.Count != 2 ||
		r1.Prob != 0.5 || r1.Delay != 2*time.Millisecond {
		t.Fatalf("rule 1 = %+v", r1)
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	in, err := Parse("", 0)
	if err != nil || in.Rules() != 0 {
		t.Fatalf("empty spec: %v, %d rules", err, in.Rules())
	}
	for _, bad := range []string{
		"op=warp", "mode=loud", "dev=x", "step=-1", "count=-2",
		"prob=1.5", "prob=NaN", "delay=fast", "frobnicate=1", "op",
	} {
		if _, err := Parse(bad, 0); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// ------------------------------------------------------ rule semantics

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Inject(Kernel, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	in.NoteRetry(Kernel, 0, 1)
	in.Observe(nil)
	if i, r := in.Stats(); i != 0 || r != 0 {
		t.Fatalf("stats = %d, %d", i, r)
	}
}

func TestSiteMatching(t *testing.T) {
	in, err := Parse("op=kernel,dev=1,step=3,layer=2,count=0", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong op, dev, step or layer: no fault.
	for _, c := range []struct {
		op               Op
		dev, step, layer int
	}{
		{SwapIn, 1, 3, 2}, {Kernel, 0, 3, 2}, {Kernel, 1, 2, 2}, {Kernel, 1, 3, 1},
	} {
		if err := in.Inject(c.op, c.dev, c.step, c.layer); err != nil {
			t.Fatalf("injected for %+v: %v", c, err)
		}
	}
	if err := in.Inject(Kernel, 1, 3, 2); !IsTransient(err) {
		t.Fatalf("exact match: %v", err)
	}
}

func TestCountConsumption(t *testing.T) {
	in := New(0, Rule{Op: SwapIn, Dev: -1, Layer: -1, Count: 2})
	if err := in.Inject(SwapIn, 0, 1, 0); !IsTransient(err) {
		t.Fatalf("first: %v", err)
	}
	if err := in.Inject(SwapIn, 0, 1, 0); !IsTransient(err) {
		t.Fatalf("second: %v", err)
	}
	// Count exhausted: the retry succeeds.
	if err := in.Inject(SwapIn, 0, 1, 0); err != nil {
		t.Fatalf("third: %v", err)
	}
}

func TestFatalAndHelpers(t *testing.T) {
	in := New(0, Rule{Op: Collective, Mode: Fatal, Dev: 1, Layer: -1, Count: 1})
	err := in.Inject(Collective, 1, 5, -1)
	dev, ok := AsFatal(err)
	if !ok || dev != 1 {
		t.Fatalf("AsFatal(%v) = %d, %v", err, dev, ok)
	}
	if IsTransient(err) {
		t.Fatal("fatal classified transient")
	}
	wrapped := errors.Join(errors.New("outer"), err)
	if d, ok := AsFatal(wrapped); !ok || d != 1 {
		t.Fatalf("AsFatal through wrap = %d, %v", d, ok)
	}
}

func TestDelayModeSleepsAndSucceeds(t *testing.T) {
	in := New(0, Rule{Mode: Delay, Dev: -1, Layer: -1, Count: 3, Delay: 7 * time.Millisecond})
	var slept time.Duration
	in.SetSleep(func(d time.Duration) { slept += d })
	for i := 0; i < 5; i++ {
		if err := in.Inject(Kernel, 0, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	if slept != 21*time.Millisecond {
		t.Fatalf("slept %v, want 21ms", slept)
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	in := New(0,
		Rule{Op: Kernel, Mode: Fatal, Dev: 0, Layer: -1, Count: 1},
		Rule{Op: Kernel, Dev: -1, Layer: -1, Count: 0})
	if _, ok := AsFatal(in.Inject(Kernel, 0, 1, 0)); !ok {
		t.Fatal("rule 0 did not win")
	}
	// Rule 0 exhausted; rule 1 takes over.
	if err := in.Inject(Kernel, 0, 1, 0); !IsTransient(err) {
		t.Fatalf("fallthrough: %v", err)
	}
}

// --------------------------------------------------------- determinism

// TestProbDeterministicAcrossInterleavings is the core promise: the
// decision for the nth occurrence of a site depends only on the seed
// and the site identity, not on the order sites are interrogated in.
func TestProbDeterministicAcrossInterleavings(t *testing.T) {
	type probe struct{ dev, layer int }
	sites := []probe{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 5}}
	run := func(order []int) map[probe][]bool {
		in := New(42, Rule{Dev: -1, Layer: -1, Count: 0, Prob: 0.5})
		out := make(map[probe][]bool)
		for pass := 0; pass < 4; pass++ {
			for _, i := range order {
				s := sites[i]
				out[s] = append(out[s], in.Inject(Kernel, s.dev, 1, s.layer) != nil)
			}
		}
		return out
	}
	a := run([]int{0, 1, 2, 3, 4})
	b := run([]int{4, 3, 2, 1, 0})
	for s, seq := range a {
		for i := range seq {
			if seq[i] != b[s][i] {
				t.Fatalf("site %+v occurrence %d: %v vs %v", s, i, seq[i], b[s][i])
			}
		}
	}
	// A different seed flips at least one decision (p ≈ 1-2^-20).
	in2 := New(43, Rule{Dev: -1, Layer: -1, Count: 0, Prob: 0.5})
	differs := false
	for pass := 0; pass < 4; pass++ {
		for _, s := range sites {
			got := in2.Inject(Kernel, s.dev, 1, s.layer) != nil
			if got != a[s][pass] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical decision streams")
	}
}

func TestProbFiringRateRoughlyMatches(t *testing.T) {
	in := New(7, Rule{Dev: -1, Layer: -1, Count: 0, Prob: 0.3})
	fired := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if in.Inject(Kernel, 0, 1, i) != nil {
			fired++
		}
	}
	if rate := float64(fired) / n; rate < 0.25 || rate > 0.35 {
		t.Fatalf("firing rate %v, want ≈0.3", rate)
	}
}

// ------------------------------------------------- observers and stats

func TestObserverAndStats(t *testing.T) {
	in := New(0, Rule{Op: SwapOut, Dev: -1, Layer: -1, Count: 1})
	var mu sync.Mutex
	var events []Event
	in.Observe(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	if err := in.Inject(SwapOut, 2, 4, 1); !IsTransient(err) {
		t.Fatal(err)
	}
	in.NoteRetry(SwapOut, 2, 4)
	if err := in.Inject(SwapOut, 2, 4, 1); err != nil {
		t.Fatal(err)
	}
	inj, ret := in.Stats()
	if inj != 1 || ret != 1 {
		t.Fatalf("stats = %d, %d", inj, ret)
	}
	if len(events) != 2 ||
		events[0].Kind != EvFault || events[0].Op != SwapOut || events[0].Dev != 2 ||
		events[1].Kind != EvRetry {
		t.Fatalf("events = %+v", events)
	}
}

func TestConcurrentInjectIsRaceFree(t *testing.T) {
	in := New(1, Rule{Dev: -1, Layer: -1, Count: 0, Prob: 0.5})
	in.Observe(func(Event) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in.Inject(Kernel, g, 1, i)
				in.NoteRetry(Kernel, g, 1)
			}
		}(g)
	}
	wg.Wait()
}

func TestBackoffCapped(t *testing.T) {
	if Backoff(0) != 50*time.Microsecond {
		t.Fatalf("Backoff(0) = %v", Backoff(0))
	}
	if Backoff(1) != 100*time.Microsecond {
		t.Fatalf("Backoff(1) = %v", Backoff(1))
	}
	if Backoff(20) != 5*time.Millisecond {
		t.Fatalf("Backoff(20) = %v", Backoff(20))
	}
}
