// Package fault is a seeded, deterministic fault injector for the
// real trainer: it can fail or delay named operations (kernel launch,
// swap-in/out, p2p copy, collective rendezvous) on specific devices at
// specific steps. Because every decision is a pure function of the
// seed and the operation's identity, a failure scenario described by a
// spec string is a reproducible unit test rather than a flake.
//
// A spec is a semicolon-separated list of rules; each rule is a
// comma-separated list of key=value fields:
//
//	op=kernel|swap-in|swap-out|p2p|collective|any   (default any)
//	mode=transient|fatal|delay                      (default transient)
//	dev=<int>     device to hit (default, or -1: any device)
//	step=<int>    1-based trainer step (default: any step; simulated
//	              memory-manager ops carry step 0 and only match
//	              rules with no step constraint)
//	layer=<int>   layer index (default, or -1: any layer)
//	count=<int>   how many times the rule fires (default 1; 0 = no cap)
//	prob=<float>  per-occurrence firing probability (default 1)
//	delay=<dur>   non-negative Go duration for mode=delay (default 1ms)
//
// Example: "step=3,dev=1,op=kernel,mode=fatal;op=swap-in,count=2"
// kills device 1's kernel launch at step 3 and makes the first two
// matching swap-ins fail transiently.
//
// A site is an operation that runs: swap-in, swap-out and p2p are
// copies over a link. Where the trainer's VM moves a page without one —
// a gradient buffer it knows to be all zeros is evicted as a drop and
// made resident again by a memset (exec.VM.MarkZero) — there is no site,
// and no rule fires.
//
// Modes: a transient fault is retryable (the retry layers in
// internal/exec and internal/memory re-attempt it with backoff), a
// fatal fault kills the device worker (the trainer's recovery path
// retires the device), and a delay perturbs timing only — the math is
// untouched, which is what the determinism tests exploit.
//
// Determinism: probabilistic rules decide via a hash of (seed, rule
// index, operation identity, occurrence number), so the decision for
// the nth occurrence of an operation is independent of goroutine
// interleaving. Rules that pin step and dev are fully deterministic;
// a count cap shared across several matching sites is consumed in
// arrival order, so pin the site when exact replay matters.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Op names an injectable operation class.
type Op int

const (
	// OpAny matches every operation (rules only).
	OpAny Op = iota
	// Kernel is a compute-task launch on a device worker.
	Kernel
	// SwapIn is a host→device copy (a zero-fill copies nothing and is
	// not one).
	SwapIn
	// SwapOut is a device→host writeback (a drop writes nothing back
	// and is not one).
	SwapOut
	// P2P is a device→device move.
	P2P
	// Collective is a collective rendezvous/reduction.
	Collective
)

var opNames = [...]string{"any", "kernel", "swap-in", "swap-out", "p2p", "collective"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Mode selects what an injected fault does.
type Mode int

const (
	// Transient faults are retryable: the retry layer re-attempts the
	// operation with backoff and the fault clears once its rule's
	// count is exhausted.
	Transient Mode = iota
	// Fatal faults kill the device worker mid-iteration; recovery
	// retires the device, re-binds its tasks and rolls back.
	Fatal
	// Delay perturbs timing only (the operation still succeeds).
	Delay
)

var modeNames = [...]string{"transient", "fatal", "delay"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Rule describes one injection site. Zero values mean "any" for Dev
// (-1 is also accepted), Step and Layer; see the package comment for
// the spec grammar that builds rules.
type Rule struct {
	Op    Op
	Mode  Mode
	Dev   int // -1 = any device
	Step  int // 0 = any step
	Layer int // -1 = any layer
	Count int // max firings; 0 = unlimited
	Prob  float64
	Delay time.Duration
}

func (r *Rule) matches(op Op, dev, step, layer int) bool {
	if r.Op != OpAny && r.Op != op {
		return false
	}
	if r.Dev >= 0 && r.Dev != dev {
		return false
	}
	if r.Step > 0 && r.Step != step {
		return false
	}
	if r.Layer >= 0 && r.Layer != layer {
		return false
	}
	return true
}

// TransientError is an injected retryable failure.
type TransientError struct {
	Op   Op
	Dev  int
	Step int
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: injected transient %s failure on dev %d at step %d", e.Op, e.Dev, e.Step)
}

// FatalError is an injected device-killing failure.
type FatalError struct {
	Op   Op
	Dev  int
	Step int
}

func (e *FatalError) Error() string {
	return fmt.Sprintf("fault: injected fatal %s failure on dev %d at step %d", e.Op, e.Dev, e.Step)
}

// IsTransient reports whether err is (or wraps) an injected transient
// fault — the signal the retry layers act on.
func IsTransient(err error) bool {
	var t *TransientError
	return errors.As(err, &t)
}

// AsFatal extracts the device of an injected fatal fault, if err is
// (or wraps) one. The trainer's recovery path keys off this.
func AsFatal(err error) (dev int, ok bool) {
	var f *FatalError
	if errors.As(err, &f) {
		return f.Dev, true
	}
	return -1, false
}

// EventKind distinguishes observer notifications.
type EventKind int

const (
	// EvFault is an injected fault or delay firing.
	EvFault EventKind = iota
	// EvRetry is a retry layer re-attempting a faulted operation.
	EvRetry
)

// Event is one observer notification.
type Event struct {
	Kind  EventKind
	Op    Op
	Mode  Mode // meaningful for EvFault
	Dev   int
	Step  int
	Layer int
}

// Injector evaluates rules against operations about to run. The zero
// Injector is unusable; build one with New or Parse. A nil *Injector
// is safe to call and injects nothing. All methods are safe for
// concurrent use.
type Injector struct {
	mu    sync.Mutex
	seed  uint64
	rules []*ruleState
	sleep func(time.Duration)
	obs   func(Event)

	injected int
	retries  int
}

type site struct {
	op               Op
	dev, step, layer int
}

type ruleState struct {
	Rule
	fired int
	occ   map[site]int
}

// New builds an injector from explicit rules.
func New(seed uint64, rules ...Rule) *Injector {
	in := &Injector{seed: seed, sleep: time.Sleep}
	for _, r := range rules {
		if r.Prob == 0 {
			r.Prob = 1
		}
		rs := &ruleState{Rule: r, occ: make(map[site]int)}
		in.rules = append(in.rules, rs)
	}
	return in
}

// Parse builds an injector from a spec string (see the package
// comment for the grammar). An empty spec yields an injector with no
// rules.
func Parse(spec string, seed uint64) (*Injector, error) {
	var rules []Rule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		r := Rule{Dev: -1, Layer: -1, Count: 1, Prob: 1}
		for _, f := range strings.Split(rs, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(f), "=")
			if !ok {
				return nil, fmt.Errorf("fault: field %q is not key=value", f)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			var err error
			switch k {
			case "op":
				switch v {
				case "any":
					r.Op = OpAny
				case "kernel":
					r.Op = Kernel
				case "swap-in":
					r.Op = SwapIn
				case "swap-out":
					r.Op = SwapOut
				case "p2p":
					r.Op = P2P
				case "collective":
					r.Op = Collective
				default:
					return nil, fmt.Errorf("fault: unknown op %q", v)
				}
			case "mode":
				switch v {
				case "transient":
					r.Mode = Transient
				case "fatal":
					r.Mode = Fatal
				case "delay":
					r.Mode = Delay
				default:
					return nil, fmt.Errorf("fault: unknown mode %q", v)
				}
			case "dev":
				// -1 is the wildcard; anything below it would match every
				// device too, unasked.
				r.Dev, err = strconv.Atoi(v)
				if err == nil && r.Dev < -1 {
					return nil, fmt.Errorf("fault: dev %q below -1 (any device)", v)
				}
			case "step":
				r.Step, err = strconv.Atoi(v)
				if err == nil && r.Step < 0 {
					return nil, fmt.Errorf("fault: negative step %q", v)
				}
			case "layer":
				r.Layer, err = strconv.Atoi(v)
				if err == nil && r.Layer < -1 {
					return nil, fmt.Errorf("fault: layer %q below -1 (any layer)", v)
				}
			case "count":
				r.Count, err = strconv.Atoi(v)
				if err == nil && r.Count < 0 {
					return nil, fmt.Errorf("fault: negative count %q", v)
				}
			case "prob":
				r.Prob, err = strconv.ParseFloat(v, 64)
				// Phrased as "not inside" so NaN, which compares false
				// both ways, is rejected too — Inject's r.Prob < 1 would
				// otherwise treat a NaN rule as certain.
				if err == nil && !(r.Prob >= 0 && r.Prob <= 1) {
					return nil, fmt.Errorf("fault: prob %q outside [0,1]", v)
				}
			case "delay":
				r.Delay, err = time.ParseDuration(v)
				if err == nil && r.Delay < 0 {
					return nil, fmt.Errorf("fault: negative delay %q", v)
				}
			default:
				return nil, fmt.Errorf("fault: unknown key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: bad value %q for %s: %v", v, k, err)
			}
		}
		rules = append(rules, r)
	}
	return New(seed, rules...), nil
}

// Observe installs a callback notified of every injected fault and
// every retry. It runs outside the injector lock but must not call
// back into the injector.
func (in *Injector) Observe(fn func(Event)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.obs = fn
}

// SetSleep overrides the delay-mode sleeper (tests; simulated time).
func (in *Injector) SetSleep(fn func(time.Duration)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sleep = fn
}

// Inject consults the rules for an operation about to run. It returns
// nil (proceed), a *TransientError, or a *FatalError; delay rules
// sleep and return nil. The first matching rule that fires wins.
// Calling Inject again for the same operation re-evaluates the rules,
// which is exactly what a retry does: a transient rule with count=1
// fails the first attempt and lets the retry through.
func (in *Injector) Inject(op Op, dev, step, layer int) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	for ri, r := range in.rules {
		if !r.matches(op, dev, step, layer) {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob < 1 {
			s := site{op, dev, step, layer}
			n := r.occ[s]
			r.occ[s] = n + 1
			if !decide(in.seed, ri, s, n, r.Prob) {
				continue
			}
		}
		r.fired++
		in.injected++
		obs, sleep := in.obs, in.sleep
		mode := r.Mode
		d := r.Delay
		in.mu.Unlock()
		if obs != nil {
			obs(Event{Kind: EvFault, Op: op, Mode: mode, Dev: dev, Step: step, Layer: layer})
		}
		switch mode {
		case Delay:
			if d <= 0 {
				d = time.Millisecond
			}
			sleep(d)
			return nil
		case Fatal:
			return &FatalError{Op: op, Dev: dev, Step: step}
		default:
			return &TransientError{Op: op, Dev: dev, Step: step}
		}
	}
	in.mu.Unlock()
	return nil
}

// NoteRetry records that a retry layer is re-attempting a faulted
// operation (for stats and timelines).
func (in *Injector) NoteRetry(op Op, dev, step int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.retries++
	obs := in.obs
	in.mu.Unlock()
	if obs != nil {
		obs(Event{Kind: EvRetry, Op: op, Dev: dev, Step: step})
	}
}

// Stats returns how many faults were injected and how many retries
// the retry layers reported.
func (in *Injector) Stats() (injected, retries int) {
	if in == nil {
		return 0, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected, in.retries
}

// Rules returns how many rules the injector carries (0 for a nil or
// empty injector; callers use this to skip arming).
func (in *Injector) Rules() int {
	if in == nil {
		return 0
	}
	return len(in.rules)
}

// Backoff returns the sleep before retry attempt `attempt` (0-based):
// 50µs doubling per attempt, capped at 5ms — long enough to model a
// flaky link settling, short enough to keep injected-fault tests
// fast.
func Backoff(attempt int) time.Duration {
	d := 50 * time.Microsecond << uint(attempt)
	if d > 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	return d
}

// decide hashes (seed, rule, site, occurrence) into a uniform [0,1)
// draw — deterministic regardless of goroutine interleaving.
func decide(seed uint64, rule int, s site, n int, prob float64) bool {
	h := seed
	for _, v := range []uint64{uint64(rule), uint64(s.op), uint64(uint32(s.dev)),
		uint64(uint32(s.step)), uint64(uint32(s.layer)), uint64(n)} {
		h = splitmix64(h ^ v)
	}
	return float64(h>>11)/(1<<53) < prob
}

// splitmix64 is the standard 64-bit finalizer (public-domain
// reference constants).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
