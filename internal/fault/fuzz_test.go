package fault

import "testing"

// FuzzParse feeds arbitrary spec strings to the -fault-spec grammar: it
// must never panic, and a spec it accepts yields only rules an injector
// can evaluate — a probability in [0,1], non-negative count, step and
// delay, and dev and layer no lower than the -1 wildcard. Seeded with
// the documented examples and the hostile values that used to get
// through: prob=NaN compares false against both range ends, and Inject
// then treated the rule as certain; dev=-4 and layer=-7 matched every
// device and layer like the wildcard; and a negative delay slept the
// default instead.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"",
		"op=swap-in,count=3",
		"op=kernel,mode=fatal,dev=1,step=5",
		"step=3,dev=1,op=kernel,mode=fatal;op=swap-in,count=2",
		"op=p2p,mode=delay,delay=2ms,prob=0.5,layer=1",
		"prob=NaN",
		"prob=-0",
		"count=0;;op=any",
		"dev=-1,layer=-1",
		"dev=-4",
		"layer=-7",
		"mode=delay,delay=-1ms",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec, 1)
		if err != nil {
			return
		}
		for _, rs := range in.rules {
			if r := rs.Rule; !(r.Prob >= 0 && r.Prob <= 1) || r.Count < 0 || r.Step < 0 ||
				r.Dev < -1 || r.Layer < -1 || r.Delay < 0 {
				t.Fatalf("spec %q accepted with rule %+v", spec, r)
			}
		}
	})
}
