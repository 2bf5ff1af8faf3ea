package sched

import (
	"strings"
	"testing"
)

// FuzzParseMode feeds arbitrary names to ParseMode, the parser all
// three CLIs share: it must never panic, a name it rejects yields an
// error, and a mode it accepts is one CheckMode passes whose String
// parses back to it.
func FuzzParseMode(f *testing.F) {
	for _, name := range strings.Split(ModeNames(), ", ") {
		f.Add(name)
	}
	for _, name := range []string{"", "Mode(6)", "Mode(-1)", "harmony-dp ", "HARMONY-DP", "harmony"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		m, err := ParseMode(name)
		if err != nil {
			return
		}
		if err := CheckMode(m); err != nil {
			t.Fatalf("%q parsed to a mode CheckMode refuses: %v", name, err)
		}
		if back, err := ParseMode(m.String()); err != nil || back != m {
			t.Fatalf("%q parsed to %v, whose String %q parses to %v (%v)", name, m, m.String(), back, err)
		}
	})
}
