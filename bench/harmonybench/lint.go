package main

import (
	"fmt"
	"runtime"
	"time"

	"harmony/internal/analyzers"
)

// passes is one op: every analyzer over the loaded tree, as one
// RunProject call, the way cmd/harmonylint makes it.
func passes(c *runCtx, pkgs []*analyzers.Package) (findings int, err error) {
	defer c.spans.begin("analyzers.RunProject")()
	diags, err := analyzers.RunProject(pkgs, analyzers.All()...)
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		fmt.Fprintln(c.out, "finding:", d)
	}
	return len(diags), nil
}

// kloc counts the lines of the loaded (non-test) Go files, in
// thousands. The tree is the live one and grows; throughput is
// reported per kLoC so that growth does not read as a slowdown.
func kloc(pkgs []*analyzers.Package) float64 {
	lines := 0
	for _, p := range pkgs {
		for _, f := range p.Files {
			lines += p.Fset.File(f.Pos()).LineCount()
		}
	}
	return float64(lines) / 1000
}

// runLint splits harmonylint's work where its noise splits. Set-up is
// one whole lint as a user runs it, cold: the load (a `go list` child,
// then the tree and everything it imports type-checked from source)
// and the first run of the passes. The load is 98 % of that, a quarter
// of its time is spent in the kernel, and it does not repeat: as the op
// it spread by 9–17 % between identical runs whatever was taken inside
// the run. It is measured once, so what a change moves into first-use
// initialisation lands in it. An op is the passes over the loaded tree
// again: the repository's own analyzer code and nothing else, short
// enough to find the machine's quiet moments.
func runLint(c *runCtx) error {
	start := time.Now()
	end := c.spans.begin("setup")
	endLoad := c.spans.begin("analyzers.Load")
	pkgs, err := analyzers.Load(c.tree, c.lintPattern)
	endLoad()
	loadMS := time.Since(start).Seconds() * 1e3
	var findings int
	if err == nil {
		findings, err = passes(c, pkgs)
	}
	end()
	if err != nil {
		return err
	}
	setup := time.Since(start).Seconds()
	tree := kloc(pkgs)
	runtime.GC()

	seconds, minOps := c.seconds, 2
	if c.trace {
		seconds, minOps = c.seconds/4, 1
	}
	var ms []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	for i := 0; i < minOps || time.Since(begin).Seconds() < seconds; i++ {
		c.cpus.turnWhenDue()
		// A user's passes run once, on the heap the load left behind.
		// Collecting before every op gives each the same start; left
		// alone, a 0.4 s window holds one or two collections of that
		// 100 MiB heap, by luck, and op_ms_p50 spread by 10 %.
		runtime.GC()
		opStart := time.Now()
		end := c.spans.begin("op")
		n, err := passes(c, pkgs)
		end()
		ms = append(ms, time.Since(opStart).Seconds()*1e3)
		c.attempted++
		switch {
		case err != nil:
			c.problem("op %d: %v", i, err)
		case n != 0 || findings != 0:
			c.problem("op %d: %d findings (%d in set-up) on a tree that must be clean", i, n, findings)
		}
	}
	runtime.ReadMemStats(&m1)
	if !c.trace {
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		emitEndToEnd(c, setup, ms, tree, rss)
		return nil
	}
	printTiming(c, "op_ms", ms)

	c.emit("harmony.op_ms_p90", percentile(ms, 0.9))
	c.emit("harmony.op_ms_max", percentile(ms, 1))
	emitAllocs(c, "harmony.alloc_kb_per_op", "harmony.allocs_per_op", &m0, &m1, len(ms))
	c.emit("harmony.gc_cycles_per_100_ops", 100*float64(m1.NumGC-m0.NumGC)/float64(len(ms)))
	c.emit("analyzers.load_ms", loadMS)
	c.emit("analyzers.passes_ms", median(ms))
	c.emit("analyzers.load_share", loadMS/(loadMS+median(ms)))
	c.emit("analyzers.packages", float64(len(pkgs)))
	c.emit("analyzers.kloc", tree)
	c.emit("analyzers.findings", float64(findings))

	// Each pass alone on the loaded program. A whole-program pass
	// rebuilds the call graph it would otherwise share.
	alone := make(map[string]float64)
	for _, a := range analyzers.All() {
		end := c.spans.begin("pass " + a.Name)
		passMS, err := timeMS(c.n(3, 1), func() error {
			_, err := analyzers.RunProject(pkgs, a)
			return err
		})
		end()
		if err != nil {
			return err
		}
		alone[a.Name] = passMS
	}
	for _, name := range lintPasses {
		c.emit("analyzers.pass."+name+"_ms", alone[name])
		delete(alone, name)
	}
	for name, v := range alone {
		fmt.Fprintf(c.out, "undeclared pass %s: %.3f ms\n", name, v)
	}
	return nil
}
