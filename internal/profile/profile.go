// Package profile gives the long-running simulator CLIs their
// -cpuprofile and -memprofile flags: the files `go tool pprof` reads.
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths; empty means off.
type Flags struct {
	cpu, mem string
}

// AddFlags registers -cpuprofile and -memprofile on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to `file`")
	fs.StringVar(&f.mem, "memprofile", "", "write an allocation profile to `file` when the run ends")
	return f
}

// Start begins the CPU profile if one was asked for. The returned stop
// must run before the process exits, on the error path too: it ends the
// CPU profile and writes the allocation profile.
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if f.cpu != "" {
		if cpuFile, err = os.Create(f.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if f.mem == "" {
			return nil
		}
		memFile, err := os.Create(f.mem)
		if err != nil {
			return err
		}
		runtime.GC() // the allocs profile is as of the last collection
		if err := pprof.Lookup("allocs").WriteTo(memFile, 0); err != nil {
			memFile.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		return memFile.Close()
	}, nil
}
