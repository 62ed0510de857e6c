// Package profile starts the CPU and allocation profiles that the commands'
// -cpuprofile and -memprofile flags ask for; inspect them with go tool pprof.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath when it is set, and returns
// stop, which writes the allocation profile to memPath when that is set and
// then ends the CPU profile. Call stop once, when the command's work is done.
// stop reports its own errors on stderr, prefixed with cmd.
func Start(cpuPath, memPath, cmd string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	return func() {
		if memPath != "" {
			writeHeap(memPath, cmd)
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
	}, nil
}

// writeHeap writes the heap profile, which carries the allocation samples,
// to path.
func writeHeap(path, cmd string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: create mem profile: %v\n", cmd, err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize the live-heap picture
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "%s: write mem profile: %v\n", cmd, err)
	}
}
