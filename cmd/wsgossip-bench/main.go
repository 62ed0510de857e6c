// Command wsgossip-bench regenerates every experiment table (E0–E12 plus
// the A1–A3 ablations). Each table maps to one claim of the paper; the IDs
// are indexed in README.md ("Running the experiments") and the expected
// shapes are discussed in DESIGN.md.
//
// Usage:
//
//	wsgossip-bench                 # run everything at full size
//	wsgossip-bench -exp e3         # one experiment (e0..e12, a1..a3)
//	wsgossip-bench -quick          # reduced sizes (CI)
//	wsgossip-bench -seed 42        # change the reproducibility seed
//	wsgossip-bench -list           # list experiment IDs
//	wsgossip-bench -cpuprofile cpu.pprof -memprofile mem.pprof
//	                               # profile the run (inspect with go tool pprof)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wsgossip/internal/experiments"
	"wsgossip/internal/profile"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wsgossip-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp        = flag.String("exp", "all", "experiment id (e0..e12, a1..a3) or 'all'")
		seed       = flag.Int64("seed", 1, "reproducibility seed")
		quick      = flag.Bool("quick", false, "reduced problem sizes")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Description)
		}
		return nil
	}

	stop, err := profile.Start(*cpuprofile, *memprofile, "wsgossip-bench")
	if err != nil {
		return err
	}
	defer stop()

	opt := experiments.Options{Seed: *seed, Quick: *quick}
	start := time.Now()
	var toRun []experiments.Experiment
	if *exp == "all" {
		toRun = experiments.All()
	} else {
		e, err := experiments.Find(*exp)
		if err != nil {
			return err
		}
		toRun = []experiments.Experiment{e}
	}
	for _, e := range toRun {
		tables, err := e.Run(opt)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
	}
	fmt.Printf("completed in %v (seed=%d quick=%v)\n", time.Since(start).Round(time.Millisecond), *seed, *quick)
	return nil
}
