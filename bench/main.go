// Command bench is the WS-Gossip benchmark: four fixed-work workloads,
// six end-to-end metrics, per-layer metrics taken from outside the system.
//
// The driver runs it through bench/run.sh as
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload it runs
// every workload in a process of its own, untraced then traced, and prints
// every metric by name and unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var o options
	var trace int
	var only, jsonOut string
	var aa int
	var contract bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print one JSON result line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "size the measured phase to take about this long on the reference box")
	flag.IntVar(&trace, "trace", 0, "1: record spans on alternate batches and report the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "CI sizes")
	flag.StringVar(&o.traceFile, "tracefile", "", "with -trace 1: write every span to this file, one JSON object per line")
	flag.StringVar(&only, "only", "", "without -workload: run only this workload")
	flag.StringVar(&jsonOut, "json", "", "without -workload: also write every result to this file")
	flag.IntVar(&aa, "aa", 0, "run the set as two interleaved groups of this many runs and compare them (A/A calibration)")
	flag.BoolVar(&contract, "contract", false, "print BENCHMARK.json as the catalog defines it and exit")
	flag.Parse()
	if contract {
		data, err := contractJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	o.trace = trace == 1
	o.start = processStart

	if o.workload != "" {
		os.Exit(runOne(o))
	}
	os.Exit(runAll(o, only, jsonOut, aa))
}

// line is the JSON result the driver reads.
type line struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its result line.
func runOne(o options) int {
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	out := line{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]measured{}}
	infos := endToEnd
	if o.trace {
		infos = perLayer
	}
	for _, m := range infos {
		out.Metrics[m.name] = measured{Value: res.metrics[m.name], Unit: m.unit}
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: self-check failed: %s\n", o.workload, p)
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !out.Correct {
		return 1
	}
	return 0
}
