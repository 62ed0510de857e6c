package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// child runs one workload in a fresh process of this binary — each run
// starts from a cold heap and an unwarmed runtime, like the driver's — and
// returns its result line.
func child(o options, workload string, seed int64, trace bool) (line, error) {
	self, err := os.Executable()
	if err != nil {
		return line{}, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(o.seconds)}
	if trace {
		args = append(args, "--trace", "1")
		if o.traceFile != "" {
			args = append(args, "-tracefile", o.traceFile+"."+workload)
		}
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var l line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		if runErr != nil {
			return line{}, fmt.Errorf("%s: %w", workload, runErr)
		}
		return line{}, fmt.Errorf("%s: unreadable result: %w", workload, err)
	}
	return l, nil
}

func selected(only string) ([]workloadInfo, error) {
	if only == "" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == only {
			return []workloadInfo{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", only)
}

// runAll runs every selected workload in a process of its own, untraced
// then traced, and prints every metric by name and unit.
func runAll(o options, only, jsonOut string, aa int) int {
	ws, err := selected(only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if aa > 0 {
		return runAA(o, ws, aa)
	}
	type record struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Trace    bool   `json:"trace"`
		Result   line   `json:"result"`
	}
	var records []record
	ok := true
	for _, w := range ws {
		fmt.Printf("== %s — %s\n", w.name, w.why)
		for _, trace := range []bool{false, true} {
			l, err := child(o, w.name, o.seed, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			records = append(records, record{w.name, o.seed, trace, l})
			infos := endToEnd
			if trace {
				infos = perLayer
			}
			fmt.Printf("-- %s: correct=%v ops_attempted=%d ops_failed=%d\n",
				map[bool]string{false: "end to end (untraced)", true: "per layer (traced)"}[trace], l.Correct, l.Attempted, l.Failed)
			for _, m := range infos {
				v := l.Metrics[m.name]
				fmt.Printf("%-34s %14.6g %-6s %s\n", m.name, v.Value, v.Unit, m.meaning)
			}
			ok = ok && l.Correct
		}
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(records, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(m metricInfo, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA is the A/A calibration: the same code as two interleaved groups
// of k runs, every run with another seed. It reports each end-to-end
// metric's median and quartile spread per group and how much worse the
// second group's median is than the first's, and fails when a spread or a
// worsening exceeds the metric's bound — the checks the driver applies.
func runAA(o options, ws []workloadInfo, k int) int {
	ok := true
	fmt.Printf("# A/A calibration: two interleaved groups of %d runs, --seconds %d\n\n", k, o.seconds)
	for _, w := range ws {
		groups := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*k; i++ {
			l, err := child(o, w.name, o.seed+int64(i), false)
			if err != nil || !l.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s run %d failed (%v)\n", w.name, i, err)
				ok = false
				continue
			}
			for name, v := range l.Metrics {
				groups[i%2][name] = append(groups[i%2][name], v.Value)
			}
		}
		fmt.Printf("## %s\n\n", w.name)
		fmt.Println("| metric | unit | median A | spread A | median B | spread B | B worse by | bound | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, m := range endToEnd {
			a, b := groups[0][m.name], groups[1][m.name]
			spread := func(v []float64) float64 {
				q1, q3 := quartiles(v)
				return ratio(q3-q1, median(v))
			}
			sa, sb, worse := spread(a), spread(b), worsening(m, median(a), median(b))
			verdict := "ok"
			// setup_s is held to its drift only, as by the driver.
			if worse > m.bound || (m.name != "setup_s" && math.Max(sa, sb) > m.bound) {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("| %s | %s | %.6g | %.2f%% | %.6g | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				m.name, m.unit, median(a), 100*sa, median(b), 100*sb, 100*worse, 100*m.bound, verdict)
		}
		fmt.Println()
	}
	if !ok {
		return 1
	}
	return 0
}
