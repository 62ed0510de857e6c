package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// processStart is taken as early as the program can: set-up time runs from
// here to the first measured operation.
var processStart = time.Now()

// cpuNow returns the user+system CPU time the process has used.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	v, ok := between(data, "VmHWM:", "kB")
	if !ok {
		return 0
	}
	kb, err := strconv.ParseFloat(string(bytes.TrimSpace(v)), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// gcCPUSeconds returns the CPU seconds the collector has used and the
// total the runtime accounts for.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// phase measures one measured phase: exact allocation and GC totals
// between begin and finish, and wall and CPU time per batch.
type phase struct {
	m0            runtime.MemStats
	gc0, total0   float64
	wall0         time.Time
	cpu0          time.Duration
	batches       []batch
	traced        []bool // per batch: were spans on
	goroutinesMax int
}

func beginPhase() *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.m0)
	p.gc0, p.total0 = gcCPUSeconds()
	p.wall0, p.cpu0 = time.Now(), cpuNow()
	return p
}

// mark closes the current batch.
func (p *phase) mark(traced bool) {
	wall, cpu := time.Now(), cpuNow()
	p.batches = append(p.batches, batch{
		wallNs: float64(wall.Sub(p.wall0)),
		cpuNs:  float64(cpu - p.cpu0),
	})
	p.traced = append(p.traced, traced)
	p.wall0, p.cpu0 = wall, cpu
	if g := runtime.NumGoroutine(); g > p.goroutinesMax {
		p.goroutinesMax = g
	}
}

// only returns the batches whose spans were on (or off).
func (p *phase) only(traced bool) []batch {
	var out []batch
	for i, b := range p.batches {
		if p.traced[i] == traced {
			out = append(out, b)
		}
	}
	return out
}

// phaseTotals are the exact counts of a finished phase.
type phaseTotals struct {
	mallocs, allocBytes float64
	gcCycles            float64
	gcCPUShare          float64
	heapLiveMiB         float64
}

// finish reads the allocation totals, then forces two collections and
// reads the live heap (noise rule 5): the first collection finishes any
// cycle in flight and frees what the phase left behind, the second frees
// what finalizers and pools released in the first.
func (p *phase) finish() phaseTotals {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc, total := gcCPUSeconds()
	t := phaseTotals{
		mallocs:    float64(m.Mallocs - p.m0.Mallocs),
		allocBytes: float64(m.TotalAlloc - p.m0.TotalAlloc),
		gcCycles:   float64(m.NumGC - p.m0.NumGC),
	}
	if total > p.total0 {
		t.gcCPUShare = (gc - p.gc0) / (total - p.total0)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	t.heapLiveMiB = float64(m.HeapAlloc) / (1 << 20)
	return t
}
