//go:build race

package clock

// raceEnabled gates allocation-budget assertions: race instrumentation
// changes allocation behaviour, so budgets are only meaningful without it.
const raceEnabled = true
