//go:build race

package membership

// raceEnabled gates allocation-budget assertions: race instrumentation
// changes allocation behaviour, so budgets are only meaningful without it.
const raceEnabled = true
