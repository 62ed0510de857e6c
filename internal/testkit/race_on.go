//go:build race

package testkit

// Race reports whether the binary runs under the race detector. Its
// instrumentation changes allocation behaviour, so allocation budgets are
// only meaningful without it.
const Race = true
