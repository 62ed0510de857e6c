// Package testkit holds what the module's tests share: the race-detector flag
// and the loader of the committed allocation budgets. Only _test.go files
// import it (TestOnlyTestsImport).
package testkit

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// LoadBudget skips t under the race detector, and otherwise reads the
// package's testdata/alloc_budget.json into a B, a struct whose fields carry
// json tags. It fails t when the file cannot be read or parsed, or lacks a
// field B names.
func LoadBudget[B any](t testing.TB) B {
	t.Helper()
	if Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var budget B
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatalf("read alloc budget: %v", err)
	}
	var present map[string]json.RawMessage
	if err := json.Unmarshal(raw, &present); err != nil {
		t.Fatalf("parse alloc budget: %v", err)
	}
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("parse alloc budget: %v", err)
	}
	typ := reflect.TypeOf(budget)
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if _, ok := present[name]; !ok {
			t.Fatalf("alloc budget missing field %q: %s", name, raw)
		}
	}
	return budget
}
