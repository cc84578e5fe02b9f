package lint

import (
	"encoding/json"
	"testing"
)

// TestJSONSchema pins the -json output contract: top-level module /
// packages / diagnostics / elapsed_ms, and per-diagnostic file / line
// / col / code / message with 1-based positions.
func TestJSONSchema(t *testing.T) {
	res := sharedSuppressRun(t)
	if len(res.Diagnostics) == 0 {
		t.Fatal("suppress fixture produced no diagnostics to serialize")
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"module", "packages", "diagnostics", "elapsed_ms"} {
		if _, ok := m[k]; !ok {
			t.Errorf("missing top-level key %q in %s", k, data)
		}
	}
	if got := m["module"]; got != "datatrace" {
		t.Errorf("module = %v, want datatrace", got)
	}
	diags, ok := m["diagnostics"].([]any)
	if !ok || len(diags) == 0 {
		t.Fatalf("diagnostics is not a non-empty array: %v", m["diagnostics"])
	}
	d, ok := diags[0].(map[string]any)
	if !ok {
		t.Fatalf("diagnostic is not an object: %v", diags[0])
	}
	for _, k := range []string{"file", "line", "col", "code", "message"} {
		if _, ok := d[k]; !ok {
			t.Errorf("missing diagnostic key %q in %v", k, d)
		}
	}
	if line, ok := d["line"].(float64); !ok || line < 1 {
		t.Errorf("line = %v, want 1-based number", d["line"])
	}
	if col, ok := d["col"].(float64); !ok || col < 1 {
		t.Errorf("col = %v, want 1-based number", d["col"])
	}
}
