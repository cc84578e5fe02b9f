package lint

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestCollectWaivers audits the suppress fixture: well-formed
// directives are listed with their codes and reasons, malformed ones
// (no reason, unknown code, DTT000) are problems, and the report is
// sorted by (file, line).
func TestCollectWaivers(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CollectWaivers([]string{"."}, Options{Dir: dir})
	if err != nil {
		t.Fatalf("CollectWaivers: %v", err)
	}
	if rep.Module != "datatrace" {
		t.Errorf("module = %q, want datatrace", rep.Module)
	}
	if got, want := len(rep.Waivers), 4; got != want {
		t.Errorf("waivers = %d, want %d: %+v", got, want, rep.Waivers)
	}
	if got, want := len(rep.Problems), 3; got != want {
		t.Errorf("problems = %d, want %d: %+v", got, want, rep.Problems)
	}
	for i, w := range rep.Waivers {
		if w.Reason == "" || len(w.Codes) == 0 {
			t.Errorf("waiver %d lacks codes or reason: %+v", i, w)
		}
		if w.File != "internal/lint/testdata/suppress/suppress.go" {
			t.Errorf("waiver %d in unexpected file %q", i, w.File)
		}
		if i > 0 && rep.Waivers[i-1].Line > w.Line {
			t.Errorf("waivers not sorted by line: %d before %d", rep.Waivers[i-1].Line, w.Line)
		}
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"module", "waivers", "problems"} {
		if _, ok := m[k]; !ok {
			t.Errorf("missing top-level key %q in %s", k, data)
		}
	}
	ws, ok := m["waivers"].([]any)
	if !ok || len(ws) == 0 {
		t.Fatalf("waivers is not a non-empty array: %v", m["waivers"])
	}
	w0, ok := ws[0].(map[string]any)
	if !ok {
		t.Fatalf("waiver is not an object: %v", ws[0])
	}
	for _, k := range []string{"file", "line", "codes", "reason"} {
		if _, ok := w0[k]; !ok {
			t.Errorf("missing waiver key %q in %v", k, w0)
		}
	}
}

// TestCollectWaiversRepo runs the audit over the real repository: the
// module's standing waivers must all carry reasons (zero problems) —
// `dttlint -waivers ./...` as a test, and the form in which
// scripts/check.sh gates on it.
func TestCollectWaiversRepo(t *testing.T) {
	m := sharedModuleWithTests(t)
	rep := collectWaivers(m.ld, m.pkgs)
	for _, p := range rep.Problems {
		t.Errorf("malformed waiver: %s:%d %s", p.File, p.Line, p.Message)
	}
	if len(rep.Waivers) == 0 {
		t.Error("expected at least one standing waiver in the repository")
	}
}
