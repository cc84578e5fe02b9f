package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// runFixtures runs the analyzer over the golden fixture tree.
func runFixtures(t *testing.T) *Result {
	t.Helper()
	res, err := runIn(filepath.Join("testdata", "src"), "./...")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestDiagnosticOrdering pins the output contract: diagnostics sort
// by (file, line, col, code), and two runs — each with its own
// parallel parse and parallel rule phase — produce byte-identical
// output, messages included. The first run is the shared one; the
// two it is compared with are its own.
func TestDiagnosticOrdering(t *testing.T) {
	render := func(res *Result) []string {
		out := make([]string, len(res.Diagnostics))
		for i, d := range res.Diagnostics {
			out[i] = d.String()
		}
		return out
	}
	first := sharedFixtureRun(t)
	if len(first.Diagnostics) == 0 {
		t.Fatal("fixture tree produced no diagnostics")
	}
	for i := 1; i < len(first.Diagnostics); i++ {
		a, b := first.Diagnostics[i-1], first.Diagnostics[i]
		ka := fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", a.File, a.Line, a.Col, a.Code)
		kb := fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", b.File, b.Line, b.Col, b.Code)
		if ka > kb {
			t.Errorf("diagnostics out of (file, line, col, code) order:\n  %s\n  %s", a, b)
		}
	}
	want := render(first)
	for run := 0; run < 2; run++ {
		got := render(runFixtures(t))
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("run %d produced different output\nfirst:\n%s\nnow:\n%s",
				run+2, strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
	}
}

// TestInterproceduralChains asserts that the interprocedural fixture
// findings carry their call-chain provenance in the message — one
// chain per rewired rule (DTT001/002/003/005/007) and per new rule
// that propagates effects (DTT008/009/010). Each of these cases is
// invisible to a body-local analysis: the offending site lives in a
// helper, not in the hot function.
func TestInterproceduralChains(t *testing.T) {
	res := sharedFixtureRun(t)
	wantChains := map[string]string{
		"DTT001": "fanOut → f(...) inside a map range",
		"DTT002": "nowish → stamp → time.Now()",
		"DTT003": `(tally).inc → writes field "n"`,
		"DTT005": "fireAndForget → go statement",
		"DTT007": "view → returned",
		"DTT008": "ratio → a / b",
		"DTT009": "keepAll → remember → stored in package variable last",
		"DTT010": "flushVia → f(...)",
	}
	for code, chain := range wantChains {
		found := false
		for _, d := range res.Diagnostics {
			if d.Code == code && strings.Contains(d.Message, chain) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s diagnostic carries the call chain %q", code, chain)
		}
	}
}
