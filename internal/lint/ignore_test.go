package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lineOf returns the 1-based number of the first line satisfying the
// predicate.
func lineOf(t *testing.T, path string, match func(string) bool) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if match(sc.Text()) {
			return line
		}
	}
	t.Fatalf("no line matched in %s", path)
	return 0
}

func containing(sub string) func(string) bool {
	return func(s string) bool { return strings.Contains(s, sub) }
}

// TestIgnoreDirectives pins the suppression semantics: a directive
// silences a matching code on its own line or the next line; a wrong
// code or an out-of-range placement silences nothing; a directive
// with no reason, an unknown code, or naming DTT000 is itself a
// DTT000 finding (and suppresses nothing).
func TestIgnoreDirectives(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	res := sharedSuppressRun(t)
	const fix = "internal/lint/testdata/suppress/suppress.go"
	path := filepath.Join(dir, "suppress.go")

	type key struct {
		Line int
		Code string
	}
	got := map[key]int{}
	for _, d := range res.Diagnostics {
		if d.File != fix {
			t.Fatalf("diagnostic in unexpected file: %s", d)
		}
		got[key{d.Line, d.Code}]++
	}

	noReasonLine := lineOf(t, path, func(s string) bool {
		return strings.TrimSpace(s) == "//lint:ignore DTT002"
	})
	want := map[key]int{
		// Wrong code on the directive: the DTT002 on the next line
		// survives.
		{lineOf(t, path, containing("wrong code on purpose")) + 1, CodeAmbient}: 1,
		// Directive two lines above the finding: out of range.
		{lineOf(t, path, containing("placed out of range on purpose")) + 2, CodeAmbient}: 1,
		// Missing reason: directive rejected, finding survives.
		{noReasonLine, CodeDirective}:                                         1,
		{noReasonLine + 1, CodeAmbient}:                                       1,
		{lineOf(t, path, containing("DTT999")), CodeDirective}:                1,
		{lineOf(t, path, containing("silence the meta rule")), CodeDirective}: 1,
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("line %d: want %d x %s, got %d", k.Line, n, k.Code, got[k])
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("unexpected diagnostic at line %d: %d x %s (suppression failed to apply?)", k.Line, n, k.Code)
		}
	}

	// The correctly-placed directives really did suppress.
	trailing := lineOf(t, path, containing("fixture: trailing suppression"))
	aboveDir := lineOf(t, path, containing("suppression from the line above"))
	for _, silent := range []int{trailing, aboveDir + 1} {
		if got[key{silent, CodeAmbient}] != 0 {
			t.Errorf("line %d: suppressed finding was still reported", silent)
		}
	}
}
