package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches fixture annotations like `// want DTT001` or
// `// want DTT004 DTT004` (duplicated code = two findings expected on
// the line).
var wantRe = regexp.MustCompile(`//\s*want\s+(DTT\d{3}(?:\s+DTT\d{3})*)\s*$`)

// collectWants scans the fixture tree for want markers, keyed by
// "module-relative-file:line code" with expected multiplicity.
func collectWants(t *testing.T, fixtureDir, moduleRoot string) map[string]int {
	t.Helper()
	absRoot, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]int{}
	err = filepath.WalkDir(fixtureDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(absRoot, abs)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, code := range strings.Fields(m[1]) {
				wants[fmt.Sprintf("%s:%d %s", rel, line, code)]++
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestGoldenFixtures runs the analyzer over the rule fixtures and
// compares its findings, position by position, against the `// want`
// markers: every marked line must be flagged with the marked code,
// and nothing else may be flagged (the ok fixtures stay silent).
func TestGoldenFixtures(t *testing.T) {
	res := sharedFixtureRun(t)
	got := map[string]int{}
	byKey := map[string][]Diagnostic{}
	for _, d := range res.Diagnostics {
		k := fmt.Sprintf("%s:%d %s", d.File, d.Line, d.Code)
		got[k]++
		byKey[k] = append(byKey[k], d)
	}
	want := collectWants(t, filepath.Join("testdata", "src"), filepath.Join("..", ".."))
	if len(want) == 0 {
		t.Fatal("no want markers found under testdata/src")
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch {
		case got[k] < want[k]:
			t.Errorf("missing diagnostic: want %d at %s, got %d", want[k], k, got[k])
		case got[k] > want[k]:
			t.Errorf("unexpected diagnostic at %s (want %d, got %d): %v", k, want[k], got[k], byKey[k])
		}
	}
}
