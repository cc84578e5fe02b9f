package lint

import (
	"path/filepath"
	"testing"
)

// TestAnalyzerSelfCheck runs the analyzer over the whole repository:
// the codebase must satisfy its own determinism contract. This is
// `dttlint ./...` as a test, and the form in which scripts/check.sh
// gates on it.
func TestAnalyzerSelfCheck(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run([]string{"./..."}, Options{Dir: root})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("self-check finding: %s", d)
	}
	if len(res.Packages) < 10 {
		t.Errorf("self-check analyzed only %d packages — loader lost most of the module", len(res.Packages))
	}
}

// TestAnalyzerSelfCheckWithTests extends the self-check to in-package
// test files (`dttlint -tests ./...`): test bolts are held to the same
// determinism contract (the two historical findings there are fixed or
// carry a justified //lint:ignore, and this test keeps it that way).
func TestAnalyzerSelfCheckWithTests(t *testing.T) {
	res := sharedModuleAnalysis(t)
	for _, d := range res.Diagnostics {
		t.Errorf("self-check finding: %s", d)
	}
}
