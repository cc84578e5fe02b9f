package lint

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Analysis runs are what this package's tests spend their time on: a
// whole-module run takes seconds, several times that under -race. Tests
// that only read a result share one run per test binary — one of the
// fixture tree, one of the suppress fixture, and one load of the whole
// module with its test files, which the -tests self-check analyzes and
// the waiver audit reads. TestDiagnosticOrdering still makes runs of
// its own, since byte-stability across runs is what it checks, and
// TestAnalyzerSelfCheck its run without test files.

// shared is a value computed once per test binary.
type shared[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (s *shared[T]) get(t *testing.T, f func() (T, error)) T {
	t.Helper()
	s.once.Do(func() { s.v, s.err = f() })
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.v
}

// moduleLoad is a loader and the packages it loaded.
type moduleLoad struct {
	ld   *loader
	pkgs []*Package
}

var (
	fixtureRun, suppressRun, moduleAnalysis shared[*Result]
	moduleWithTests                         shared[moduleLoad]
)

// runIn runs the analyzer over the patterns in dir, relative to this
// package.
func runIn(dir string, patterns ...string) (*Result, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return Run(patterns, Options{Dir: abs})
}

// sharedFixtureRun is the shared run over the golden fixture tree.
func sharedFixtureRun(t *testing.T) *Result {
	t.Helper()
	return fixtureRun.get(t, func() (*Result, error) { return runIn(filepath.Join("testdata", "src"), "./...") })
}

// sharedSuppressRun is the shared run over the suppress fixture.
func sharedSuppressRun(t *testing.T) *Result {
	t.Helper()
	return suppressRun.get(t, func() (*Result, error) { return runIn(filepath.Join("testdata", "suppress"), ".") })
}

// sharedModuleWithTests is the shared load of the whole module,
// in-package test files included.
func sharedModuleWithTests(t *testing.T) moduleLoad {
	t.Helper()
	return moduleWithTests.get(t, func() (moduleLoad, error) {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			return moduleLoad{}, err
		}
		ld, pkgs, err := loadPatterns([]string{"./..."}, root, true)
		return moduleLoad{ld, pkgs}, err
	})
}

// sharedModuleAnalysis is the analysis of the shared module load.
func sharedModuleAnalysis(t *testing.T) *Result {
	t.Helper()
	m := sharedModuleWithTests(t)
	return moduleAnalysis.get(t, func() (*Result, error) { return analyzeLoaded(m.ld, m.pkgs, time.Now()) })
}
