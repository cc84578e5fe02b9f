// Package lint implements dttlint, a from-scratch static analyzer
// (stdlib go/parser + go/ast + go/types only, no x/tools) that
// enforces the determinism contract the paper's parallelization
// theorems assume — at the level where it can actually be violated:
// the Go source inside operators and bolts.
//
// The DAG-level checker (core.Check) proves that every edge respects
// its data-trace type; Theorem 4.3 then licenses replicating
// operators behind splitters. Both steps take for granted that the
// code inside an operator is a function of the input trace: no
// ambient nondeterminism (map iteration order, clocks, random
// numbers, scheduler choices), no state shared across parallel
// instances, no side channels around the runtime's delivery
// machinery, and checkpointable state that actually round-trips
// through gob. dttlint checks exactly those obligations:
//
//	DTT001  map-range iteration feeding emission without a sort
//	DTT002  time.Now / math/rand / multi-way select in hot paths
//	DTT003  template callbacks writing captured outer variables
//	DTT004  Snapshotter state that gob cannot encode
//	DTT005  goroutine spawns / raw channel sends in hot paths
//	DTT006  mutable fields written on ParAny (stateless) operators
//	DTT007  ProcessCols/ProcessBatch retaining a column batch alias
//	        past the call (the batch belongs to a recycled arena)
//
// Diagnostics are `file:line:col [DTT00N] message`; a finding can be
// suppressed with `//lint:ignore DTT00N reason` on the same line or
// the line above (DTT000 reports malformed directives).
package lint

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Diagnostic codes. DTT000 is reserved for malformed suppression
// directives; DTT001–DTT010 are the streaming determinism rules.
const (
	CodeDirective  = "DTT000"
	CodeMapOrder   = "DTT001"
	CodeAmbient    = "DTT002"
	CodeCapture    = "DTT003"
	CodeSnapshot   = "DTT004"
	CodeSideSpawn  = "DTT005"
	CodeStateless  = "DTT006"
	CodeRetainCols = "DTT007"
	CodeNonCommut  = "DTT008"
	CodeBatchLeak  = "DTT009"
	CodeMarkerSeal = "DTT010"
)

// Codes lists every diagnostic code the analyzer can emit, in order.
var Codes = []string{
	CodeDirective, CodeMapOrder, CodeAmbient, CodeCapture,
	CodeSnapshot, CodeSideSpawn, CodeStateless, CodeRetainCols,
	CodeNonCommut, CodeBatchLeak, CodeMarkerSeal,
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// File is the module-root-relative path of the offending file.
	File string `json:"file"`
	// Line and Col are 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Code is the DTT00N rule identifier.
	Code string `json:"code"`
	// Message explains the finding and the paper-level obligation it
	// violates.
	Message string `json:"message"`

	// leafFile/leafLine locate the ultimate leaf site of an
	// interprocedural finding (the time.Now call inside the helper,
	// not the call to the helper). A //lint:ignore directive at the
	// leaf suppresses every finding derived from it, so one reasoned
	// waiver on the offending line covers the whole call chain. Zero
	// for intraprocedural findings.
	leafFile string
	leafLine int
}

// String renders the diagnostic in the canonical
// file:line:col [CODE] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d [%s] %s", d.File, d.Line, d.Col, d.Code, d.Message)
}

// Result is one analyzer run over a set of packages.
type Result struct {
	// Module is the analyzed module's path.
	Module string `json:"module"`
	// Packages lists the analyzed package import paths.
	Packages []string `json:"packages"`
	// Diagnostics are the surviving findings, sorted by position.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// ElapsedMS is the wall-clock analysis time in milliseconds
	// (loading + type-checking + rules).
	ElapsedMS int64 `json:"elapsed_ms"`
	// LoadMS, SummaryMS and RulesMS break ElapsedMS into its phases:
	// parsing + type-checking, the interprocedural summary fixpoint,
	// and the (parallel) per-package rule pass.
	LoadMS    int64 `json:"load_ms"`
	SummaryMS int64 `json:"summary_ms"`
	RulesMS   int64 `json:"rules_ms"`
}

// Options configures a Run.
type Options struct {
	// Dir is the directory patterns are resolved against and the
	// module is discovered from; empty means the working directory.
	Dir string
	// IncludeTests also analyzes in-package _test.go files.
	IncludeTests bool
}

// Run loads, type-checks and analyzes the packages matched by the
// patterns (e.g. "./..."), returning every diagnostic that survives
// suppression. A non-nil error means the analysis could not run
// (unparseable or ill-typed code, bad pattern); diagnostics alone
// never produce an error.
func Run(patterns []string, opts Options) (*Result, error) {
	start := time.Now()
	ld, pkgs, err := loadPatterns(patterns, opts.Dir, opts.IncludeTests)
	if err != nil {
		return nil, err
	}
	return analyzeLoaded(ld, pkgs, start)
}

// loadPatterns loads and type-checks the packages matched by the
// patterns ("./..." when there are none).
func loadPatterns(patterns []string, dir string, includeTests bool) (*loader, []*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	ld, err := newLoader(dir, includeTests)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := ld.expand(patterns)
	if err != nil {
		return nil, nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := ld.pathFor(dir)
		if err != nil {
			return nil, nil, err
		}
		p, err := ld.load(path)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	return ld, pkgs, nil
}

// analyzeLoaded runs the analysis over packages ld loaded; start is when
// the loading began.
func analyzeLoaded(ld *loader, pkgs []*Package, start time.Time) (*Result, error) {
	hooks, err := resolveHooks(ld)
	if err != nil {
		return nil, err
	}
	loaded := time.Now()

	// Interprocedural summaries over everything the loader pulled in
	// (the analysis set plus its module dependencies), computed once
	// before the rule phase; the rules only read them.
	eng := newEngine(ld)
	eng.build()
	summarized := time.Now()

	// The rule phase is embarrassingly parallel: packages are
	// independent once loaded and summarized, and each worker gets its
	// own child analyzer whose findings are merged (and re-sorted)
	// afterwards, so the output is byte-stable regardless of
	// scheduling.
	children := make([]*analyzer, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, p := range pkgs {
		wg.Add(1)
		go func(i int, p *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			child := &analyzer{ld: ld, hooks: hooks, eng: eng}
			child.analyze(p)
			children[i] = child
		}(i, p)
	}
	wg.Wait()
	a := &analyzer{ld: ld, hooks: hooks, eng: eng}
	for _, child := range children {
		a.diags = append(a.diags, child.diags...)
		a.direct = append(a.direct, child.direct...)
	}
	// Leaf-side suppression must see directives in every loaded
	// package, not just the analyzed set: a waived leaf in a
	// dependency package silences the findings it propagates into the
	// analyzed packages.
	a.leafDirect = collectLeafDirectives(ld)

	res := &Result{
		Module:    ld.module,
		LoadMS:    loaded.Sub(start).Milliseconds(),
		SummaryMS: summarized.Sub(loaded).Milliseconds(),
	}
	for _, p := range pkgs {
		res.Packages = append(res.Packages, p.Path)
	}
	res.Diagnostics = a.finish()
	res.RulesMS = time.Since(summarized).Milliseconds()
	res.ElapsedMS = time.Since(start).Milliseconds()
	return res, nil
}

// analyzer accumulates diagnostics and suppression directives across
// the analyzed packages.
type analyzer struct {
	ld     *loader
	hooks  *hooks
	eng    *engine
	diags  []Diagnostic
	direct []directive
	// leafDirect are directives from every loaded package, consulted
	// only for leaf-side suppression of interprocedural findings.
	leafDirect []directive
}

// reportf records a diagnostic at pos.
func (a *analyzer) reportf(pos token.Pos, code, format string, args ...any) {
	p := a.ld.fset.Position(pos)
	a.diags = append(a.diags, Diagnostic{
		File:    a.relFile(p.Filename),
		Line:    p.Line,
		Col:     p.Column,
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	})
}

// reportEff records a diagnostic for an interprocedural effect: the
// rendered message should already include eff's call chain, and the
// effect's leaf position is attached so a //lint:ignore at the leaf
// suppresses the finding.
func (a *analyzer) reportEff(pos token.Pos, code string, eff *effect, format string, args ...any) {
	a.reportf(pos, code, format, args...)
	if eff == nil || eff.depth <= 1 {
		return
	}
	leaf := a.ld.fset.Position(eff.leafPos)
	d := &a.diags[len(a.diags)-1]
	d.leafFile = a.relFile(leaf.Filename)
	d.leafLine = leaf.Line
}

// relFile renders a file name relative to the module root.
func (a *analyzer) relFile(name string) string {
	return relTo(a.ld.root, name)
}

// analyze runs every rule over one package.
func (a *analyzer) analyze(p *Package) {
	a.collectDirectives(p)
	ctxs := a.collectContexts(p)
	for _, c := range ctxs {
		a.rule001(c)
		a.rule002(c)
		a.rule003(c)
		a.rule005(c)
		a.rule008(c)
		a.rule010(c)
	}
	a.rule004(p)
	a.rule006(p)
	a.rule007(p)
}

// finish applies suppression, dedupes and orders the diagnostics.
func (a *analyzer) finish() []Diagnostic {
	kept := applyDirectives(a.diags, a.direct, a.leafDirect)
	sort.Slice(kept, func(i, j int) bool {
		x, y := kept[i], kept[j]
		if x.File != y.File {
			return x.File < y.File
		}
		if x.Line != y.Line {
			return x.Line < y.Line
		}
		if x.Col != y.Col {
			return x.Col < y.Col
		}
		return x.Code < y.Code
	})
	out := kept[:0]
	var last Diagnostic
	for i, d := range kept {
		if i > 0 && d == last {
			continue
		}
		out = append(out, d)
		last = d
	}
	return out
}
