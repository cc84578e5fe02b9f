package lint

import (
	"sort"
)

// Waiver enumeration — the suppression-debt audit behind
// `dttlint -waivers`. Every //lint:ignore directive in the module is
// a standing exception to the determinism contract; listing them
// (with their mandatory reasons) keeps the debt visible, and a
// directive without a reason or with an unknown code is a Problem
// that fails the audit.

// Waiver is one well-formed //lint:ignore directive.
type Waiver struct {
	// File is the module-root-relative path; Line is 1-based.
	File string `json:"file"`
	Line int    `json:"line"`
	// Codes are the DTT00N rules the directive suppresses, sorted.
	Codes []string `json:"codes"`
	// Reason is the directive's justification text.
	Reason string `json:"reason"`
}

// WaiverProblem is a malformed directive — missing reason, unknown or
// unsuppressible code.
type WaiverProblem struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Message string `json:"message"`
}

// WaiverReport is the result of a waiver audit.
type WaiverReport struct {
	Module   string          `json:"module"`
	Waivers  []Waiver        `json:"waivers"`
	Problems []WaiverProblem `json:"problems"`
}

// CollectWaivers enumerates every //lint:ignore directive in the
// packages matched by the patterns. Test files are always included:
// a waiver in a test harness is still suppression debt. The returned
// error covers load failures only; malformed directives are Problems,
// not errors.
func CollectWaivers(patterns []string, opts Options) (*WaiverReport, error) {
	ld, pkgs, err := loadPatterns(patterns, opts.Dir, true)
	if err != nil {
		return nil, err
	}
	return collectWaivers(ld, pkgs), nil
}

// collectWaivers lists the directives in packages ld loaded.
func collectWaivers(ld *loader, pkgs []*Package) *WaiverReport {
	rep := &WaiverReport{Module: ld.module}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pi, ok := parseIgnoreComment(c.Text)
					if !ok {
						continue
					}
					pos := ld.fset.Position(c.Pos())
					file, line := relTo(ld.root, pos.Filename), pos.Line
					if pi.problem != "" {
						rep.Problems = append(rep.Problems, WaiverProblem{
							File: file, Line: line, Message: pi.problem,
						})
						continue
					}
					rep.Waivers = append(rep.Waivers, Waiver{
						File: file, Line: line, Codes: pi.codeList, Reason: pi.reason,
					})
				}
			}
		}
	}
	sort.Slice(rep.Waivers, func(i, j int) bool {
		if rep.Waivers[i].File != rep.Waivers[j].File {
			return rep.Waivers[i].File < rep.Waivers[j].File
		}
		return rep.Waivers[i].Line < rep.Waivers[j].Line
	})
	sort.Slice(rep.Problems, func(i, j int) bool {
		if rep.Problems[i].File != rep.Problems[j].File {
			return rep.Problems[i].File < rep.Problems[j].File
		}
		return rep.Problems[i].Line < rep.Problems[j].Line
	})
	return rep
}
