package lint

import (
	"go/ast"
	"sort"
)

// DTT008 — Combine callbacks in unordered contexts must be
// commutative.
//
// KeyedUnordered, SlidingAggregate and storm.CombinerSpec all
// document their Combine hook as a commutative monoid operation, and
// the paper's Theorem 4.3 depends on it: replicated instances
// accumulate partial aggregates independently and the runtime merges
// them in whatever order parallel delivery produces, so `Combine(x,
// y)` and `Combine(y, x)` must agree or the merged value depends on
// the scheduler, not the input trace. (KeyedUnordered's UpdateState
// is NOT in scope: it runs once per key per marker, in marker order,
// which is deterministic.)
//
// The rule flags the order-dependent shapes that actually occur in
// stream folds — subtraction or division mixing the two combined
// values, string concatenation of per-event data, and appending one
// side('s elements) onto the other (the merged slice order then
// encodes merge order) — both written directly in the callback and
// reached through helper calls via the summary engine. `x.Sum /
// x.Count` (one side's own fields) is fine; only expressions mixing
// exactly one parameter on each side are order-dependent.
//
// KeyedUnordered's in-place monoid carries the same obligation:
// MergeInto(dst, src) stands for Combine(dst, src) and is checked
// exactly like it; Fold(acc, key, value) stands for Combine(acc,
// In(key, value)) and is checked for order-sensitive appends of the
// item onto the accumulator (arithmetic there may be an In folded in,
// e.g. `*acc -= v` for In = -v, so only the append shape is certain).
func (a *analyzer) rule008(c *hotCtx) {
	if c.kind != ctxTemplate || (c.field != "Combine" && c.field != "MergeInto" && c.field != "Fold") {
		return
	}
	switch c.tmpl {
	case "KeyedUnordered", "SlidingAggregate", "CombinerSpec":
	default:
		return
	}
	sum := a.eng.scanBody(c.pkg, c.lit.Type.Params, c.body, nil)
	names := paramNames(c.pkg, c.lit.Type.Params)
	stands := ""
	if c.field != "Combine" {
		stands = " (" + c.field + " is Combine run in place)"
	}
	report := func(eff *effect, pr paramPair, what string) {
		a.reportEff(eff.pos, CodeNonCommut, eff,
			"%s in %s mixes the two combined values %q and %q non-commutatively%s: parallel instances merge partial aggregates in scheduler order, so Combine(x, y) must equal Combine(y, x)%s — use a commutative operation (sums, mins, sorted merges), or fold order-sensitive data under KeyedOrdered",
			what, c.desc, name(names, pr[0]), name(names, pr[1]), viaChain(eff), stands)
	}
	if c.field != "Fold" {
		for _, pr := range sortedPairs(sum.nonCommut) {
			eff := sum.nonCommut[pr]
			report(eff, pr, "non-commutative arithmetic ("+eff.chain[len(eff.chain)-1]+")")
		}
	}
	for _, pr := range sortedPairs(sum.appendMix) {
		eff := sum.appendMix[pr]
		report(eff, pr, "order-sensitive append ("+eff.chain[len(eff.chain)-1]+")")
	}
}

// sortedPairs orders a pair-effect map deterministically.
func sortedPairs(m map[paramPair]*effect) []paramPair {
	out := make([]paramPair, 0, len(m))
	for pr := range m {
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// paramNames flattens a parameter list's names by index.
func paramNames(p *Package, params *ast.FieldList) []string {
	var out []string
	if params == nil {
		return out
	}
	for _, field := range params.List {
		for _, n := range field.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// name returns the i-th parameter name, or a placeholder.
func name(names []string, i int) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return "_"
}
