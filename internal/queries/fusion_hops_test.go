package queries

import (
	"fmt"
	"testing"

	"datatrace/internal/compile"
	"datatrace/internal/metrics"
)

// TestChainFusionRemovesAnEdgeHop pins chain fusion's effect on a run
// by a count that neither the scheduler nor the collector can move:
// executor deliveries. Unfused, every event the Filter lets through
// (and every marker) is executed a second time, by Project, behind an
// edge; fused, that edge and its deliveries are gone and nothing else
// changes. Combiners are off on both sides, since how much they
// compress depends on flush timing. This is the deterministic half of
// the fusion gate (the timing half is the dense guard of `dttbench
// -gate`): a pass that silently stops applying makes the two totals
// equal.
func TestChainFusionRemovesAnEdgeHop(t *testing.T) {
	run := func(noFuse bool) (total int64, stats *metrics.Stats) {
		t.Helper()
		res, err := Run(testEnv(t), Spec{Query: "IV", Variant: Generated, Par: 2,
			Options: optionsFrom(nil, func(o *compile.Options) { o.Combiners, o.FuseChains = false, !noFuse })})
		if err != nil {
			t.Fatal(err)
		}
		for _, is := range res.Stats.Instances() {
			total += is.Executed()
		}
		return total, res.Stats
	}
	fused, fstats := run(false)
	unfused, ustats := run(true)
	if exec, _ := fstats.Component("Filter"); exec != 0 {
		t.Fatalf("fused run still executed %d events in a separate Filter bolt", exec)
	}
	filterIn, filterOut := ustats.Component("Filter")
	hop, _ := ustats.Component("Project")
	if filterIn == 0 || hop == 0 || hop >= filterIn || hop < filterOut {
		t.Fatalf("unfused run: Filter executed %d and emitted %d, Project executed %d: want a filtering edge between them", filterIn, filterOut, hop)
	}
	if unfused-fused != hop {
		t.Fatalf("deliveries unfused %d − fused %d = %d, want exactly the %d of the removed Filter→Project edge",
			unfused, fused, unfused-fused, hop)
	}
	fmt.Printf("query IV chain fusion: %d → %d executor deliveries (%.2f×), %d on the removed edge\n",
		unfused, fused, float64(unfused)/float64(fused), hop)
}
