package storm_test

import (
	"sync/atomic"
	"testing"

	"datatrace/internal/compile"
	"datatrace/internal/queries"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// pathBolt counts, for one compiled bolt, the items that arrived boxed
// through Next and the rows that arrived in batches through
// ProcessCols. It forwards the columnar and recovery surfaces the
// compile adapters expose, so the runtime treats it as the bolt inside.
type pathBolt struct {
	storm.ColProcessor
	storm.Recoverable
	boxed, rows *atomic.Int64
}

func (b *pathBolt) Next(e stream.Event, emit func(stream.Event)) {
	if !e.IsMarker {
		b.boxed.Add(1)
	}
	b.ColProcessor.Next(e, emit)
}

func (b *pathBolt) ProcessCols(in, out stream.Columns) {
	b.rows.Add(int64(in.Len()))
	b.ColProcessor.ProcessCols(in, out)
}

// pathCombiner counts the rows a typed combiner received boxed.
type pathCombiner struct {
	stream.ColCombiner
	boxed *atomic.Int64
}

func (c *pathCombiner) FoldEvent(e stream.Event) {
	c.boxed.Add(1)
	c.ColCombiner.FoldEvent(e)
}

// TestColumnarRecoveryUsesProcessCols is ROADMAP item 2's "columnar
// edges asserted in use": generated Query IV with marker-cut recovery
// on and columnar on delivers every item row to the fused Filter→Project
// bolt and to Count through ProcessCols, folds every row into the typed
// combiner through Fold, and sends zero items through boxed Next or
// FoldEvent — the recoverable executor no longer unboxes batches.
func TestColumnarRecoveryUsesProcessCols(t *testing.T) {
	cfg := workload.DefaultYahooConfig()
	cfg.EventsPerSecond, cfg.Seconds, cfg.Users, cfg.Campaigns, cfg.AdsPerCampaign = 400, 12, 60, 10, 5
	env, err := queries.NewEnv(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	def, err := queries.ByName("IV")
	if err != nil {
		t.Fatal(err)
	}
	cols := def.ColSources(env, 2)
	top, plan, err := compile.CompileWithPlan(def.DAG(env, 2), map[string]compile.SourceSpec{
		"yahoo": {Parallelism: 2, Cols: cols[0].ColKind(), Factory: func(i int) storm.Spout { return cols[i] }},
	}, &compile.Options{FuseSort: true, FuseChains: true, Combiners: true,
		Recovery: &storm.RecoveryPolicy{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.ColumnarEdges) == 0 || len(plan.CombinedEdges) != 1 || !plan.CombinedEdges[0].Columnar {
		t.Fatalf("plan selected no typed edges:\n%s", plan)
	}

	type paths struct{ boxed, rows atomic.Int64 }
	byBolt := map[string]*paths{}
	for _, c := range top.Components() {
		if c.Kind == "bolt" {
			byBolt[c.Name] = &paths{}
		}
	}
	top.WrapBolts(func(name string, b storm.Bolt) storm.Bolt {
		cp, isCol := b.(storm.ColProcessor)
		rec, isRec := b.(storm.Recoverable)
		if !isCol || !isRec {
			t.Errorf("compiled bolt %q (%T) lacks the columnar or recoverable surface", name, b)
			return b
		}
		return &pathBolt{ColProcessor: cp, Recoverable: rec, boxed: &byBolt[name].boxed, rows: &byBolt[name].rows}
	})
	var boxedFolds atomic.Int64
	top.WrapColCombiners(func(c stream.ColCombiner) stream.ColCombiner {
		return &pathCombiner{ColCombiner: c, boxed: &boxedFolds}
	})

	res, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := def.Reference(env)
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equivalent(def.SinkType(env), res.Sinks["sink"], ref["sink"]) {
		t.Fatal("output differs from the DAG's denotation")
	}

	items := int64(cfg.EventsPerSecond * cfg.Seconds)
	if got := byBolt["Project"].rows.Load(); got != items {
		t.Fatalf("fused Filter→Project received %d rows through ProcessCols, want all %d source items", got, items)
	}
	if byBolt["Count(10 sec)"].rows.Load() == 0 {
		t.Fatal("Count received no rows through ProcessCols")
	}
	for name, p := range byBolt {
		if n := p.boxed.Load(); n != 0 {
			t.Errorf("%s received %d items through boxed Next, want 0", name, n)
		}
	}
	if n := boxedFolds.Load(); n != 0 {
		t.Errorf("the typed combiner received %d rows through FoldEvent, want 0", n)
	}
	// Rows reached both fused stages (Filter sees every item, Project the
	// views; the counters also tally each instance's markers), and the
	// views were folded by the typed combiner.
	counts := plan.StageCounts("Project")
	if len(counts) != 2 {
		t.Fatalf("plan has no fused Filter→Project bolt:\n%s", plan)
	}
	filter, project := counts[0].Events, counts[1].Events
	if filter < items || project == 0 || project >= filter {
		t.Fatalf("stage counts Filter=%d Project=%d, want ≥ %d and a proper share of it", filter, project, items)
	}
	if in, _ := res.Stats.Combined(); in == 0 || in > project {
		t.Fatalf("combiner folded %d rows, want the views Project emitted (≤ %d)", in, project)
	}
}
