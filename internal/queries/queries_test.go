package queries

import (
	"testing"

	"datatrace/internal/compile"
	"datatrace/internal/core"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	cfg := workload.DefaultYahooConfig()
	cfg.EventsPerSecond = 120
	cfg.Seconds = 12 // crosses the 10-block window boundary of IV/V
	cfg.Users = 60
	cfg.Campaigns = 10
	cfg.AdsPerCampaign = 5
	env, err := NewEnv(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// optionsFrom returns a copy of base (compile.Defaults() when nil) with
// set applied, so specs derived from one base never share options.
func optionsFrom(base *compile.Options, set func(*compile.Options)) *compile.Options {
	o := compile.Defaults()
	if base != nil {
		*o = *base
	}
	set(o)
	return o
}

// TestVariantsMatchReference is the evaluation's core correctness
// claim: for every query, both the compiled transduction DAG and the
// handcrafted topology produce the reference denotation's output
// trace, at several parallelism settings, on the concurrent runtime.
func TestVariantsMatchReference(t *testing.T) {
	for _, def := range All() {
		def := def
		t.Run("Query"+def.Name, func(t *testing.T) {
			env := testEnv(t)
			ref, err := def.Reference(env)
			if err != nil {
				t.Fatal(err)
			}
			sinkType := def.SinkType(env)
			for _, par := range []int{1, 2, 3} {
				for _, variant := range []Variant{Generated, Handcrafted} {
					// Fresh env per run: Query II mutates the DB.
					runEnv := testEnv(t)
					res, err := Run(runEnv, Spec{Query: def.Name, Variant: variant, Par: par, SourcePar: 2})
					if err != nil {
						t.Fatalf("par=%d %s: %v", par, variant, err)
					}
					got := res.Sinks["sink"]
					want := ref["sink"]
					if !stream.Equivalent(sinkType, got, want) {
						t.Fatalf("par=%d %s: output trace differs from reference\n got %d events\n want %d events",
							par, variant, len(got), len(want))
					}
				}
			}
		})
	}
}

func TestAllDAGsTypeCheck(t *testing.T) {
	env := testEnv(t)
	for _, def := range All() {
		for _, par := range []int{1, 4} {
			if err := def.DAG(env, par).Check(); err != nil {
				t.Errorf("Query %s at par %d: %v", def.Name, par, err)
			}
		}
	}
}

func TestQueryIVMatchesManualWindowCount(t *testing.T) {
	// Independent oracle: count views per campaign per second from the
	// raw workload, then compute sliding sums.
	env := testEnv(t)
	def, _ := ByName("IV")
	ref, err := def.Reference(env)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle.
	perBlock := map[int64][]int64{} // campaign → per-second view counts
	second := 0
	for _, e := range def.ReferenceInput(env) {
		if e.IsMarker {
			second++
			continue
		}
		ev := e.Value.(workload.YahooEvent)
		if ev.Type != workload.View {
			continue
		}
		cid := env.CampaignOf(ev.AdID)
		for len(perBlock[cid]) <= second {
			perBlock[cid] = append(perBlock[cid], 0)
		}
		perBlock[cid][second]++
	}
	// Extract sink emissions grouped by marker block.
	gotPerBlock := map[int64][]int64{} // campaign → emitted value per marker
	block := 0
	for _, e := range ref["sink"] {
		if e.IsMarker {
			block++
			continue
		}
		cid := e.Key.(int64)
		for len(gotPerBlock[cid]) < block {
			gotPerBlock[cid] = append(gotPerBlock[cid], -1) // not yet seen
		}
		gotPerBlock[cid] = append(gotPerBlock[cid], e.Value.(int64))
	}
	checked := 0
	for cid, got := range gotPerBlock {
		counts := perBlock[cid]
		for b, v := range got {
			if v < 0 {
				continue // campaign not yet seen at this marker
			}
			var want int64
			lo := b - SlidingWindowBlocks + 1
			if lo < 0 {
				lo = 0
			}
			for s := lo; s <= b && s < len(counts); s++ {
				want += counts[s]
			}
			if v != want {
				t.Fatalf("campaign %d at marker %d: got %d, oracle %d", cid, b, v, want)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("oracle checked only %d emissions", checked)
	}
}

// TestInPlaceSurvivesRecovery: generated Query VI with combiners and
// marker-cut recovery, crashed mid-block in each keyed stage. The
// restarted instance restores its snapshot and folds the replayed
// block again — Cluster's drained partials through MergeInto, reading
// batches the first attempt already read — and the sink must still
// carry the pure specification.
func TestInPlaceSurvivesRecovery(t *testing.T) {
	def, _ := ByName("VI")
	env := testEnv(t)
	ref, err := def.Reference(env)
	if err != nil {
		t.Fatal(err)
	}
	sinkType := def.SinkType(env)
	for _, target := range []string{"Features", "Cluster"} {
		for _, at := range []int64{7, 31} {
			runEnv := testEnv(t)
			spec := Spec{Query: "VI", Variant: Generated, Par: 2, SourcePar: 1,
				Options: optionsFrom(nil, func(o *compile.Options) { o.Recovery = &storm.RecoveryPolicy{Enabled: true} })}
			top, err := build(runEnv, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			top.SetFaultPlan(storm.NewFaultPlan().CrashAt(target, 0, at))
			res, err := top.Run()
			if err != nil {
				t.Fatalf("%s@%d: %v", target, at, err)
			}
			if restarts, replayed, _ := res.Stats.Recovery(); restarts < 1 || replayed == 0 {
				t.Fatalf("%s@%d: restarts = %d, replayed = %d; the fault never fired", target, at, restarts, replayed)
			}
			if !stream.Equivalent(sinkType, res.Sinks["sink"], ref["sink"]) {
				t.Fatalf("%s@%d: recovered in-place run differs from the pure specification", target, at)
			}
		}
	}
}

// TestQueryIVLateCampaignWindow: a campaign first seen after some
// markers starts from the template's shared start state. Count(10 sec)
// updates windows in place, so it must never append into that shared
// array — it once did, and a campaign born after the third marker lost
// its first block's views. Campaign b is born in block b and then views
// once per block; every emitted window must be the oracle's count.
func TestQueryIVLateCampaignWindow(t *testing.T) {
	const blocks = 2*SlidingWindowBlocks + 5
	var in []stream.Event
	for b := 0; b < blocks; b++ {
		for cid := 0; cid <= b; cid++ {
			in = append(in, stream.Item(int64(cid), stream.Unit{}))
		}
		in = append(in, stream.Mark(stream.Marker{Seq: int64(b)}))
	}
	block := 0
	for _, e := range core.RunInstance(slidingCountOp(), in) {
		if e.IsMarker {
			block++
			continue
		}
		born := int(e.Key.(int64))
		want := int64(min(block-born+1, SlidingWindowBlocks))
		if got := e.Value.(int64); got != want {
			t.Fatalf("campaign %d at marker %d: window %d, want %d", born, block, got, want)
		}
	}
}

func TestQueryIIPersistsCounts(t *testing.T) {
	env := testEnv(t)
	if _, err := Run(env, Spec{Query: "II", Variant: Generated, Par: 2, SourcePar: 2}); err != nil {
		t.Fatal(err)
	}
	counts := env.DB.MustTable("user_counts")
	if counts.Len() == 0 {
		t.Fatal("no counts persisted")
	}
	// Oracle: total events per user.
	oracle := map[int64]int64{}
	def, _ := ByName("II")
	for _, e := range def.ReferenceInput(env) {
		if !e.IsMarker {
			oracle[e.Key.(int64)]++
		}
	}
	for user, want := range oracle {
		row, ok := counts.Get(user)
		if !ok {
			t.Fatalf("user %d missing from user_counts", user)
		}
		if row[1].(int64) != want {
			t.Fatalf("user %d count = %v, oracle %d", user, row[1], want)
		}
	}
}

func TestQueryVEmitsOnlyAtWindowBoundaries(t *testing.T) {
	env := testEnv(t)
	def, _ := ByName("V")
	ref, err := def.Reference(env)
	if err != nil {
		t.Fatal(err)
	}
	block := 0
	for _, e := range ref["sink"] {
		if e.IsMarker {
			block++
			continue
		}
		if (block+1)%TumblingWindowBlocks != 0 {
			t.Fatalf("tumbling output emitted at marker %d (not a window boundary)", block)
		}
	}
}

func TestQueryVIEmitsClusterSummaries(t *testing.T) {
	env := testEnv(t)
	def, _ := ByName("VI")
	ref, err := def.Reference(env)
	if err != nil {
		t.Fatal(err)
	}
	summaries := 0
	for _, e := range ref["sink"] {
		if e.IsMarker {
			continue
		}
		cs := e.Value.(ClusterSummary)
		if cs.K != ClusterK || cs.Size < ClusterK || cs.Inertia < 0 {
			t.Fatalf("bad cluster summary %+v", cs)
		}
		summaries++
	}
	if summaries == 0 {
		t.Fatal("no cluster summaries emitted")
	}
}

// TestInPlaceMatchesSpecification: every query's DAG run with its
// in-place hooks — deployed at par 1 and at par 3, where keys split
// across instances — has the denotation of its pure specification
// (Reference: DAG.Eval, which strips the hooks). Query VI's Cluster
// stage is the one with hooks.
func TestInPlaceMatchesSpecification(t *testing.T) {
	cluster := clusterOp(ClusterK).(*core.KeyedUnordered[int64, UserFeatures, int64, ClusterSummary, map[int64]Features, map[int64]Features])
	if cluster.MergeInto == nil || cluster.Fold == nil {
		t.Fatal("Query VI's Cluster lost its in-place hooks: this test would compare the pure form with itself")
	}
	for _, def := range All() {
		env := testEnv(t)
		ref, err := def.Reference(env)
		if err != nil {
			t.Fatal(err)
		}
		in := map[string][]stream.Event{"yahoo": def.ReferenceInput(env)}
		for _, par := range []int{1, 3} {
			dep, err := def.DAG(testEnv(t), par).EvalDeployed(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !stream.Equivalent(def.SinkType(env), dep["sink"], ref["sink"]) {
				t.Errorf("Query %s par %d: the in-place execution differs from the pure specification", def.Name, par)
			}
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("VII"); err == nil {
		t.Fatal("unknown query must fail")
	}
	if _, err := Run(testEnv(t), Spec{Query: "I", Variant: "bogus"}); err == nil {
		t.Fatal("unknown variant must fail")
	}
	if _, err := Run(testEnv(t), Spec{Query: "nope", Variant: Generated}); err == nil {
		t.Fatal("unknown query must fail in Run")
	}
}

func TestSpecDefaults(t *testing.T) {
	env := testEnv(t)
	res, err := Run(env, Spec{Query: "I", Variant: Generated}) // Par/SourcePar default to 1
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sinks["sink"]) == 0 {
		t.Fatal("no output")
	}
}

// TestQueryIVWindowTemplateEquivalent: the §8 SlidingAggregate
// template computes exactly what Query IV's hand-rolled window logic
// computes, on the real workload.
func TestQueryIVWindowTemplateEquivalent(t *testing.T) {
	env := testEnv(t)
	def, _ := ByName("IV")
	ref, err := def.Reference(env)
	if err != nil {
		t.Fatal(err)
	}
	alt := QueryIVWindowTemplateDAG(env, 1)
	got, err := alt.Eval(map[string][]stream.Event{"yahoo": def.ReferenceInput(env)})
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equivalent(def.SinkType(env), got["sink"], ref["sink"]) {
		t.Fatal("window-template Query IV differs from the hand-rolled version")
	}
	// And its parallel deployment is equivalent too.
	dep, err := QueryIVWindowTemplateDAG(env, 3).EvalDeployed(
		map[string][]stream.Event{"yahoo": def.ReferenceInput(env)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equivalent(def.SinkType(env), dep["sink"], ref["sink"]) {
		t.Fatal("deployed window-template Query IV differs")
	}
}
