package queries

import (
	"fmt"
	"testing"

	"datatrace/internal/compile"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// TestOptimizationEquivalenceDifferential proves the compiler's
// optimization passes semantics-preserving at the query level: every
// generated query I–VI runs with the passes on and off at parallelism
// 1, 2 and 4, and each output must be trace-equivalent to the
// reference denotation. Run under -race (scripts/check.sh runs every
// suite so) so combiner drains and fused executors are exercised under real
// concurrency.
func TestOptimizationEquivalenceDifferential(t *testing.T) {
	for _, def := range All() {
		def := def
		t.Run("Query"+def.Name, func(t *testing.T) {
			env := testEnv(t)
			ref, err := def.Reference(env)
			if err != nil {
				t.Fatal(err)
			}
			sinkType := def.SinkType(env)
			srcEnv := testEnv(t)
			parts := def.Sources(srcEnv, 2)
			base := make([][]stream.Event, len(parts))
			for i, it := range parts {
				base[i] = workload.Collect(it)
			}
			for _, par := range []int{1, 2, 4} {
				for _, off := range []bool{false, true} {
					in := make([][]stream.Event, len(base))
					for i := range base {
						in[i] = append([]stream.Event(nil), base[i]...)
					}
					// Fresh env per run: Query II mutates the DB.
					runEnv := testEnv(t)
					res, err := RunOn(runEnv, Spec{
						Query: def.Name, Variant: Generated, Par: par,
						Options: optionsFrom(nil, func(o *compile.Options) { o.FuseChains, o.Combiners = !off, !off }),
					}, in)
					if err != nil {
						t.Fatalf("par=%d passesOff=%v: %v", par, off, err)
					}
					if !stream.Equivalent(sinkType, res.Sinks["sink"], ref["sink"]) {
						t.Fatalf("par=%d passesOff=%v: output trace diverged from the reference (%d vs %d events)",
							par, off, len(res.Sinks["sink"]), len(ref["sink"]))
					}
				}
			}
		})
	}
}

// TestQueryIVPlanShowsBothPasses pins what the optimizer does to the
// flagship pipeline: Filter and Project fuse into one bolt and the
// fields edge into the sliding count carries a combining buffer.
func TestQueryIVPlanShowsBothPasses(t *testing.T) {
	env := testEnv(t)
	dag := QueryIVDAG(env, 2)
	_, plan, err := compile.CompileWithPlan(dag, map[string]compile.SourceSpec{
		"yahoo": {Parallelism: 1, Factory: func(int) storm.Spout { return storm.SliceSpout(nil) }},
	}, nil) // nil options = all passes on
	if err != nil {
		t.Fatal(err)
	}
	var project *compile.PlanBolt
	for i := range plan.Bolts {
		if plan.Bolts[i].Name == "Project" {
			project = &plan.Bolts[i]
		}
	}
	if project == nil || len(project.Stages) != 2 ||
		project.Stages[0] != "Filter" || project.Stages[1] != "Project" {
		t.Fatalf("expected Project to fuse [Filter → Project], plan:\n%s", plan)
	}
	if len(plan.CombinedEdges) != 1 {
		t.Fatalf("expected exactly one combined edge, plan:\n%s", plan)
	}
	e := plan.CombinedEdges[0]
	if e.From != "Project" || e.To != "Count(10 sec)" || e.Cap != storm.DefaultCombinerCap {
		t.Fatalf("combined edge = %+v, want Project→Count(10 sec) cap %d", e, storm.DefaultCombinerCap)
	}
}

// TestOptimizedRunsActuallyCombine guards against the passes silently
// deactivating: a default Query IV generated run must show combiner
// traffic with compression, and the passes-off run must show none.
func TestOptimizedRunsActuallyCombine(t *testing.T) {
	run := func(off bool) *storm.Result {
		t.Helper()
		res, err := Run(testEnv(t), Spec{Query: "IV", Variant: Generated, Par: 2,
			Options: optionsFrom(nil, func(o *compile.Options) { o.FuseChains, o.Combiners = !off, !off })})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on := run(false)
	in, out := on.Stats.Combined()
	if in == 0 || out == 0 || out >= in {
		t.Fatalf("optimized run combiner stats in=%d out=%d: expected compression (0 < out < in)", in, out)
	}
	offRes := run(true)
	if oin, _ := offRes.Stats.Combined(); oin != 0 {
		t.Fatalf("passes-off run still combined %d events", oin)
	}
	fmt.Printf("query IV combiner compression: %d items → %d partials (%.1f×)\n",
		in, out, float64(in)/float64(out))
}
