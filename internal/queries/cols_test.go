package queries

import (
	"testing"
	"time"

	"datatrace/internal/compile"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// TestColumnarEquivalenceDifferential proves the column-batch
// transport semantics-preserving at the query level: every generated
// query I–VI runs with its typed sources and edges at parallelism
// {1, 2, 4} × transport batch size {1, 64}, and the sink output must
// equal the query's denotation (Def.Reference, i.e. DAG.Eval) as a data
// trace. Run under -race (scripts/check.sh runs every suite so) so batch
// recycling through the arena pools is exercised under real executor
// concurrency.
func TestColumnarEquivalenceDifferential(t *testing.T) {
	for _, def := range All() {
		def := def
		t.Run("Query"+def.Name, func(t *testing.T) {
			env := testEnv(t)
			sinkType := def.SinkType(env)
			// Fresh env per run: Query II mutates the DB.
			ref, err := def.Reference(testEnv(t))
			if err != nil {
				t.Fatal(err)
			}
			oracle := ref["sink"]
			for _, par := range []int{1, 2, 4} {
				for _, batch := range []int{1, 64} {
					res, err := Run(testEnv(t), Spec{
						Query: def.Name, Variant: Generated, Par: par, SourcePar: 2,
						Options: optionsFrom(nil, func(o *compile.Options) { o.Transport = &storm.TransportOptions{BatchSize: batch} }),
					})
					if err != nil {
						t.Fatalf("par=%d batch=%d: %v", par, batch, err)
					}
					if got := res.Sinks["sink"]; !stream.Equivalent(sinkType, got, oracle) {
						t.Fatalf("par=%d batch=%d: trace differs from the reference denotation (%d vs %d events)",
							par, batch, len(got), len(oracle))
					}
				}
			}
		})
	}
}

// TestColumnarPlanSelectsTypedEdges pins the compiler's edge-type
// selection on the flagship pipeline so the differential tests above
// (and the default-path chaos/rescale tests) cannot pass vacuously:
// with a columnar source, Query IV's plan must carry the source edge
// as columnar and the combined fields edge as typed; a plain Spout
// source (no SourceSpec.Cols) yields zero typed edges, and its run is
// still the reference denotation.
func TestColumnarPlanSelectsTypedEdges(t *testing.T) {
	env := testEnv(t)
	cols := env.Gen.ColPartitions(1, false)
	build := func(src compile.SourceSpec) (*storm.Topology, *compile.Plan) {
		t.Helper()
		top, plan, err := compile.CompileWithPlan(QueryIVDAG(env, 2), map[string]compile.SourceSpec{"yahoo": src}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return top, plan
	}

	_, plan := build(compile.SourceSpec{
		Parallelism: 1,
		Cols:        cols[0].ColKind(),
		Factory:     func(int) storm.Spout { return cols[0] },
	})
	if len(plan.ColumnarEdges) == 0 {
		t.Fatalf("no columnar edges selected, plan:\n%s", plan)
	}
	src := plan.ColumnarEdges[0]
	if src.From != "yahoo" || src.To != "Project" {
		t.Fatalf("columnar edge = %+v, want yahoo→Project (fused Filter+Project), plan:\n%s", src, plan)
	}
	if len(plan.CombinedEdges) != 1 || !plan.CombinedEdges[0].Columnar {
		t.Fatalf("expected the Project→Count combined edge to be typed, plan:\n%s", plan)
	}

	def, err := ByName("IV")
	if err != nil {
		t.Fatal(err)
	}
	top, plain := build(compile.SourceSpec{Parallelism: 1, Factory: func(int) storm.Spout {
		return storm.SpoutFunc(def.Sources(env, 1)[0])
	}})
	if len(plain.ColumnarEdges) != 0 {
		t.Fatalf("a plain Spout source still yields typed edges:\n%s", plain)
	}
	res, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := def.Reference(env)
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equivalent(def.SinkType(env), res.Sinks["sink"], ref["sink"]) {
		t.Fatal("the plain-source run differs from the reference denotation")
	}
}

// TestColumnarRescaleAtCut rescales Query IV at marker-cut barriers
// while its hot edges move typed batches: scale-out and scale-in at
// batch sizes 1 and 64, each compared against the query's reference
// denotation. Open batches are sealed and flushed before every marker
// enters the transport, so state migration at the cut sees empty edges
// — this test is the query-level proof.
func TestColumnarRescaleAtCut(t *testing.T) {
	env := testEnv(t)
	def, err := ByName("IV")
	if err != nil {
		t.Fatal(err)
	}
	sinkType := def.SinkType(env)
	base := Spec{Query: "IV", Variant: Generated, SourcePar: 2,
		Options: optionsFrom(nil, func(o *compile.Options) {
			o.Recovery, o.Combiners = &storm.RecoveryPolicy{Enabled: true}, false
		})}

	probeSpec := base
	probeSpec.Par = 2
	target, _ := rescaleProbe(t, def, probeSpec)

	oracle, err := def.Reference(testEnv(t))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	scenarios := []struct {
		name string
		par  int
		plan func(target string) *storm.RescalePlan
	}{
		{"up", 2, func(c string) *storm.RescalePlan {
			return storm.NewRescalePlan().RescaleAt(c, 4, 3)
		}},
		{"down", 4, func(c string) *storm.RescalePlan {
			return storm.NewRescalePlan().RescaleAt(c, 1, 3)
		}},
	}
	for _, sc := range scenarios {
		for _, batch := range []int{1, 64} {
			spec := base
			spec.Par = sc.par
			spec.Options = optionsFrom(base.Options, func(o *compile.Options) {
				o.Transport, o.Rescale = &storm.TransportOptions{BatchSize: batch}, sc.plan(target)
			})
			runEnv := testEnv(t)
			res, err := Run(runEnv, spec)
			if err != nil {
				t.Fatalf("%s batch=%d: %v", sc.name, batch, err)
			}
			if !stream.Equivalent(sinkType, res.Sinks["sink"], oracle["sink"]) {
				t.Fatalf("%s batch=%d: rescaled trace differs from the reference denotation (%d vs %d events)",
					sc.name, batch, len(res.Sinks["sink"]), len(oracle["sink"]))
			}
		}
	}
}

// TestColumnarChaosWorkerKill SIGKILLs a worker of a networked Query
// IV cluster whose edges are columnar (the default) and checks that
// the recovered, replayed, spliced output equals the query's reference
// denotation. Typed batches cross worker links as raw columnar frames,
// universal ones through the gob fallback, and recovery replays from
// committed marker cuts.
func TestColumnarChaosWorkerKill(t *testing.T) {
	requireNet(t)
	cfg := netTestCfg()
	spec := Spec{Query: "IV", Variant: Generated, Par: 2, SourcePar: 2}
	// The DB delay stretches the run so the kill (after 3 of the 12
	// marker cuts commit) lands mid-flight rather than after the
	// stream has drained.
	const opDelay = 500 * time.Microsecond

	env, err := NewEnv(cfg, opDelay)
	if err != nil {
		t.Fatal(err)
	}

	res, err := RunNetworked(NetSpec{Spec: onWorkers(spec, 3), Cfg: cfg, OpDelay: opDelay},
		func(o *storm.NetOptions) {
			o.Kill = &storm.KillPlan{Worker: 1, AfterCuts: 3}
			o.Logf = t.Logf
		})
	if err != nil {
		t.Fatalf("networked columnar run did not recover: %v", err)
	}
	if res.WorkerRestarts < 1 {
		t.Fatalf("kill plan fired but the cluster reports %d restarts", res.WorkerRestarts)
	}
	if res.ReplayedCuts < 3 {
		t.Fatalf("restart replayed only %d committed cuts, want ≥ 3", res.ReplayedCuts)
	}
	def, err := ByName("IV")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := def.Reference(env)
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Sinks["sink"], oracle["sink"]
	if !stream.Equivalent(def.SinkType(env), got, want) {
		t.Fatalf("post-recovery trace differs from the reference denotation\n got %d events\n want %d events",
			len(got), len(want))
	}
	t.Logf("recovered: %d restarts, %d replayed cuts, wall %v", res.WorkerRestarts, res.ReplayedCuts, res.Wall)
}
