package compile

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"datatrace/internal/core"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// This file tests the optimization pipeline added on top of the base
// compilation: stateless chain fusion and shuffle-side combiners, the
// Plan debugging output, and the option validation around them.

// statelessOp builds a named stateless int→int stage applying f.
func statelessOp(name string, f func(k, v int) (int, int, bool)) core.Operator {
	return &core.Stateless[int, int, int, int]{
		OpName: name,
		In:     stream.U("Int", "Int"),
		Out:    stream.U("Int", "Int"),
		OnItem: func(emit core.Emit[int, int], k, v int) {
			if nk, nv, ok := f(k, v); ok {
				emit(nk, nv)
			}
		},
	}
}

// chainedDAG: src → drop3 → scale → shift (stateless ×par) →
// sumPerKey → sink; the three stateless stages form a fusable chain.
func chainedDAG(par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("src", stream.U("Int", "Int"))
	a := d.Op(statelessOp("drop3", func(k, v int) (int, int, bool) { return k, v, v%3 != 0 }), par, src)
	b := d.Op(statelessOp("scale", func(k, v int) (int, int, bool) { return k, v * 2, true }), par, a)
	c := d.Op(statelessOp("shift", func(k, v int) (int, int, bool) { return k + 1, v, true }), par, b)
	s := d.Op(sumPerKey(), par, c)
	d.Sink("out", s)
	return d
}

func optSources(in []stream.Event) map[string]SourceSpec {
	return map[string]SourceSpec{
		"src": {Parallelism: 1, Factory: func(int) storm.Spout { return storm.SliceSpout(in) }},
	}
}

// TestChainFusionCollapsesStatelessChain checks the structural half of
// the pass: the three stateless stages compile to ONE bolt named after
// the chain tail, wired to the source with the head's shuffle
// grouping, and the Plan reports the fused stages in order.
func TestChainFusionCollapsesStatelessChain(t *testing.T) {
	in := randomStream(rand.New(rand.NewSource(3)), 3, 10, 5)
	top, plan, err := CompileWithPlan(chainedDAG(2), optSources(in), &Options{FuseChains: true})
	if err != nil {
		t.Fatal(err)
	}
	s := top.String()
	for _, gone := range []string{"bolt drop3", "bolt scale"} {
		if strings.Contains(s, gone) {
			t.Fatalf("chain member %q survived fusion:\n%s", gone, s)
		}
	}
	if !strings.Contains(s, "shift ×2 ← src(shuffle,aligned)") {
		t.Fatalf("fused bolt must keep the tail's name and the head's wiring:\n%s", s)
	}
	var fused *PlanBolt
	for i := range plan.Bolts {
		if plan.Bolts[i].Name == "shift" {
			fused = &plan.Bolts[i]
		}
	}
	if fused == nil {
		t.Fatalf("plan has no bolt 'shift':\n%s", plan)
	}
	want := []string{"drop3", "scale", "shift"}
	if len(fused.Stages) != len(want) {
		t.Fatalf("fused bolt stages = %v, want %v", fused.Stages, want)
	}
	for i, n := range want {
		if fused.Stages[i] != n {
			t.Fatalf("fused bolt stages = %v, want %v", fused.Stages, want)
		}
	}
	if !strings.Contains(plan.String(), "fuses [drop3 → scale → shift]") {
		t.Fatalf("plan rendering misses the fused chain:\n%s", plan)
	}

	// Off switch: every member compiles to its own bolt.
	plainTop, plainPlan, err := CompileWithPlan(chainedDAG(2), optSources(in), &Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bolt drop3", "bolt scale", "bolt shift"} {
		if !strings.Contains(plainTop.String(), name) {
			t.Fatalf("FuseChains off still lost %q:\n%s", name, plainTop.String())
		}
	}
	for _, b := range plainPlan.Bolts {
		if len(b.Stages) > 1 {
			t.Fatalf("FuseChains off produced a fused bolt %v", b)
		}
	}
}

// TestChainFusionStageCounts runs a fused topology and checks the
// Plan's live per-stage delivery counters: the first stage sees every
// delivered event, later stages see what their predecessors emitted
// (drop3 filters, so strictly fewer items reach scale).
func TestChainFusionStageCounts(t *testing.T) {
	in := randomStream(rand.New(rand.NewSource(8)), 4, 20, 5)
	top, plan, err := CompileWithPlan(chainedDAG(2), optSources(in), &Options{FuseChains: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := top.Run(); err != nil {
		t.Fatal(err)
	}
	counts := plan.StageCounts("shift")
	if len(counts) != 3 {
		t.Fatalf("StageCounts = %v, want 3 stages", counts)
	}
	var items, kept int64
	for _, e := range in {
		if !e.IsMarker {
			items++
			if e.Value.(int)%3 != 0 {
				kept++
			}
		}
	}
	if counts[0].Events < items {
		t.Fatalf("stage 0 (%s) saw %d events, want ≥ %d items", counts[0].Stage, counts[0].Events, items)
	}
	// drop3 filters items; scale and shift pass everything through.
	wantMid := counts[0].Events - (items - kept)
	if counts[1].Events != wantMid || counts[2].Events != wantMid {
		t.Fatalf("later stages saw %d/%d events, want %d (stage 0 minus the %d filtered items)",
			counts[1].Events, counts[2].Events, wantMid, items-kept)
	}
	if plan.StageCounts("nope") != nil {
		t.Fatal("StageCounts of an unknown bolt must be nil")
	}
}

// TestChainFusionBoundaries pins the pass's conservatism: mismatched
// parallelism, fan-out and fan-in all break a chain.
func TestChainFusionBoundaries(t *testing.T) {
	pass := func(k, v int) (int, int, bool) { return k, v, true }

	t.Run("parallelism-mismatch", func(t *testing.T) {
		d := core.NewDAG()
		src := d.Source("src", stream.U("Int", "Int"))
		a := d.Op(statelessOp("a", pass), 2, src)
		b := d.Op(statelessOp("b", pass), 3, a)
		d.Sink("out", b)
		top, _, err := CompileWithPlan(d, optSources(nil), &Options{FuseChains: true})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(top.String(), "bolt a") || !strings.Contains(top.String(), "bolt b") {
			t.Fatalf("parallelism mismatch must not fuse:\n%s", top.String())
		}
	})

	t.Run("fan-out", func(t *testing.T) {
		d := core.NewDAG()
		src := d.Source("src", stream.U("Int", "Int"))
		a := d.Op(statelessOp("a", pass), 2, src)
		b := d.Op(statelessOp("b", pass), 2, a)
		c := d.Op(statelessOp("c", pass), 2, a)
		d.Sink("outB", b)
		d.Sink("outC", c)
		top, _, err := CompileWithPlan(d, optSources(nil), &Options{FuseChains: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"bolt a", "bolt b", "bolt c"} {
			if !strings.Contains(top.String(), name) {
				t.Fatalf("fan-out must not fuse (missing %s):\n%s", name, top.String())
			}
		}
	})

	t.Run("fan-in", func(t *testing.T) {
		d := core.NewDAG()
		src := d.Source("src", stream.U("Int", "Int"))
		a := d.Op(statelessOp("a", pass), 2, src)
		b := d.Op(statelessOp("b", pass), 2, src)
		j := d.Op(statelessOp("j", pass), 2, a, b)
		d.Sink("out", j)
		top, _, err := CompileWithPlan(d, optSources(nil), &Options{FuseChains: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"bolt a", "bolt b", "bolt j"} {
			if !strings.Contains(top.String(), name) {
				t.Fatalf("fan-in must not fuse (missing %s):\n%s", name, top.String())
			}
		}
	})
}

// TestChainFusionWithSortPrefix checks the two fusion rules compose: a
// SORT feeding a stateless chain head ends up as the first stage of
// the fused bolt, with fields grouping (the sort needs key routing).
func TestChainFusionWithSortPrefix(t *testing.T) {
	build := func() *core.DAG {
		d := core.NewDAG()
		src := d.Source("src", stream.U("Int", "Int"))
		so := d.Op(sortOp(), 2, src)
		// A stateless stage accepts the sort's ordered output via
		// subtyping and forgets the order.
		a := d.Op(statelessOp("a", func(k, v int) (int, int, bool) { return k, v + 1, true }), 2, so)
		b := d.Op(statelessOp("b", func(k, v int) (int, int, bool) { return k, v * 2, true }), 2, a)
		d.Sink("out", b)
		return d
	}
	in := randomStream(rand.New(rand.NewSource(11)), 3, 10, 4)
	ref, err := build().Eval(map[string][]stream.Event{"src": in})
	if err != nil {
		t.Fatal(err)
	}
	top, plan, err := CompileWithPlan(build(), optSources(in), &Options{FuseSort: true, FuseChains: true})
	if err != nil {
		t.Fatal(err)
	}
	s := top.String()
	for _, gone := range []string{"bolt SORT", "bolt a "} {
		if strings.Contains(s, gone) {
			t.Fatalf("%q must be fused away:\n%s", gone, s)
		}
	}
	if !strings.Contains(s, "b ×2 ← src(fields,aligned)") {
		t.Fatalf("fused sort must force fields grouping on the composite bolt:\n%s", s)
	}
	var stages []string
	for _, pb := range plan.Bolts {
		if pb.Name == "b" {
			stages = pb.Stages
		}
	}
	if len(stages) != 3 || stages[0] != "SORT" {
		t.Fatalf("fused bolt stages = %v, want [SORT a b]", stages)
	}
	res, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	dag := build()
	if err := dag.EquivalentOutputs(ref, res.Sinks); err != nil {
		t.Fatal(err)
	}
}

// TestCombinerPassInstallsOnKeyedEdge checks the combiner pass end to
// end on the canonical shape (stateless producer → keyed aggregator):
// the plan records the combined edge, the run is trace-equivalent to
// the reference, and the stats show actual compression.
func TestCombinerPassInstallsOnKeyedEdge(t *testing.T) {
	// Many items over few keys per block so combining actually
	// compresses.
	var in []stream.Event
	for b := 0; b < 5; b++ {
		for i := 0; i < 200; i++ {
			in = append(in, stream.Item(i%4, i))
		}
		in = append(in, mk(int64(b), int64(b*10)))
	}
	ref, err := pipelineDAG(1, 1).Eval(map[string][]stream.Event{"src": in})
	if err != nil {
		t.Fatal(err)
	}
	d := pipelineDAG(2, 2)
	top, plan, err := CompileWithPlan(d, optSources(in), &Options{Combiners: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.CombinedEdges) != 1 {
		t.Fatalf("plan.CombinedEdges = %v, want exactly the filterEven→sumPerKey edge", plan.CombinedEdges)
	}
	e := plan.CombinedEdges[0]
	if e.From != "filterEven" || e.To != "sumPerKey" || e.Cap != storm.DefaultCombinerCap {
		t.Fatalf("combined edge = %+v, want filterEven→sumPerKey cap %d", e, storm.DefaultCombinerCap)
	}
	res, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EquivalentOutputs(ref, res.Sinks); err != nil {
		t.Fatal(err)
	}
	cin, cout := res.Stats.Combined()
	if cin == 0 || cout == 0 || cout >= cin {
		t.Fatalf("combiner stats in=%d out=%d: expected compression (0 < out < in)", cin, cout)
	}

	// Off switch: no combined edges, same trace.
	plainTop, plainPlan, err := CompileWithPlan(pipelineDAG(2, 2), optSources(in), &Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plainPlan.CombinedEdges) != 0 {
		t.Fatalf("Combiners off still combined %v", plainPlan.CombinedEdges)
	}
	plainRes, err := plainTop.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cin, _ := plainRes.Stats.Combined(); cin != 0 {
		t.Fatalf("Combiners off still fed %d events through combining buffers", cin)
	}
}

// untypedOnly hides an operator's typed surfaces (ColCombinable and the
// column kinds) behind the Combinable interface.
type untypedOnly struct{ core.Combinable }

// TestCombinerPassUsesUntypedMonoid: an operator that is Combinable but
// not ColCombinable still gets a combiner, built from CombinerMonoid
// over the universal kind, and the run is trace-equivalent.
func TestCombinerPassUsesUntypedMonoid(t *testing.T) {
	var in []stream.Event
	for b := 0; b < 5; b++ {
		for i := 0; i < 200; i++ {
			in = append(in, stream.Item(i%4, i))
		}
		in = append(in, mk(int64(b), int64(b*10)))
	}
	ref, err := pipelineDAG(1, 1).Eval(map[string][]stream.Event{"src": in})
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDAG()
	src := d.Source("src", stream.U("Int", "Int"))
	d.Sink("out", d.Op(untypedOnly{sumPerKey().(core.Combinable)}, 2, d.Op(evenFilter(), 2, src)))
	top, plan, err := CompileWithPlan(d, optSources(in), &Options{Combiners: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.CombinedEdges) != 1 || plan.CombinedEdges[0].Columnar {
		t.Fatalf("plan.CombinedEdges = %+v, want one edge combined over the universal kind", plan.CombinedEdges)
	}
	res, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EquivalentOutputs(ref, res.Sinks); err != nil {
		t.Fatal(err)
	}
	if cin, cout := res.Stats.Combined(); cin == 0 || cout == 0 || cout >= cin {
		t.Fatalf("combiner stats in=%d out=%d: expected compression (0 < out < in)", cin, cout)
	}
}

// TestCombinerPassSkipsPerItemEmitters pins the soundness gate: a
// KeyedUnordered with an OnItem callback emits per item, so combining
// its input would change the trace — the pass must leave it alone.
func TestCombinerPassSkipsPerItemEmitters(t *testing.T) {
	perItem := &core.KeyedUnordered[int, int, int, int, int, int]{
		OpName:       "echoSum",
		InT:          stream.U("Int", "Int"),
		OutT:         stream.U("Int", "Int"),
		In:           func(_, v int) int { return v },
		ID:           func() int { return 0 },
		Combine:      func(x, y int) int { return x + y },
		InitialState: func() int { return 0 },
		UpdateState:  func(old, agg int) int { return old + agg },
		OnItem:       func(emit core.Emit[int, int], _, k, v int) { emit(k, v) },
	}
	d := core.NewDAG()
	src := d.Source("src", stream.U("Int", "Int"))
	d.Sink("out", d.Op(perItem, 2, src))
	_, plan, err := CompileWithPlan(d, optSources(nil), &Options{Combiners: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.CombinedEdges) != 0 {
		t.Fatalf("per-item emitter must not be combined: %v", plan.CombinedEdges)
	}
}

// TestCompileValidation pins the descriptive compile-time errors for a
// nil DAG and malformed option values.
func TestCompileValidation(t *testing.T) {
	t.Run("nil-dag", func(t *testing.T) {
		_, err := Compile(nil, optSources(nil), nil)
		if err == nil || !strings.Contains(err.Error(), "nil DAG") {
			t.Fatalf("got %v, want nil-DAG error", err)
		}
	})
	t.Run("negative-batch-size", func(t *testing.T) {
		_, err := Compile(pipelineDAG(1, 1), optSources(nil), &Options{Transport: &storm.TransportOptions{BatchSize: -2}})
		if err == nil || !strings.Contains(err.Error(), "BatchSize") {
			t.Fatalf("got %v, want BatchSize error", err)
		}
	})
	t.Run("combiner-cap-selects-default", func(t *testing.T) {
		var plan *Plan
		var err error
		withCombinerCap(7, func() { _, plan, err = CompileWithPlan(pipelineDAG(1, 1), optSources(nil), &Options{Combiners: true}) })
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.CombinedEdges) != 1 || plan.CombinedEdges[0].Cap != 7 {
			t.Fatalf("explicit cap not honored: %v", plan.CombinedEdges)
		}
	})
}

// TestChaosOptimizationPassesMatchReference extends the chaos harness
// across the optimization matrix: every random DAG must produce the
// reference trace under all four on/off combinations of chain fusion
// and combiners (sort fusion on throughout).
func TestChaosOptimizationPassesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		build := randomDAG(int64(11000 + trial))
		in := randomStream(r, 2+r.Intn(4), 10, 5)

		refDag := build(1, r)
		ref, err := refDag.Eval(map[string][]stream.Event{"src": in})
		if err != nil {
			t.Fatal(err)
		}

		dag := build(3, r)
		for _, fuseChains := range []bool{false, true} {
			for _, combiners := range []bool{false, true} {
				top, err := Compile(dag, optSources(in), &Options{
					FuseSort: true, FuseChains: fuseChains, Combiners: combiners,
				})
				if err != nil {
					t.Fatalf("trial %d chains=%v comb=%v: %v", trial, fuseChains, combiners, err)
				}
				res, err := top.Run()
				if err != nil {
					t.Fatalf("trial %d chains=%v comb=%v: %v", trial, fuseChains, combiners, err)
				}
				if err := dag.EquivalentOutputs(ref, res.Sinks); err != nil {
					t.Fatalf("trial %d chains=%v comb=%v:\n%s\n%v", trial, fuseChains, combiners, dag.Dot(), err)
				}
			}
		}
	}
}

// TestChaosRecoveryWithOptimizations is the ISSUE's chaos acceptance
// case: random DAGs compiled with ALL passes on (chain fusion —
// exercising fused-bolt snapshot/restore — and combiners), batched
// transport, marker-cut recovery, and a random executor crash
// mid-epoch (the crash index falls inside a block, so combining
// buffers hold partial aggregates somewhere in the topology when the
// victim dies). The run must recover and reproduce the reference
// trace with nothing dropped.
func TestChaosRecoveryWithOptimizations(t *testing.T) {
	r := rand.New(rand.NewSource(613))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		build := randomDAG(int64(13000 + trial))
		in := randomStream(r, 3+r.Intn(3), 10, 5)

		refDag := build(1, r)
		ref, err := refDag.Eval(map[string][]stream.Event{"src": in})
		if err != nil {
			t.Fatal(err)
		}

		for _, batch := range []int{1, 8, 64} {
			dag := build(2, r)
			allOn := &Options{FuseSort: true, FuseChains: true, Combiners: true}
			capKeys := 1 + r.Intn(8)
			probe, err := Compile(dag, optSources(in), allOn)
			if err != nil {
				t.Fatalf("trial %d batch=%d: %v", trial, batch, err)
			}
			var targets []storm.ComponentInfo
			for _, c := range probe.Components() {
				if c.Kind != "spout" {
					targets = append(targets, c)
				}
			}
			victim := targets[r.Intn(len(targets))]
			instance := r.Intn(victim.Parallelism)
			atEvent := int64(1 + r.Intn(15))

			opts := *allOn
			opts.Recovery = &storm.RecoveryPolicy{Enabled: true, Logf: func(string, ...any) {}}
			opts.FaultPlan = storm.NewFaultPlan().CrashAt(victim.Name, instance, atEvent)
			opts.Transport = &storm.TransportOptions{BatchSize: batch, FlushInterval: 200 * time.Microsecond}
			var top *storm.Topology
			withCombinerCap(capKeys, func() { top, err = Compile(dag, optSources(in), &opts) })
			if err != nil {
				t.Fatalf("trial %d batch=%d: %v", trial, batch, err)
			}
			res, err := top.Run()
			if err != nil {
				t.Fatalf("trial %d batch=%d: crash of %s[%d] at event %d did not recover: %v",
					trial, batch, victim.Name, instance, atEvent, err)
			}
			if _, _, dropped := res.Stats.Recovery(); dropped != 0 {
				t.Fatalf("trial %d batch=%d: recovered run dropped %d events", trial, batch, dropped)
			}
			if err := dag.EquivalentOutputs(ref, res.Sinks); err != nil {
				t.Fatalf("trial %d batch=%d: crash of %s[%d] at event %d:\n%s\n%v",
					trial, batch, victim.Name, instance, atEvent, dag.Dot(), err)
			}
		}
	}
}

// TestFusedBoltSnapshotRoundTrip pins the fused bolt's checkpoint
// format: snapshot → mutate → restore must reproduce the pre-mutation
// emissions, and a stage-count mismatch must be rejected.
func TestFusedBoltSnapshotRoundTrip(t *testing.T) {
	mkBolt := func() storm.Bolt {
		return newFusedBolt([]core.Instance{sumPerKey().New(), sumPerKey().New()}, nil)
	}
	bolt := mkBolt()
	var sink []stream.Event
	emit := func(e stream.Event) { sink = append(sink, e) }
	for i := 0; i < 10; i++ {
		bolt.Next(stream.Item(i%2, i), emit)
	}
	rec, ok := bolt.(storm.Recoverable)
	if !ok {
		t.Fatal("fused bolt of snapshot-capable stages must be Recoverable")
	}
	snap, err := rec.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Reference: finish the block on a pristine copy restored from snap.
	finish := func(b storm.Bolt) []stream.Event {
		var out []stream.Event
		b.Next(stream.Item(0, 100), func(e stream.Event) { out = append(out, e) })
		b.Next(mk(1, 1), func(e stream.Event) { out = append(out, e) })
		return out
	}
	want := finish(bolt)

	restored := mkBolt()
	if err := restored.(storm.Recoverable).Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := finish(restored)
	if !stream.Equivalent(stream.U("Int", "Int"), got, want) {
		t.Fatalf("restored fused bolt diverged:\ngot  %v\nwant %v", got, want)
	}

	three := newFusedBolt([]core.Instance{sumPerKey().New(), sumPerKey().New(), sumPerKey().New()}, nil)
	if err := three.(storm.Recoverable).Restore(snap); err == nil ||
		!strings.Contains(err.Error(), "stages") {
		t.Fatalf("stage-count mismatch must be rejected, got %v", err)
	}
}
