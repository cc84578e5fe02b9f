package compile

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"datatrace/internal/core"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// This file checks the templates' typed marker output inside the
// runtime: a fused SORT→KeyedOrdered bolt against the boxed
// composition, and a KeyedOrdered or KeyedUnordered bolt crashing in
// the middle of its typed marker output under recovery.

func tiedSort() core.Operator {
	return &core.Sort[int, int]{
		OpName: "sort",
		In:     stream.U("Int", "Int"),
		Out:    stream.O("Int", "Int"),
		Less:   func(a, b int) bool { return a/10 < b/10 },
	}
}

// markerSum is a KeyedOrdered running sum that also emits, at every
// marker, one row per key; onMarker, when set, runs after the key's row
// is emitted (the chaos test's crash hook).
func markerSum(onMarker func(k int, m stream.Marker)) core.Operator {
	return &core.KeyedOrdered[int, int, int, int]{
		OpName:       "runsum",
		In:           stream.O("Int", "Int"),
		Out:          stream.O("Int", "Int"),
		InitialState: func() int { return 0 },
		OnItem: func(emit func(int), st, _ int, v int) int {
			st += v
			emit(st)
			return st
		},
		OnMarker: func(emit func(int), st, k int, m stream.Marker) int {
			emit(st*100 + int(m.Seq))
			if onMarker != nil {
				onMarker(k, m)
			}
			return st
		},
	}
}

// TestFusedSortKeyedOrderedTypedMatchesBoxed runs a fused SORT→
// KeyedOrdered bolt on its batch surface alone — ProcessCols for every
// batch, ProcessMarker at every marker — and checks that it produces
// exactly the boxed composition's output, also when the bolt is
// checkpointed mid-block and a fresh one restored from the bytes takes
// over.
func TestFusedSortKeyedOrderedTypedMatchesBoxed(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	srt, ko := tiedSort(), markerSum(nil)
	newBolt := func() *fusedBolt {
		f, ok := newFusedBolt([]core.Instance{srt.New(), ko.New()}, nil).(*fusedBolt)
		if !ok || f.marks == nil {
			t.Fatal("fused SORT→KeyedOrdered is not a checkpointable chain")
		}
		return f
	}
	for trial := 0; trial < 20; trial++ {
		in := randomStream(r, 2+r.Intn(6), 30, 4)
		want := core.RunInstance(ko, core.RunInstance(srt, in))
		snapAt := r.Intn(len(in))
		f := newBolt()
		kind := f.InColKind()
		var got []stream.Event
		collect := func(c stream.Columns) {
			for i := 0; i < c.Len(); i++ {
				got = append(got, c.EventAt(i))
			}
			c.Release()
		}
		batch := kind.Get()
		flush := func() {
			if batch.Len() > 0 {
				o := f.OutColKind().Get()
				f.ProcessCols(batch, o)
				collect(o)
				batch.Release()
				batch = kind.Get()
			}
		}
		for i, e := range in {
			if i == snapAt {
				flush()
				snap, err := f.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				f = newBolt()
				if err := f.Restore(snap); err != nil {
					t.Fatal(err)
				}
			}
			if e.IsMarker {
				flush()
				o := f.OutColKind().Get()
				f.ProcessMarker(e.Marker, o)
				collect(o)
				got = append(got, e)
				continue
			}
			batch.AppendEvent(e)
			if batch.Len() >= 1+r.Intn(5) {
				flush()
			}
		}
		batch.Release()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (restored at %d): typed fused output\n%v\nboxed composition\n%v", trial, snapAt, got, want)
		}
	}
}

// unorderedMarkerSum is a KeyedUnordered per-key sum that emits, at
// every marker, one row per key; onMarker, when set, runs after the
// key's row is emitted (the chaos test's crash hook).
func unorderedMarkerSum(onMarker func(k int, m stream.Marker)) core.Operator {
	return &core.KeyedUnordered[int, int, int, int, int, int]{
		OpName:       "usum",
		InT:          stream.U("Int", "Int"),
		OutT:         stream.U("Int", "Int"),
		In:           func(_, v int) int { return v },
		ID:           func() int { return 0 },
		Combine:      func(x, y int) int { return x + y },
		InitialState: func() int { return 0 },
		UpdateState:  func(old, agg int) int { return old + agg },
		OnMarker: func(emit core.Emit[int, int], st, k int, m stream.Marker) {
			emit(k, st*100+int(m.Seq))
			if onMarker != nil {
				onMarker(k, m)
			}
		},
	}
}

// passThrough forwards every item: a consumer that reads its input
// typed, so a KeyedUnordered producer's marker output goes out typed.
func passThrough() core.Operator {
	return &core.Stateless[int, int, int, int]{
		OpName: "pass",
		In:     stream.U("Int", "Int"),
		Out:    stream.U("Int", "Int"),
		OnItem: func(emit core.Emit[int, int], k, v int) { emit(k, v) },
	}
}

// TestChaosTypedMarkerOutputCrash crashes a bolt with typed marker
// output in the middle of that output under recovery — its marker step
// panics after the first key's row is in the output batch — and also
// corrupts a send of that output. The bolts are a KeyedOrdered, fused
// behind its SORT and standalone, and a KeyedUnordered feeding a typed
// consumer. The recovered run must restart and stay trace-equivalent to
// the reference.
func TestChaosTypedMarkerOutputCrash(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var armed atomic.Bool
	var calls atomic.Int64
	crash := func(_ int, m stream.Marker) {
		if armed.Load() && m.Seq == 2 && calls.Add(1) == 2 {
			armed.Store(false)
			panic("injected crash in the marker output")
		}
	}
	cases := []struct {
		// bolt crashes; next is the component its output goes to.
		bolt, next string
		build      func(par int) *core.DAG
	}{
		{"runsum", "out", func(par int) *core.DAG {
			d := core.NewDAG()
			src := d.Source("src", stream.U("Int", "Int"))
			s := d.Op(tiedSort(), par, src)
			d.Sink("out", d.Op(markerSum(crash), par, s))
			return d
		}},
		{"usum", "pass", func(par int) *core.DAG {
			d := core.NewDAG()
			src := d.Source("src", stream.U("Int", "Int"))
			u := d.Op(unorderedMarkerSum(crash), par, src)
			d.Sink("out", d.Op(passThrough(), par, u))
			return d
		}},
	}
	for _, c := range cases {
		for trial := 0; trial < 6; trial++ {
			in := randomStream(r, 5, 20, 6)
			ref, err := c.build(1).Eval(map[string][]stream.Event{"src": in})
			if err != nil {
				t.Fatal(err)
			}
			par, fuse := 1+trial%2, trial%3 != 2
			dag := c.build(par)
			plan := storm.NewFaultPlan()
			if trial >= 3 {
				plan.CorruptEdge(c.bolt, 0, c.next, int64(1+r.Intn(10)))
			}
			top, cp, err := CompileWithPlan(dag, map[string]SourceSpec{
				"src": {Parallelism: 1, Factory: func(int) storm.Spout { return storm.SliceSpout(in) }},
			}, &Options{
				FuseSort:  fuse,
				Recovery:  &storm.RecoveryPolicy{Enabled: true, Logf: func(string, ...any) {}},
				FaultPlan: plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range cp.Bolts {
				if b.Name == c.bolt && b.OutKind == nil {
					t.Fatalf("%s trial %d: the bolt emits boxed, plan:\n%s", c.bolt, trial, cp)
				}
			}
			calls.Store(0)
			armed.Store(true)
			res, err := top.Run()
			armed.Store(false)
			if err != nil {
				t.Fatalf("%s trial %d (par %d, fused %v): %v", c.bolt, trial, par, fuse, err)
			}
			if restarts, _, _ := res.Stats.Recovery(); restarts < 1 {
				t.Fatalf("%s trial %d (par %d, fused %v): no restart recorded", c.bolt, trial, par, fuse)
			}
			if err := dag.EquivalentOutputs(ref, res.Sinks); err != nil {
				t.Fatalf("%s trial %d (par %d, fused %v): %v", c.bolt, trial, par, fuse, err)
			}
		}
	}
}
