package core

import (
	"maps"
	"math"
	"math/rand"
	"testing"

	"datatrace/internal/stream"
)

// set is a map-valued aggregate: the case where a copying Combine
// costs what the aggregate holds and an in-place one what an item adds.
type set = map[int]bool

// inPlaceCalls counts how often the runtime took each in-place hook.
type inPlaceCalls struct{ merges, folds int }

func (c *inPlaceCalls) merge(dst *set, src set) {
	c.merges++
	maps.Copy(*dst, src)
}

func (c *inPlaceCalls) fold(acc *set, _ int, v int) {
	c.folds++
	(*acc)[v] = true
}

func union(x, y set) set {
	u := make(set, len(x)+len(y))
	maps.Copy(u, x)
	maps.Copy(u, y)
	return u
}

// distinctPerKey emits, per key at every marker, how many distinct
// values the key has carried so far: a set-union monoid with an
// in-place MergeInto, and Fold too when fold is set, whose calls c
// counts.
func distinctPerKey(c *inPlaceCalls, fold bool) *KeyedUnordered[int, int, int, int, set, set] {
	op := &KeyedUnordered[int, int, int, int, set, set]{
		OpName:       "distinctPerKey",
		InT:          stream.U("Int", "Int"),
		OutT:         stream.U("Int", "Int"),
		In:           func(_ int, v int) set { return set{v: true} },
		ID:           func() set { return set{} },
		Combine:      union,
		MergeInto:    c.merge,
		InitialState: func() set { return set{} },
		UpdateState:  union,
		OnMarker: func(emit Emit[int, int], st set, key int, m stream.Marker) {
			emit(key, len(st))
		},
	}
	if fold {
		op.Fold = c.fold
	}
	return op
}

// randomBlocks is a seeded U(Int,Int) stream of blocks items over few
// keys and values, so keys repeat within and across blocks.
func randomBlocks(seed int64, blocks, perBlock int) []stream.Event {
	r := rand.New(rand.NewSource(seed))
	var out []stream.Event
	for b := 0; b < blocks; b++ {
		for i := 0; i < perBlock; i++ {
			out = append(out, stream.Item(r.Intn(5), r.Intn(8)))
		}
		out = append(out, mk(int64(b), int64(b)))
	}
	return out
}

// TestInPlaceMatchesPure runs the operator with MergeInto alone (items
// fold as MergeInto(&a, In(k, v))) and with Fold too (Fold wins).
func TestInPlaceMatchesPure(t *testing.T) {
	for _, withFold := range []bool{false, true} {
		var calls inPlaceCalls
		op := distinctPerKey(&calls, withFold)
		pure := op.pure().(*KeyedUnordered[int, int, int, int, set, set])
		if pure.MergeInto != nil || pure.Fold != nil || op.MergeInto == nil || (op.Fold != nil) != withFold {
			t.Fatal("pure must strip the hooks from a copy and leave the operator alone")
		}
		for seed := int64(1); seed <= 5; seed++ {
			in := randomBlocks(seed, 6, 20)
			want := RunInstance(pure, in)
			for _, par := range []int{1, 2, 3} {
				if got := RunParallel(op, in, par, nil); !stream.Equivalent(op.OutType(), got, want) {
					t.Fatalf("fold %v seed %d par %d: in-place output differs from the pure specification\n got %s\nwant %s",
						withFold, seed, par, stream.Render(got), stream.Render(want))
				}
			}
		}
		if withFold && (calls.folds == 0 || calls.merges != 0) || !withFold && calls.merges == 0 {
			t.Fatalf("fold %v: hook calls %+v", withFold, calls)
		}
	}
}

// TestInPlaceCombinerHandsOffOwnership drives the sender-side combiner
// and the PreCombined consumer directly: an aggregate the combiner has
// drained is the batch's and never grows again, and the consumer's
// MergeInto only reads the partials — a replayed batch still holds
// what was first sent. The sender folds items through MergeInto alone,
// then through Fold.
func TestInPlaceCombinerHandsOffOwnership(t *testing.T) {
	for _, withFold := range []bool{false, true} {
		var calls inPlaceCalls
		op := distinctPerKey(&calls, withFold)
		outK, mkComb, ok := op.ColCombiner()
		if !ok {
			t.Fatal("no combiner")
		}
		comb := mkComb()
		inK := stream.ColKindFor[int, int]() // the operator's raw rows
		rows := inK.Get().(*stream.Cols[int, int])
		for i := 0; i < 12; i++ {
			rows.Append(i%3, i)
		}
		for i := 0; i < rows.Len(); i++ {
			comb.Fold(rows, []int32{int32(i)}, math.MaxInt)
		}
		partials := outK.Get().(*stream.Cols[int, set])
		if ins, outs := comb.Drain(partials); ins != 12 || outs != 3 {
			t.Fatalf("drain = (%d, %d), want (12, 3)", ins, outs)
		}
		sent := make([]set, partials.Len())
		for i, p := range partials.Vals {
			sent[i] = maps.Clone(p)
		}
		// The same keys with new values, after the drain: fresh aggregates,
		// not the drained ones grown further.
		more := inK.Get().(*stream.Cols[int, int])
		for i := 0; i < 12; i++ {
			more.Append(i%3, 100+i)
		}
		for i := 0; i < more.Len(); i++ {
			comb.Fold(more, []int32{int32(i)}, math.MaxInt)
		}
		for i, p := range partials.Vals {
			if !maps.Equal(p, sent[i]) {
				t.Fatalf("partial %d changed after its drain: %v, sent %v", i, p, sent[i])
			}
		}
		partials2 := outK.Get().(*stream.Cols[int, set])
		comb.Drain(partials2)

		consumer := op.PreCombined().New().(BatchInstance)
		consumer.ProcessCols(partials, nil)
		consumer.ProcessCols(partials2, nil)
		consumer.ProcessCols(partials, nil) // a replay: union is idempotent
		var out []stream.Event
		consumer.Next(mk(0, 0), func(e stream.Event) { out = append(out, e) })
		for i, p := range partials.Vals {
			if !maps.Equal(p, sent[i]) {
				t.Fatalf("MergeInto mutated borrowed partial %d: %v, sent %v", i, p, sent[i])
			}
		}
		block := make([]stream.Event, 0, 2*rows.Len()+1)
		for i := 0; i < rows.Len(); i++ {
			block = append(block, rows.EventAt(i), more.EventAt(i))
		}
		want := RunInstance(op.pure(), append(block, mk(0, 0)))
		if !stream.Equivalent(op.OutType(), out, want) {
			t.Fatalf("pre-combined output %s, want %s", stream.Render(out), stream.Render(want))
		}
		if calls.merges == 0 || withFold && calls.folds == 0 {
			t.Fatalf("fold %v: hooks not used: %+v", withFold, calls)
		}
	}
}

// TestEvalRunsThePureForm: the sequential denotation never calls the
// in-place hooks — it is the specification the in-place execution is
// held to — while the deployed evaluator runs them and must agree.
func TestEvalRunsThePureForm(t *testing.T) {
	var calls inPlaceCalls
	d := NewDAG()
	src := d.Source("src", stream.U("Int", "Int"))
	flt := d.Op(evenFilter(), 2, src)
	d.Sink("out", d.Op(distinctPerKey(&calls, true), 3, flt))

	in := map[string][]stream.Event{"src": randomBlocks(7, 5, 30)}
	want, err := d.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if calls != (inPlaceCalls{}) {
		t.Fatalf("Eval called the in-place hooks: %+v", calls)
	}
	got, err := d.EvalDeployed(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls.folds == 0 {
		t.Fatal("EvalDeployed never called Fold")
	}
	if err := d.EquivalentOutputs(got, want); err != nil {
		t.Fatal(err)
	}
}
