package core

import (
	"fmt"
	"math/rand"
	"testing"

	"datatrace/internal/stream"
)

// This file checks KeyedUnordered's typed marker step against its boxed
// one: ProcessCols plus ProcessMarker must emit, block by block, exactly
// what Next emits.

// unorderedOps are the keyed-unordered operators under differential
// test: one without OnMarker, one that skips keys at markers and re-keys
// the rows it emits (Query VI's Features does both), and the set-union
// monoid with its in-place hooks, MergeInto alone and with Fold.
func unorderedOps() []Operator {
	sum := func() *KeyedUnordered[int, int, int, int, int, int] {
		return &KeyedUnordered[int, int, int, int, int, int]{
			OpName:       "sum",
			InT:          stream.U("Int", "Int"),
			OutT:         stream.U("Int", "Int"),
			In:           func(_, v int) int { return v },
			ID:           func() int { return 0 },
			Combine:      func(x, y int) int { return x + y },
			InitialState: func() int { return 0 },
			UpdateState:  func(old, agg int) int { return old + agg },
		}
	}
	silent := sum()
	silent.OpName = "silent"
	skipping := sum()
	skipping.OpName = "skipping"
	skipping.OnMarker = func(emit Emit[int, int], st, key int, m stream.Marker) {
		if st%3 == 0 {
			return
		}
		emit(st%5, key*1000+int(m.Seq))
	}
	var calls inPlaceCalls
	return []Operator{silent, skipping, distinctPerKey(&calls, false), distinctPerKey(&calls, true)}
}

// TestKeyedUnorderedTypedMatchesBoxed is the typed-vs-boxed differential
// for KeyedUnordered, straight through and across a checkpoint taken
// mid-block and restored into a fresh instance.
func TestKeyedUnorderedTypedMatchesBoxed(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i, op := range unorderedOps() {
		for trial := 0; trial < 30; trial++ {
			in := orderedStream(r, 20+r.Intn(200))
			want := RunInstance(op, in)
			name := fmt.Sprintf("%s#%d trial %d", op.Name(), i, trial)
			sameBlocks(t, name, runTyped(t, op, in, r, -1), want)
			at := r.Intn(len(in))
			sameBlocks(t, fmt.Sprintf("%s restored at %d", name, at), runTyped(t, op, in, r, at), want)
		}
	}
}

// FuzzKeyedUnorderedTypedMatchesBoxed is the differential on arbitrary
// inputs: the first byte picks the operator, the second the checkpoint
// position, and each further byte is a marker (a multiple of 9) or an
// item on one of four keys.
func FuzzKeyedUnorderedTypedMatchesBoxed(f *testing.F) {
	f.Add([]byte{1, 4, 10, 11, 9, 12, 13, 14, 0, 15})
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 255})
	ops := unorderedOps()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		op, snapAt := ops[int(data[0])%len(ops)], int(data[1])
		var in []stream.Event
		seq := int64(0)
		for _, b := range data[2:] {
			if b%9 == 0 {
				in = append(in, stream.Mark(stream.Marker{Seq: seq, Timestamp: 10 * seq}))
				seq++
				continue
			}
			in = append(in, stream.Item(int(b%4), int(b/4)))
		}
		in = append(in, stream.Mark(stream.Marker{Seq: seq, Timestamp: 10 * seq}))
		if snapAt >= len(in) {
			snapAt = -1
		}
		r := rand.New(rand.NewSource(int64(len(data))))
		sameBlocks(t, op.Name(), runTyped(t, op, in, r, snapAt), RunInstance(op, in))
	})
}
