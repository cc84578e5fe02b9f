// Package dtt008 exercises DTT008: non-commutative Combine callbacks
// in unordered contexts. Replicated instances merge partial
// aggregates in scheduler order, so Combine(x, y) must equal
// Combine(y, x).
package dtt008

import (
	"datatrace/internal/core"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// BadSub subtracts one partial aggregate from the other: the merged
// value depends on which replica's partial arrives first.
func BadSub() core.Operator {
	return &core.KeyedUnordered[string, int64, string, int64, int64, int64]{
		OpName:       "bad-sub",
		InT:          stream.U("K", "Long"),
		OutT:         stream.U("K", "Long"),
		In:           func(_ string, v int64) int64 { return v },
		ID:           func() int64 { return 0 },
		Combine:      func(x, y int64) int64 { return x - y }, // want DTT008
		InitialState: func() int64 { return 0 },
		UpdateState:  func(old, agg int64) int64 { return old + agg },
	}
}

// BadAppend merges windowed lists by appending one side onto the
// other: the merged slice order encodes merge order.
func BadAppend() core.Operator {
	return &core.SlidingAggregate[string, int64, []int64]{
		OpName:       "bad-append",
		InT:          stream.U("K", "Long"),
		OutT:         stream.U("K", "Long"),
		WindowBlocks: 2,
		In:           func(_ string, v int64) []int64 { return []int64{v} },
		ID:           func() []int64 { return nil },
		Combine:      func(x, y []int64) []int64 { return append(x, y...) }, // want DTT008
	}
}

// BadInPlace pairs a commutative Combine with in-place hooks that are
// not: MergeInto subtracts the borrowed partial, and Fold appends each
// item, so the aggregate records arrival order.
func BadInPlace() core.Operator {
	return &core.KeyedUnordered[string, int64, string, int64, int64, []int64]{
		OpName: "bad-in-place",
		InT:    stream.U("K", "Long"),
		OutT:   stream.U("K", "Long"),
		In:     func(_ string, v int64) []int64 { return []int64{v} },
		ID:     func() []int64 { return nil },
		Combine: func(x, y []int64) []int64 {
			//lint:ignore DTT008 fixture: the pure form is not what this case exercises
			return append(append([]int64(nil), x...), y...)
		},
		MergeInto: func(dst *[]int64, src []int64) {
			(*dst)[0] -= src[0] // want DTT008
		},
		Fold: func(acc *[]int64, _ string, v int64) {
			*acc = append(*acc, v) // want DTT008
		},
		InitialState: func() int64 { return 0 },
		UpdateState:  func(old int64, agg []int64) int64 { return old + int64(len(agg)) },
	}
}

// ratio divides its first argument by its second — order-dependent,
// but invisible at the Combine call site without the summary engine.
func ratio(a, b float64) float64 { return a / b }

// BadRatio reaches the division through a helper.
func BadRatio() core.Operator {
	return &core.KeyedUnordered[string, float64, string, float64, float64, float64]{
		OpName:       "bad-ratio",
		InT:          stream.U("K", "Double"),
		OutT:         stream.U("K", "Double"),
		In:           func(_ string, v float64) float64 { return v },
		ID:           func() float64 { return 1 },
		Combine:      func(x, y float64) float64 { return ratio(x, y) }, // want DTT008
		InitialState: func() float64 { return 0 },
		UpdateState:  func(old, agg float64) float64 { return old + agg },
	}
}

// BadConcat concatenates per-event strings in a pre-shuffle combiner:
// the combined string depends on arrival order.
var BadConcat = storm.CombinerSpec{
	In:      func(_, value any) any { return value },
	Combine: func(x, y any) any { return x.(string) + y.(string) }, // want DTT008
	Cap:     64,
}
