package dtt008

import (
	"datatrace/internal/core"
	"datatrace/internal/stream"
)

// OkSum is the canonical commutative monoid.
func OkSum() core.Operator {
	return &core.KeyedUnordered[string, int64, string, int64, int64, int64]{
		OpName:       "ok-sum",
		InT:          stream.U("K", "Long"),
		OutT:         stream.U("K", "Long"),
		In:           func(_ string, v int64) int64 { return v },
		ID:           func() int64 { return 0 },
		Combine:      func(x, y int64) int64 { return x + y },
		InitialState: func() int64 { return 0 },
		// Subtraction in UpdateState is out of scope: it runs once per
		// key per marker, in marker order, which is deterministic.
		UpdateState: func(old, agg int64) int64 { return old - agg },
	}
}

type avg struct{ Sum, Count float64 }

// OkOwnFields divides one aggregate's own fields — no mixing of the
// two combined values, so order cannot matter.
func OkOwnFields() core.Operator {
	return &core.KeyedUnordered[string, float64, string, float64, avg, avg]{
		OpName: "ok-avg",
		InT:    stream.U("K", "Double"),
		OutT:   stream.U("K", "Double"),
		In:     func(_ string, v float64) avg { return avg{Sum: v, Count: 1} },
		ID:     func() avg { return avg{} },
		Combine: func(x, y avg) avg {
			if x.Count > 0 {
				_ = x.Sum / x.Count // one side's own fields: commutative merge
			}
			return avg{Sum: x.Sum + y.Sum, Count: x.Count + y.Count}
		},
		InitialState: func() avg { return avg{} },
		UpdateState:  func(_, agg avg) avg { return agg },
	}
}

// OkInPlace is the in-place form of a sum of negated items: MergeInto
// adds the borrowed partial, and Fold subtracts the item from the owned
// accumulator — In = -v folded in, order-insensitive.
func OkInPlace() core.Operator {
	return &core.KeyedUnordered[string, int64, string, int64, int64, int64]{
		OpName:       "ok-in-place",
		InT:          stream.U("K", "Long"),
		OutT:         stream.U("K", "Long"),
		In:           func(_ string, v int64) int64 { return -v },
		ID:           func() int64 { return 0 },
		Combine:      func(x, y int64) int64 { return x + y },
		MergeInto:    func(dst *int64, src int64) { *dst += src },
		Fold:         func(acc *int64, _ string, v int64) { *acc -= v },
		InitialState: func() int64 { return 0 },
		UpdateState:  func(old, agg int64) int64 { return old + agg },
	}
}

// OkWaivedMerge mirrors the dsl join: list order is unobservable when
// the output type quotients blocks to multisets, so the append-merge
// carries a reasoned waiver.
func OkWaivedMerge() core.Operator {
	return &core.SlidingAggregate[string, int64, []int64]{
		OpName:       "ok-waived",
		InT:          stream.U("K", "Long"),
		OutT:         stream.U("K", "Long"),
		WindowBlocks: 2,
		In:           func(_ string, v int64) []int64 { return []int64{v} },
		ID:           func() []int64 { return nil },
		Combine: func(x, y []int64) []int64 {
			//lint:ignore DTT008 fixture: downstream output type quotients the window to a multiset, so merge order is unobservable
			return append(append([]int64(nil), x...), y...)
		},
	}
}
