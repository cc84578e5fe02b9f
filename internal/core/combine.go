package core

// This file exposes the commutative-monoid structure of the keyed
// templates to the compiler's shuffle-combiner pass (the classic
// map-side combine / partial-aggregation optimization). An operator
// whose per-block computation factors through In/ID/Combine can have
// partial aggregates formed *before* the fields-grouping shuffle: the
// sender folds its block-local items per key and ships one partial
// aggregate per (key, flush) instead of one message per item. By
// commutativity and associativity of Combine (Theorem 4.2's
// hypothesis) the consumer's per-block aggregate — and therefore the
// output data trace — is unchanged, whatever the split of items
// across senders and flushes.

// inPlace is implemented by KeyedUnordered, whose monoid may also be
// given in place. The pure In, ID and Combine are the specification
// (Table 2 asks Combine to be a monoid operation, nothing about how the
// runtime executes it); the optional MergeInto and Fold hooks are an
// execution of the same monoid that costs what the merged value holds
// instead of what the aggregate holds — folding n items into a
// map-valued aggregate is O(n) in place and O(n²) through a copying
// Combine:
//
//   - MergeInto(&a, b) must leave a equal to Combine(a, b);
//   - Fold(&a, k, v) must leave a equal to Combine(a, In(k, v)). It is
//     optional on top of MergeInto, which folds an item as
//     MergeInto(&a, In(k, v)); Fold spares In's value, which for a
//     map-valued aggregate is an allocation per item.
//
// Ownership is what makes this sound. The runtime passes as dst/acc
// only aggregates it owns: built from a fresh ID() — so ID must return
// a new value per call — by the hooks alone, and reachable from nowhere
// else (an instance's per-key block aggregate, a sender-side combining
// buffer's per-key partial). The hooks may mutate those and everything
// they reference. MergeInto's src is borrowed — In's result, or a
// partial aggregate read from a batch that a recovering executor may
// replay — so MergeInto must neither mutate it nor keep a reference
// into it. Once the runtime hands an aggregate on — to UpdateState at a
// marker, into a drained batch — it never folds into it again; states
// are combined purely. DAG.Eval runs the pure form, so every oracle
// checks the in-place execution; dttlint's DTT008 holds MergeInto to
// Combine's commutativity obligation and Fold to its
// order-insensitivity.
type inPlace interface {
	// pure returns the operator with its in-place hooks removed.
	pure() Operator
}

func (o *KeyedUnordered[K, V, L, W, S, A]) pure() Operator {
	p := *o
	p.MergeInto, p.Fold = nil, nil
	return &p
}

// Combinable is implemented by operators that admit sender-side
// pre-aggregation on their input edge. The compiler consults it when
// the Combiners optimization pass is enabled.
type Combinable interface {
	Operator
	// CombinerMonoid returns the operator's aggregation monoid as
	// untyped functions for the runtime's combining buffers: in injects
	// one key-value pair, combine merges two partial aggregates. ok is
	// false when pre-aggregation would be unsound for this operator
	// value (e.g. a per-item OnItem callback observes individual
	// arrivals) and the pass must leave the edge alone.
	CombinerMonoid() (in func(key, value any) any, combine func(x, y any) any, ok bool)
	// PreCombined returns the operator rewritten to consume the partial
	// aggregates CombinerMonoid produces instead of raw items. It is
	// only called when CombinerMonoid reported ok; the rewritten
	// operator keeps the same name, mode, state machine and marker
	// behavior, so it is a drop-in replacement for the consumer bolt.
	PreCombined() Operator
}

// CombinerMonoid implements Combinable. A non-nil OnItem observes
// individual item arrivals (count, payload and all), which sender-side
// folding would collapse — the pass is declined in that case. In and
// Combine must be pure, as the template contract already requires:
// the runtime may invoke them inside its transactional send path.
func (o *KeyedUnordered[K, V, L, W, S, A]) CombinerMonoid() (func(any, any) any, func(any, any) any, bool) {
	if o.OnItem != nil {
		return nil, nil, false
	}
	in := func(key, value any) any {
		return o.In(castKey[K](o.OpName, key), castVal[V](o.OpName, value))
	}
	combine := func(x, y any) any {
		return o.Combine(castVal[A](o.OpName, x), castVal[A](o.OpName, y))
	}
	return in, combine, true
}

// PreCombined implements Combinable: the same operator over the
// aggregate domain, with In the identity injection. Because Combine
// is associative and commutative, folding partial aggregates yields
// exactly the block aggregate of the underlying items, and
// UpdateState/OnMarker see identical values at every marker.
func (o *KeyedUnordered[K, V, L, W, S, A]) PreCombined() Operator {
	return &KeyedUnordered[K, A, L, W, S, A]{
		OpName:       o.OpName,
		InT:          o.InT,
		OutT:         o.OutT,
		In:           func(_ K, a A) A { return a },
		ID:           o.ID,
		Combine:      o.Combine,
		MergeInto:    o.MergeInto,
		InitialState: o.InitialState,
		UpdateState:  o.UpdateState,
		OnMarker:     o.OnMarker,
	}
}

// CombinerMonoid implements Combinable. SlidingAggregate has no
// per-item callback, so pre-aggregation is always sound.
func (o *SlidingAggregate[K, V, A]) CombinerMonoid() (func(any, any) any, func(any, any) any, bool) {
	in := func(key, value any) any {
		return o.In(castKey[K](o.OpName, key), castVal[V](o.OpName, value))
	}
	combine := func(x, y any) any {
		return o.Combine(castVal[A](o.OpName, x), castVal[A](o.OpName, y))
	}
	return in, combine, true
}

// PreCombined implements Combinable.
func (o *SlidingAggregate[K, V, A]) PreCombined() Operator {
	return &SlidingAggregate[K, A, A]{
		OpName:       o.OpName,
		InT:          o.InT,
		OutT:         o.OutT,
		WindowBlocks: o.WindowBlocks,
		In:           func(_ K, a A) A { return a },
		ID:           o.ID,
		Combine:      o.Combine,
		EmitEmpty:    o.EmitEmpty,
	}
}
