package core

import (
	"fmt"

	"datatrace/internal/stream"
)

// This file implements the specialized sliding-window aggregation
// template the paper's section 8 names as the first candidate for
// extending the template set: "our templates can already express
// sliding-window aggregation, but a specialized template for that
// purpose would relieve the programmer from the burden of
// re-discovering and re-implementing efficient sliding-window
// algorithms". SlidingAggregate is that template: the programmer
// supplies the same commutative monoid as OpKeyedUnordered plus a
// window length in marker periods, and the runner maintains the
// window with a two-stacks FIFO aggregator — O(1) amortized work per
// block instead of the O(W) per-marker recomputation a hand-rolled
// OpKeyedUnordered performs (see BenchmarkSlidingWindow* at the repo
// root for the ablation).

// SlidingAggregate is a typed operator computing, per key, the
// aggregate of the items in the last WindowBlocks marker periods,
// emitted at every marker: transduction U(K,V) → U(K,A).
//
// In, ID and Combine form a commutative monoid, exactly as in
// OpKeyedUnordered; Theorem 4.2's argument applies unchanged, so the
// operator is consistent with its types.
type SlidingAggregate[K comparable, V, A any] struct {
	// OpName names the operator.
	OpName string
	// InT and OutT describe the channel types; both must be unordered.
	InT, OutT stream.Type
	// WindowBlocks is the window length in marker periods (≥ 1).
	WindowBlocks int
	// In injects one key-value pair into the monoid.
	In func(key K, value V) A
	// ID is the monoid identity.
	ID func() A
	// Combine must be associative and commutative.
	Combine func(x, y A) A
	// EmitEmpty also emits for keys whose window holds no items
	// (value ID()); when false, such keys are skipped at the marker.
	EmitEmpty bool
}

// Name implements Operator.
func (o *SlidingAggregate[K, V, A]) Name() string { return o.OpName }

// InType implements Operator.
func (o *SlidingAggregate[K, V, A]) InType() stream.Type { return o.InT }

// OutType implements Operator.
func (o *SlidingAggregate[K, V, A]) OutType() stream.Type { return o.OutT }

// Mode implements Operator.
func (o *SlidingAggregate[K, V, A]) Mode() ParMode { return ParKeyed }

// Validate implements Operator.
func (o *SlidingAggregate[K, V, A]) Validate() error {
	if o.OpName == "" {
		return fmt.Errorf("sliding-aggregate operator needs a name")
	}
	if o.In == nil || o.ID == nil || o.Combine == nil {
		return fmt.Errorf("%s: In, ID and Combine are required", o.OpName)
	}
	if o.WindowBlocks < 1 {
		return fmt.Errorf("%s: WindowBlocks must be ≥ 1, got %d", o.OpName, o.WindowBlocks)
	}
	if o.InT.Kind != stream.Unordered || o.OutT.Kind != stream.Unordered {
		return fmt.Errorf("%s: SlidingAggregate is typed U(K,V) → U(K,A), got %s → %s", o.OpName, o.InT, o.OutT)
	}
	return nil
}

// New implements Operator.
func (o *SlidingAggregate[K, V, A]) New() Instance {
	return &slidingInstance[K, V, A]{op: o, wins: map[K]*keyWindow[A]{}}
}

// fifoEntry is one element of the two-stacks aggregator.
type fifoEntry[A any] struct {
	idx int64 // block index, for eviction
	val A
	cum A // running aggregate (meaning differs per stack)
}

// fifoAgg is the classic two-stacks FIFO aggregator: push and evict
// are O(1) amortized and Query is O(1), for any associative monoid.
// The front stack stores suffix aggregates (cum = fold of this entry
// and everything popped after it); the back stack stores prefix
// aggregates (cum = fold of everything pushed up to this entry).
type fifoAgg[A any] struct {
	id      func() A
	combine func(x, y A) A
	front   []fifoEntry[A]
	back    []fifoEntry[A]
}

func newFifoAgg[A any](id func() A, combine func(x, y A) A) *fifoAgg[A] {
	return &fifoAgg[A]{id: id, combine: combine}
}

// Push appends a block aggregate with its block index.
func (f *fifoAgg[A]) Push(idx int64, val A) {
	cum := val
	if n := len(f.back); n > 0 {
		cum = f.combine(f.back[n-1].cum, val)
	}
	f.back = append(f.back, fifoEntry[A]{idx: idx, val: val, cum: cum})
}

// EvictBefore removes all entries with block index < minIdx.
func (f *fifoAgg[A]) EvictBefore(minIdx int64) {
	for {
		if len(f.front) == 0 {
			f.flip()
		}
		if len(f.front) == 0 {
			return
		}
		if f.front[len(f.front)-1].idx >= minIdx {
			return
		}
		f.front = f.front[:len(f.front)-1]
	}
}

// flip moves the back stack into the front stack, converting prefix
// aggregates into suffix aggregates.
func (f *fifoAgg[A]) flip() {
	if len(f.back) == 0 {
		return
	}
	cum := f.id()
	for i := len(f.back) - 1; i >= 0; i-- {
		cum = f.combine(f.back[i].val, cum)
		f.front = append(f.front, fifoEntry[A]{idx: f.back[i].idx, val: f.back[i].val, cum: cum})
	}
	f.back = f.back[:0]
}

// Query returns the aggregate of all live entries.
func (f *fifoAgg[A]) Query() A {
	agg := f.id()
	if n := len(f.front); n > 0 {
		agg = f.front[n-1].cum
	}
	if n := len(f.back); n > 0 {
		agg = f.combine(agg, f.back[n-1].cum)
	}
	return agg
}

// Len returns the number of live entries.
func (f *fifoAgg[A]) Len() int { return len(f.front) + len(f.back) }

type keyWindow[A any] struct {
	cur   A
	dirty bool // any item in the current block
	fifo  *fifoAgg[A]
}

type slidingInstance[K comparable, V, A any] struct {
	op       *SlidingAggregate[K, V, A]
	wins     map[K]*keyWindow[A]
	keys     []K
	blockIdx int64
	codec    *slidingCodec[K, A] // built at the first snapshot or restore
}

func (in *slidingInstance[K, V, A]) Next(e stream.Event, emit func(stream.Event)) {
	if e.IsMarker {
		minIdx := in.blockIdx - int64(in.op.WindowBlocks) + 1
		for _, key := range in.keys {
			w := in.wins[key]
			if w.dirty {
				w.fifo.Push(in.blockIdx, w.cur)
				w.cur, w.dirty = in.op.ID(), false
			}
			w.fifo.EvictBefore(minIdx)
			if w.fifo.Len() == 0 && !in.op.EmitEmpty {
				continue
			}
			emit(stream.Item(key, w.fifo.Query()))
		}
		in.blockIdx++
		emit(e)
		return
	}
	key := castKey[K](in.op.OpName, e.Key)
	w, ok := in.wins[key]
	if !ok {
		w = &keyWindow[A]{cur: in.op.ID(), fifo: newFifoAgg(in.op.ID, in.op.Combine)}
		in.wins[key] = w
		in.keys = append(in.keys, key)
	}
	w.cur = in.op.Combine(w.cur, in.op.In(key, castVal[V](in.op.OpName, e.Value)))
	w.dirty = true
}
