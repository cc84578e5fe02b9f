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
	in := &slidingInstance[K, V, A]{op: o}
	in.template, in.flat = "sliding", in.windowRecs
	return in
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
// aggregates (cum = fold of everything pushed up to this entry). The
// stacks live by value in a key's window; the aggregator binds them to
// the operator's monoid for the duration of one use.
type fifoAgg[A any] struct {
	id      func() A
	combine func(x, y A) A
	*fifoStacks[A]
}

// fifoStacks are a two-stacks FIFO's entries.
type fifoStacks[A any] struct{ front, back []fifoEntry[A] }

func newFifoAgg[A any](id func() A, combine func(x, y A) A) *fifoAgg[A] {
	return &fifoAgg[A]{id, combine, new(fifoStacks[A])}
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

// keyWindow is a key's record: the open block's aggregate and the
// window's FIFO.
type keyWindow[A any] struct {
	windowHead[A]
	fifo fifoStacks[A]
}

// windowHead is the open block: its aggregate, and whether any item
// fell in it. Exported fields, so a head without a wire layout takes
// the gob fallback.
type windowHead[A any] struct {
	Cur   A
	Dirty bool
}

// windowEntry is one live window entry as a snapshot writes it.
type windowEntry[A any] struct {
	Idx int64
	Val A
}

// slidingInstance's scalar is the block index: the number of markers
// seen.
type slidingInstance[K comparable, V, A any] struct {
	op *SlidingAggregate[K, V, A]
	keyedState[K, keyWindow[A], int64]
}

// fifo binds w's stacks to the operator's monoid.
func (in *slidingInstance[K, V, A]) fifo(w *keyWindow[A]) fifoAgg[A] {
	return fifoAgg[A]{in.op.ID, in.op.Combine, &w.fifo}
}

// windowRecs writes the windows ragged: the open block as the head,
// the live entries as the values.
func (in *slidingInstance[K, V, A]) windowRecs(d *codecDesc) recCodec[keyWindow[A]] {
	return newRaggedRecs(d, appendEntries[A], func(h windowHead[A], vals []windowEntry[A]) keyWindow[A] {
		w := keyWindow[A]{windowHead: h}
		f := in.fifo(&w)
		for _, e := range vals {
			f.Push(e.Idx, e.Val)
		}
		return w
	})
}

// appendEntries appends w's live entries in FIFO order — front stack
// top-down, then back stack bottom-up — and returns its head.
func appendEntries[A any](w *keyWindow[A], vals []windowEntry[A]) (windowHead[A], []windowEntry[A]) {
	for j := len(w.fifo.front) - 1; j >= 0; j-- {
		vals = append(vals, windowEntry[A]{w.fifo.front[j].idx, w.fifo.front[j].val})
	}
	for _, e := range w.fifo.back {
		vals = append(vals, windowEntry[A]{e.idx, e.val})
	}
	return w.windowHead, vals
}

func (in *slidingInstance[K, V, A]) Next(e stream.Event, emit func(stream.Event)) {
	if e.IsMarker {
		block := in.scalar
		minIdx := block - int64(in.op.WindowBlocks) + 1
		for i, key := range in.keys {
			w := &in.recs[i]
			f := in.fifo(w)
			if w.Dirty {
				f.Push(block, w.Cur)
				w.Cur, w.Dirty = in.op.ID(), false
			}
			f.EvictBefore(minIdx)
			if f.Len() == 0 && !in.op.EmitEmpty {
				continue
			}
			emit(stream.Item(key, f.Query()))
		}
		in.scalar++
		emit(e)
		return
	}
	in.fold(castKey[K](in.op.OpName, e.Key), castVal[V](in.op.OpName, e.Value))
}

// fold absorbs one item into key's open block.
func (in *slidingInstance[K, V, A]) fold(key K, v V) {
	i, born := in.slot(key)
	w := &in.recs[i]
	if born {
		w.Cur = in.op.ID()
	}
	w.Cur = in.op.Combine(w.Cur, in.op.In(key, v))
	w.Dirty = true
}
