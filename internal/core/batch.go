package core

import (
	"fmt"

	"datatrace/internal/stream"
)

// This file is the batch-at-a-time (columnar) surface of the operator
// templates. An operator that declares concrete column kinds lets the
// compiler select the typed struct-of-arrays transport for its edges,
// and its instances process whole column batches in one call —
// turning per-event virtual dispatch and interface boxing into tight
// loops over typed slices.
//
// Markers never appear in column batches. A template whose output is
// typed (Stateless, Sort, KeyedOrdered, KeyedUnordered) also runs its
// marker step on the batch surface (ColMarker): the rows it emits at a
// marker land in a batch of its output kind, which the runtime sends as
// the batch the marker closes. KeyedUnordered emits only there
// (MarkerDriven), so the compiler keeps its boxed marker step (Next)
// for a bolt whose consumers do not read the kind typed.
// SlidingAggregate takes markers through Next and emits boxed. Either
// way a batch denotes a fragment of one block's items, and processing
// it row by row is exactly the per-event semantics — the equivalence
// the differential tests check.

// ColOperator is implemented by operators whose instances can consume
// (and possibly produce) typed column batches. A nil kind means "no
// columnar interface on that side": the compiler then keeps the boxed
// transport for the corresponding edges.
type ColOperator interface {
	Operator
	// InColKind is the kind of batch instances accept, nil when the
	// operator (in its current configuration) cannot consume batches.
	InColKind() *stream.ColKind
	// OutColKind is the kind of batch instances produce, nil when the
	// operator emits only boxed events (SlidingAggregate's marker
	// output).
	OutColKind() *stream.ColKind
}

// BatchInstance is the instance-side counterpart of ColOperator.
type BatchInstance interface {
	Instance
	InColKind() *stream.ColKind
	OutColKind() *stream.ColKind
	// ProcessCols consumes every row of in, appending any output rows
	// to out. out is non-nil when OutColKind is, except for a
	// MarkerDriven operator, which emits nothing here; in is never
	// nil. The implementation must not retain in, out or their column
	// slices past the call — both batches belong to recycled arenas
	// (dttlint rule DTT007 enforces this).
	ProcessCols(in, out stream.Columns)
}

// ColMarker is implemented by batch instances whose marker step emits
// typed rows. ProcessMarker runs the step Next runs for marker m,
// appending the rows it emits to out, a batch of OutColKind — or, when
// out is nil, handing them to the output a fused chain bound (see
// ColChain) — and does not forward m: the caller sends m behind out.
type ColMarker interface {
	ProcessMarker(m stream.Marker, out stream.Columns)
}

// MarkerDriven is implemented by operators whose output rows all come
// from the marker step, which runs typed (ColMarker) or boxed (Next) to
// the same rows. The compiler sends such an output typed only to a
// consumer that reads its kind typed.
type MarkerDriven interface{ MarkerDriven() }

// ColChain is implemented by batch instances whose per-row work can be
// composed by typed closure chaining: the fusion pass binds each
// stage's output closure to the next stage's per-row entry point, so a
// fused chain processes a column batch in ONE loop — no intermediate
// batches, no per-stage passes, no per-row dispatch. The any-typed
// closures are asserted back to their concrete func(K, V) form once at
// bind time (per topology), never per row. A stage that holds rows
// until a marker (Sort) passes them on in its ProcessMarker.
type ColChain interface {
	// RowEmit returns the instance's typed per-row entry point as a
	// func(K, V) boxed in any. The closure tallies every row delivered
	// to it; TakeRows drains the tally.
	RowEmit() any
	// BindRowOut redirects the instance's columnar output to out, a
	// func(L, W) boxed in any — normally the next stage's RowEmit.
	// Reports whether out has the instance's output row type; a false
	// return leaves the instance unchanged.
	BindRowOut(out any) bool
	// SetOutBatch points the instance's output at a concrete batch for
	// the duration of one fused call (used on the chain's tail); nil
	// drops the reference, since the batch belongs to a recycled arena.
	SetOutBatch(oc stream.Columns)
	// TakeRows returns and resets the number of rows RowEmit received
	// since the last call — the chained form of per-stage delivery
	// counts.
	TakeRows() int64
}

// rowSink is a batch instance's columnar output of (L, W) rows: colOut
// appends to the current output batch, or, bound by fusion, calls the
// next stage's per-row entry. It implements ColChain's output half;
// rows tallies RowEmit deliveries.
type rowSink[L, W any] struct {
	curOut *stream.Cols[L, W]
	colOut Emit[L, W]
	rows   int64
}

// begin points the output at oc for one call, unless oc is nil (a
// chained stage: the bound output, or the batch SetOutBatch parked).
func (o *rowSink[L, W]) begin(oc stream.Columns) {
	if oc != nil {
		o.curOut = oc.(*stream.Cols[L, W])
	}
	o.ensureColOut()
}

// end drops the batch begin parked.
func (o *rowSink[L, W]) end(oc stream.Columns) {
	if oc != nil {
		o.curOut = nil
	}
}

// ensureColOut installs the default columnar output closure — append
// to the current output batch — unless BindRowOut already redirected
// the output into the next fused stage.
func (o *rowSink[L, W]) ensureColOut() {
	if o.colOut == nil {
		o.colOut = func(key L, value W) { o.curOut.Append(key, value) }
	}
}

// BindRowOut implements ColChain.
func (o *rowSink[L, W]) BindRowOut(out any) bool {
	f, ok := out.(func(key L, value W))
	if ok {
		o.colOut = f
	}
	return ok
}

// SetOutBatch implements ColChain.
func (o *rowSink[L, W]) SetOutBatch(oc stream.Columns) {
	if oc == nil {
		o.curOut = nil
		return
	}
	o.begin(oc)
}

// TakeRows implements ColChain.
func (o *rowSink[L, W]) TakeRows() int64 {
	r := o.rows
	o.rows = 0
	return r
}

// ---------------------------------------------------------------------------
// Stateless: full columnar in and out.
// ---------------------------------------------------------------------------

// InColKind implements ColOperator.
func (s *Stateless[K, V, L, W]) InColKind() *stream.ColKind { return stream.ColKindFor[K, V]() }

// OutColKind implements ColOperator.
func (s *Stateless[K, V, L, W]) OutColKind() *stream.ColKind { return stream.ColKindFor[L, W]() }

// InColKind implements BatchInstance.
func (in *statelessInstance[K, V, L, W]) InColKind() *stream.ColKind {
	return stream.ColKindFor[K, V]()
}

// OutColKind implements BatchInstance.
func (in *statelessInstance[K, V, L, W]) OutColKind() *stream.ColKind {
	return stream.ColKindFor[L, W]()
}

// ProcessCols implements BatchInstance: OnItem over typed columns,
// with a single per-instance emit closure appending to the current
// output batch. A nil oc means the instance heads a closure-chained
// fusion (see ColChain): its colOut was bound to the next stage's
// per-row entry, so the loop below IS the whole chain's loop.
func (in *statelessInstance[K, V, L, W]) ProcessCols(ic, oc stream.Columns) {
	tin := ic.(*stream.Cols[K, V])
	if oc != nil {
		in.curOut = oc.(*stream.Cols[L, W])
	}
	in.ensureColOut()
	onItem := in.op.OnItem
	out := in.colOut
	keys, vals := tin.Keys, tin.Vals
	for i := range keys {
		onItem(out, keys[i], vals[i])
	}
	in.curOut = nil
}

// ProcessMarker implements ColMarker.
func (in *statelessInstance[K, V, L, W]) ProcessMarker(m stream.Marker, oc stream.Columns) {
	if in.op.OnMarker != nil {
		in.begin(oc)
		in.op.OnMarker(in.colOut, m)
		in.end(oc)
	}
}

// RowEmit implements ColChain. The closure reads in.colOut through
// the receiver on every row, so binding THIS instance's output later
// keeps the chain composing transitively.
func (in *statelessInstance[K, V, L, W]) RowEmit() any {
	in.ensureColOut()
	return func(key K, value V) {
		in.rows++
		in.op.OnItem(in.colOut, key, value)
	}
}

// ---------------------------------------------------------------------------
// Sort and KeyedOrdered: columnar in and out. Per-key order is row
// order, within a batch and across a channel's batches, which routing
// and the merger preserve; Sort's output is its marker step's.
// ---------------------------------------------------------------------------

// InColKind implements ColOperator.
func (s *Sort[K, V]) InColKind() *stream.ColKind { return stream.ColKindFor[K, V]() }

// OutColKind implements ColOperator.
func (s *Sort[K, V]) OutColKind() *stream.ColKind { return stream.ColKindFor[K, V]() }

// InColKind implements BatchInstance.
func (in *sortInstance[K, V]) InColKind() *stream.ColKind { return stream.ColKindFor[K, V]() }

// OutColKind implements BatchInstance.
func (in *sortInstance[K, V]) OutColKind() *stream.ColKind { return stream.ColKindFor[K, V]() }

// ProcessCols implements BatchInstance: buffer every row under its key.
// Nothing is emitted before the marker.
func (in *sortInstance[K, V]) ProcessCols(ic, _ stream.Columns) {
	tin := ic.(*stream.Cols[K, V])
	for i, key := range tin.Keys {
		in.add(key, tin.Vals[i])
	}
}

// ProcessMarker implements ColMarker: the sorted block.
func (in *sortInstance[K, V]) ProcessMarker(_ stream.Marker, oc stream.Columns) {
	in.begin(oc)
	in.flush(in.colOut)
	in.end(oc)
}

// RowEmit implements ColChain.
func (in *sortInstance[K, V]) RowEmit() any {
	return func(key K, v V) {
		in.rows++
		in.add(key, v)
	}
}

// InColKind implements ColOperator.
func (o *KeyedOrdered[K, V, W, S]) InColKind() *stream.ColKind { return stream.ColKindFor[K, V]() }

// OutColKind implements ColOperator.
func (o *KeyedOrdered[K, V, W, S]) OutColKind() *stream.ColKind { return stream.ColKindFor[K, W]() }

// InColKind implements BatchInstance.
func (in *keyedOrderedInstance[K, V, W, S]) InColKind() *stream.ColKind {
	return stream.ColKindFor[K, V]()
}

// OutColKind implements BatchInstance.
func (in *keyedOrderedInstance[K, V, W, S]) OutColKind() *stream.ColKind {
	return stream.ColKindFor[K, W]()
}

// begin parks oc and builds the key-preserving columnar emit once.
func (in *keyedOrderedInstance[K, V, W, S]) begin(oc stream.Columns) {
	in.rowSink.begin(oc)
	if in.wOut == nil {
		in.wOut = func(w W) { in.colOut(in.curKey, w) }
	}
}

// ProcessCols implements BatchInstance: OnItem over typed columns in
// row order.
func (in *keyedOrderedInstance[K, V, W, S]) ProcessCols(ic, oc stream.Columns) {
	tin := ic.(*stream.Cols[K, V])
	if oc != nil {
		in.curOut = oc.(*stream.Cols[K, W])
	}
	in.begin(nil)
	for i, key := range tin.Keys {
		in.item(key, tin.Vals[i], in.wOut)
	}
	in.curOut = nil
}

// ProcessMarker implements ColMarker: OnMarker for every live key.
func (in *keyedOrderedInstance[K, V, W, S]) ProcessMarker(m stream.Marker, oc stream.Columns) {
	in.begin(oc)
	in.marker(m, in.wOut)
	in.end(oc)
}

// RowEmit implements ColChain.
func (in *keyedOrderedInstance[K, V, W, S]) RowEmit() any {
	in.begin(nil)
	return func(key K, v V) {
		in.rows++
		in.item(key, v, in.wOut)
	}
}

// ---------------------------------------------------------------------------
// KeyedUnordered: columnar in (items only fold into per-key
// aggregates) and out, where the output happens at markers only: the
// marker step is Next's, emitting into the rowSink.
// ---------------------------------------------------------------------------

// InColKind implements ColOperator. A non-nil OnItem observes (and may
// emit on) individual arrivals, which needs the boxed per-event path;
// the operator then declines batches, exactly as it declines the
// combiner pass.
func (o *KeyedUnordered[K, V, L, W, S, A]) InColKind() *stream.ColKind {
	if o.OnItem != nil {
		return nil
	}
	return stream.ColKindFor[K, V]()
}

// OutColKind implements ColOperator.
func (o *KeyedUnordered[K, V, L, W, S, A]) OutColKind() *stream.ColKind {
	return stream.ColKindFor[L, W]()
}

// MarkerDriven implements MarkerDriven.
func (o *KeyedUnordered[K, V, L, W, S, A]) MarkerDriven() {}

// InColKind implements BatchInstance.
func (in *keyedUnorderedInstance[K, V, L, W, S, A]) InColKind() *stream.ColKind {
	return in.op.InColKind()
}

// OutColKind implements BatchInstance.
func (in *keyedUnorderedInstance[K, V, L, W, S, A]) OutColKind() *stream.ColKind {
	return in.op.OutColKind()
}

// ProcessCols implements BatchInstance: the Table 3 item step —
// fold into the per-key aggregate — over typed columns.
func (in *keyedUnorderedInstance[K, V, L, W, S, A]) ProcessCols(ic, _ stream.Columns) {
	op := in.op
	if op.OnItem != nil {
		panic(fmt.Sprintf("%s: ProcessCols on a keyed-unordered operator with OnItem", op.OpName))
	}
	tin := ic.(*stream.Cols[K, V])
	for i, key := range tin.Keys {
		op.fold(&in.row(key).Agg, key, tin.Vals[i])
	}
}

// ProcessMarker implements ColMarker.
func (in *keyedUnorderedInstance[K, V, L, W, S, A]) ProcessMarker(m stream.Marker, oc stream.Columns) {
	in.begin(oc)
	in.marker(m, in.colOut)
	in.end(oc)
}

// ---------------------------------------------------------------------------
// SlidingAggregate: columnar in, boxed (marker-driven) out.
// ---------------------------------------------------------------------------

// InColKind implements ColOperator.
func (o *SlidingAggregate[K, V, A]) InColKind() *stream.ColKind { return stream.ColKindFor[K, V]() }

// OutColKind implements ColOperator.
func (o *SlidingAggregate[K, V, A]) OutColKind() *stream.ColKind { return nil }

// InColKind implements BatchInstance.
func (in *slidingInstance[K, V, A]) InColKind() *stream.ColKind { return stream.ColKindFor[K, V]() }

// OutColKind implements BatchInstance.
func (in *slidingInstance[K, V, A]) OutColKind() *stream.ColKind { return nil }

// ProcessCols implements BatchInstance: the current-block fold over
// typed columns.
func (in *slidingInstance[K, V, A]) ProcessCols(ic, _ stream.Columns) {
	tin := ic.(*stream.Cols[K, V])
	for i, key := range tin.Keys {
		in.fold(key, tin.Vals[i])
	}
}

// ---------------------------------------------------------------------------
// Typed sender-side combining.
// ---------------------------------------------------------------------------

// ColCombinable is implemented by operators that admit *typed*
// sender-side pre-aggregation: the columnar counterpart of Combinable.
// The compiler prefers it — the fold runs over typed rows with no
// boxing — and builds a universal-kind combiner from CombinerMonoid for
// an operator that is Combinable only.
type ColCombinable interface {
	Combinable
	// ColCombiner returns the output kind the buffer drains (the
	// pre-combined (K,A) rows the PreCombined operator consumes) and a
	// factory for per-destination buffers, which fold the operator's raw
	// (K,V) rows without boxing. ok is false under exactly the conditions
	// CombinerMonoid declines.
	ColCombiner() (out *stream.ColKind, mk func() stream.ColCombiner, ok bool)
}

// ColCombiner implements ColCombinable.
func (o *KeyedUnordered[K, V, L, W, S, A]) ColCombiner() (*stream.ColKind, func() stream.ColCombiner, bool) {
	if o.OnItem != nil {
		return nil, nil, false
	}
	var fold func(*A, K, V)
	if o.MergeInto != nil || o.Fold != nil {
		fold = o.fold
	}
	return colCombinerKinds(o.In, o.ID, o.Combine, fold)
}

// ColCombiner implements ColCombinable.
func (o *SlidingAggregate[K, V, A]) ColCombiner() (*stream.ColKind, func() stream.ColCombiner, bool) {
	return colCombinerKinds(o.In, o.ID, o.Combine, nil)
}

// colCombinerKinds is ColCombiner's answer for a monoid: the
// pre-combined kind and a factory of buffers folding through it.
func colCombinerKinds[K comparable, V, A any](in func(K, V) A, id func() A, combine func(A, A) A, fold func(*A, K, V)) (*stream.ColKind, func() stream.ColCombiner, bool) {
	mk := func() stream.ColCombiner {
		return &colCombiner[K, V, A]{in: in, id: id, combine: combine, fold: fold}
	}
	return stream.ColKindFor[K, A](), mk, true
}

// colCombiner is the typed per-destination combining buffer: a keyed
// store of partial aggregates, so drains are deterministic for a
// deterministic input order. With an in-place fold a buffered aggregate
// is the buffer's own from its first row — it starts as id(), not
// in(k, v) — until Drain hands it to the batch.
type colCombiner[K comparable, V, A any] struct {
	in      func(K, V) A
	id      func() A
	combine func(A, A) A
	fold    func(*A, K, V) // nil: the pure form
	keyed[K, A]
	ins int
}

func (c *colCombiner[K, V, A]) add(k K, v V) {
	c.ins++
	i, born := c.slot(k)
	switch {
	case c.fold != nil:
		if born {
			c.recs[i] = c.id()
		}
		c.fold(&c.recs[i], k, v)
	case born:
		c.recs[i] = c.in(k, v)
	default:
		c.recs[i] = c.combine(c.recs[i], c.in(k, v))
	}
}

// Fold implements stream.ColCombiner.
func (c *colCombiner[K, V, A]) Fold(in stream.Columns, rows []int32, capacity int) (m int, ok bool) {
	tc, ok := in.(*stream.Cols[K, V])
	for ; ok && m < len(rows) && len(c.keys) < capacity; m++ {
		c.add(tc.Keys[rows[m]], tc.Vals[rows[m]])
	}
	return m, ok
}

// FoldEvent implements stream.ColCombiner.
func (c *colCombiner[K, V, A]) FoldEvent(e stream.Event) {
	c.add(e.Key.(K), e.Value.(V))
}

// Drain implements stream.ColCombiner. The drained aggregates belong
// to the batch from here on; the buffer keeps no reference to them.
func (c *colCombiner[K, V, A]) Drain(out stream.Columns) (int, int) {
	tc := out.(*stream.Cols[K, A])
	tc.Keys = append(tc.Keys, c.keys...)
	tc.Vals = append(tc.Vals, c.recs...)
	ins, outs := c.ins, len(c.keys)
	c.reset()
	c.ins = 0
	return ins, outs
}

// Len implements stream.ColCombiner.
func (c *colCombiner[K, V, A]) Len() int { return len(c.keys) }
