package storm

import (
	"fmt"

	"datatrace/internal/stream"
)

// This file implements sender-side combining (map-side combine /
// partial aggregation) for fields-grouping edges whose consumer
// aggregates through a commutative monoid. Instead of one row per item,
// the emitter folds its block-local rows per (destination instance,
// key) through a stream.ColCombiner and ships one partial aggregate per
// (key, drain). Because the monoid is associative and commutative, the
// consumer — rewritten by the compiler to fold partial aggregates —
// computes the same per-block aggregate whatever the split of items
// across senders and drains, so the output data trace is unchanged.
//
// There is one mechanism, configured by a ColCombinerSpec: a typed
// combiner folds rows of its input kind without boxing and drains rows
// of its output kind; CombineWith's untyped In/Combine monoid is the
// same thing over the universal kind (stream.NewAnyCombiner).
//
// Discipline (mirrors the transport's flush triggers, one layer up):
//
//   - cap: a combining buffer reaching Cap distinct keys drains into
//     the destination's open batch immediately, bounding memory.
//   - marker: a marker drains the buffer first, so the partial
//     aggregates precede the marker on the channel and block membership
//     is preserved (within a block the edge is unordered, so the
//     reordering of items into first-seen key order is trace-invisible).
//   - EOS/block/idle: all run through flushAll, which drains every
//     combining buffer first, so a committed marker cut leaves every
//     combining buffer empty, as it leaves the transport buffers.
//
// Folds run inside the emitter's delivery path (emitter.move), one call
// per destination's share of a batch; they must be pure and
// non-panicking, which the core template contract already requires.
// Injected edge faults count the rows folded, not the aggregates drained.

// DefaultCombinerCap is the per-destination distinct-key capacity of
// the combining buffers the compiler installs; the storm layer itself
// requires an explicit positive Cap.
const DefaultCombinerCap = 1024

// ColCombinerSpec configures sender-side combining on one input edge
// of a bolt (see BoltDecl.ColCombineWith). The edge carries batches of
// OutKind — each drain ships one (key, partial aggregate) row per
// distinct key. The combiner folds rows of the kind it was built for
// without boxing (ColCombiner.Fold) and rows of any other kind boxed
// (ColCombiner.FoldEvent).
type ColCombinerSpec struct {
	// OutKind is the kind of rows the combiner drains: the kind the edge
	// carries and the consumer accepts.
	OutKind *stream.ColKind
	// New builds one combining buffer per (subscription, destination).
	New func() stream.ColCombiner
	// Cap bounds the distinct keys a buffer holds before draining.
	Cap int
}

// validate checks a spec at topology validation time.
func (s *ColCombinerSpec) validate(bolt, from string, g Grouping) error {
	if s.OutKind == nil || s.New == nil {
		return fmt.Errorf("storm: combiner on edge %s→%s needs In and Combine (CombineWith) or OutKind and New (ColCombineWith)", from, bolt)
	}
	if s.Cap < 1 {
		return fmt.Errorf("storm: combiner on edge %s→%s needs a positive key cap, got %d", from, bolt, s.Cap)
	}
	if g != Fields {
		return fmt.Errorf("storm: combiner on edge %s→%s requires fields grouping, got %s (combining re-times items, which only a key-partitioned unordered edge tolerates)", from, bolt, g)
	}
	return nil
}

// ColCombineWith attaches a sender-side combining buffer to the bolt's
// most recently declared input edge, which then carries batches of the
// combiner's output kind. The edge must use fields grouping; validation
// enforces it at Run.
func (d *BoltDecl) ColCombineWith(spec ColCombinerSpec) *BoltDecl {
	if len(d.c.inputs) == 0 {
		panic(fmt.Sprintf("storm: ColCombineWith on %q before any input is declared", d.c.name))
	}
	d.c.inputs[len(d.c.inputs)-1].colComb = &spec
	return d
}

// CombinerSpec is a combiner given as an untyped monoid: In and Combine
// are the consumer operator's aggregation monoid over boxed keys and
// values; Cap bounds the distinct keys a combining buffer holds before
// draining.
type CombinerSpec struct {
	In      func(key, value any) any
	Combine func(x, y any) any
	Cap     int
}

// CombineWith is ColCombineWith for an untyped monoid: the combiner
// folds and drains rows of the universal kind.
func (d *BoltDecl) CombineWith(spec CombinerSpec) *BoltDecl {
	cs := ColCombinerSpec{OutKind: stream.AnyKind, Cap: spec.Cap}
	if spec.In != nil && spec.Combine != nil {
		cs.New = func() stream.ColCombiner { return stream.NewAnyCombiner(spec.In, spec.Combine) }
	}
	return d.ColCombineWith(cs)
}

// drain moves a combining buffer's partial aggregates into its
// destination's open batch — one row per distinct key, in first-seen
// key order — sealing the batch if the drain filled it. Nil-safe and a
// no-op when nothing is buffered.
func (em *emitter) drain(b *outBuf) {
	c := b.comb
	if c == nil || c.Len() == 0 {
		return
	}
	keys := c.Len()
	cb := em.openBuf(b)
	ins, outs := c.Drain(cb)
	em.stats.AddCombinedIn(int64(ins))
	em.stats.AddCombinedOut(int64(outs))
	// Buffered keys became buffered rows; both count toward pending.
	em.pending += outs - keys
	if cb.Len() >= em.batchSize {
		em.seal(b)
	}
}
