package storm

import (
	"fmt"

	"datatrace/internal/stream"
)

// This file implements sender-side combining buffers (map-side
// combine / partial aggregation) for fields-grouping edges whose
// consumer aggregates through a commutative monoid. Instead of one
// message per item, the emitter folds its block-local items per
// (destination instance, key) with the consumer's own In/Combine and
// ships one partial aggregate per (key, flush). Because the monoid is
// associative and commutative, the consumer — rewritten by the
// compiler to fold partial aggregates — computes the same per-block
// aggregate whatever the split of items across senders and flushes,
// so the output data trace is unchanged.
//
// Discipline (mirrors the transport's flush triggers, one layer up):
//
//   - cap: a combining buffer reaching Cap distinct keys drains into
//     the batched transport buffer immediately, bounding memory.
//   - marker: a marker pushed to a combined buffer drains it first,
//     so the partial aggregates precede the marker on the channel and
//     block membership is preserved (within a block the edge is
//     unordered, so the reordering of items into first-seen key order
//     is trace-invisible).
//   - EOS/block/idle: eos, sendBlock and the idle flush all run
//     through flushAll, which drains every combining buffer before
//     flushing the transport buffers. In particular a committed
//     marker cut leaves every combining buffer provably empty — the
//     same invariant marker-cut recovery relies on for the transport
//     buffers (see boltExec.restart) — so restarts never need to
//     discard or reconstruct combiner state.
//
// In and Combine run inside the emitter's send path, including the
// transactional sendBlock flush; they must be pure and non-panicking,
// which the core template contract already requires. The per-item
// serialization boundary (wire) is applied to each contributing item
// before it reaches the combiner, so injected edge faults still count
// per routed event; the flushed aggregate itself is a composition of
// already-round-tripped values and is not re-serialized.

// DefaultCombinerCap is the per-destination distinct-key capacity of
// a combining buffer when CombinerSpec.Cap is zero at the compile
// layer; the storm layer itself requires an explicit positive Cap.
const DefaultCombinerCap = 1024

// CombinerSpec configures sender-side combining on one input edge of
// a bolt (see BoltDecl.CombineWith). In and Combine are the consumer
// operator's aggregation monoid, untyped for the runtime; Cap bounds
// the distinct keys a combining buffer holds before draining.
type CombinerSpec struct {
	In      func(key, value any) any
	Combine func(x, y any) any
	Cap     int
}

// validate checks a spec at topology validation time.
func (s *CombinerSpec) validate(bolt, from string, g Grouping) error {
	if s.In == nil || s.Combine == nil {
		return fmt.Errorf("storm: combiner on edge %s→%s needs In and Combine", from, bolt)
	}
	if s.Cap < 1 {
		return fmt.Errorf("storm: combiner on edge %s→%s needs a positive key cap, got %d", from, bolt, s.Cap)
	}
	if g != Fields {
		return fmt.Errorf("storm: combiner on edge %s→%s requires fields grouping, got %s (combining re-times items, which only a key-partitioned unordered edge tolerates)", from, bolt, g)
	}
	return nil
}

// CombineWith attaches a sender-side combining buffer to the bolt's
// most recently declared input edge. The edge must use fields
// grouping; validation enforces it at Run.
func (d *BoltDecl) CombineWith(spec CombinerSpec) *BoltDecl {
	if len(d.c.inputs) == 0 {
		panic(fmt.Sprintf("storm: CombineWith on %q before any input is declared", d.c.name))
	}
	d.c.inputs[len(d.c.inputs)-1].combiner = &spec
	return d
}

// combBuf is the combining state of one outBuf: an insertion-ordered
// keyed map of partial aggregates for one (subscription, destination
// instance) pair. ch is the receiver-side channel index every flushed
// aggregate carries (one buffer serves exactly one sender channel).
type combBuf struct {
	spec *CombinerSpec
	ch   int
	idx  map[any]int
	keys []any
	vals []any
	// ins counts items folded since the last drain; the stats counter
	// is bumped once per drain rather than once per item (drains always
	// precede markers, EOS and block commits, so the counter is exact
	// whenever the buffer is empty — in particular at run end).
	ins int64
}

// combine folds one routed item into the buffer's partial aggregates,
// draining into the transport buffer when the key cap is reached.
func (em *emitter) combine(b *outBuf, e stream.Event) {
	c := b.comb
	c.ins++
	if i, ok := c.idx[e.Key]; ok {
		c.vals[i] = c.spec.Combine(c.vals[i], c.spec.In(e.Key, e.Value))
		return
	}
	c.idx[e.Key] = len(c.keys)
	c.keys = append(c.keys, e.Key)
	c.vals = append(c.vals, c.spec.In(e.Key, e.Value))
	em.cpending++
	if len(c.keys) >= c.spec.Cap {
		em.drainComb(b)
	}
}

// drainComb moves a buffer's partial aggregates into its transport
// buffer, one message per key in first-seen order. Nil-safe and a
// no-op when nothing is buffered.
func (em *emitter) drainComb(b *outBuf) {
	c := b.comb
	if c == nil || len(c.keys) == 0 {
		return
	}
	em.stats.AddCombinedIn(c.ins)
	c.ins = 0
	em.stats.AddCombinedOut(int64(len(c.keys)))
	em.cpending -= len(c.keys)
	for i, k := range c.keys {
		delete(c.idx, k)
		em.append(b, message{ch: c.ch, ev: stream.Item(k, c.vals[i]), sent: em.now})
		c.vals[i] = nil
	}
	c.keys = c.keys[:0]
	c.vals = c.vals[:0]
}
