package storm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datatrace/internal/stream"
)

// This file implements the batched edge transport: instead of one
// channel send per routed event, each emitter accumulates a
// per-(subscription, destination-instance) buffer and flushes it as a
// message vector, amortizing the synchronization cost of a channel op
// over BatchSize events. Receivers drain one vector per channel op
// and feed its events through the existing execute path one at a
// time, so operator semantics are untouched.
//
// The transport preserves per-(sender,channel) FIFO order: every
// receiver-side channel is fed by exactly one buffer (a channel
// identifies one sender instance on one edge, and a buffer holds one
// edge's traffic to one destination instance), and buffers append and
// flush in order. The interleaving *across* channels of one inbox is
// unspecified — exactly as it already is across sender instances —
// and the MRG merger and ChannelBolt consumers only ever rely on
// per-channel order.
//
// Flush triggers, chosen so batching is invisible to the protocol
// layers above:
//
//   - size: a buffer reaching BatchSize flushes immediately.
//   - marker: emitting a marker flushes every buffer. Markers are
//     broadcast punctuations; a marker parked behind a partial batch
//     would stall aligned consumers waiting to complete the cut, and
//     marker-cut recovery relies on a cut's emissions being fully on
//     the wire when the cut commits.
//   - block: sendBlock flushes when the block is done, keeping the
//     transactional all-routed-and-serialized-before-first-send
//     contract of marker-cut recovery (the block's events may span
//     several vectors, but nothing of the block stays buffered).
//   - EOS: eos appends the end-of-stream notices after any buffered
//     events and flushes, so EOS is always the last message a channel
//     delivers.
//   - idle: a bolt waiting on an empty inbox with buffered output
//     flushes after FlushInterval, so low-rate streams don't stall
//     (see recvBatch). Spouts flush between Next calls via tick; a
//     spout blocked inside Next cannot flush — periodic markers or
//     EOS bound the residency of its buffered output.
//
// With BatchSize 1 every push flushes immediately: the emitter never
// holds a buffered event, tick and recvBatch take their zero-cost
// early-outs, and the transport reproduces the unbatched runtime
// exactly (one single-event vector per routed event).

// DefaultBatchSize is the per-destination buffer capacity used when
// TransportOptions.BatchSize is zero.
const DefaultBatchSize = 64

// DefaultFlushInterval is the idle-flush timeout used when
// TransportOptions.FlushInterval is zero.
const DefaultFlushInterval = time.Millisecond

// TransportOptions configures the batched edge transport of a
// topology's executors.
type TransportOptions struct {
	// BatchSize is the number of events a per-destination send buffer
	// accumulates before it is flushed as one message vector. 0 means
	// DefaultBatchSize; 1 reproduces the unbatched transport exactly.
	BatchSize int
	// FlushInterval bounds how long an emitted event may sit in a
	// partial batch while the executor is otherwise idle. 0 means
	// DefaultFlushInterval; negative disables the idle flush (markers,
	// blocks and EOS still flush).
	FlushInterval time.Duration
}

// Validate rejects nonsensical option values with a descriptive
// error. Run calls it before starting executors; callers configuring
// transports programmatically can call it early for better error
// locality.
func (o TransportOptions) Validate() error {
	if o.BatchSize < 0 {
		return fmt.Errorf("storm: TransportOptions.BatchSize must be ≥ 0 (0 selects the default %d, 1 disables batching), got %d", DefaultBatchSize, o.BatchSize)
	}
	return nil
}

// normalized resolves defaults and clamps nonsensical values.
func (o TransportOptions) normalized() TransportOptions {
	if o.BatchSize == 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.BatchSize < 1 {
		o.BatchSize = 1
	}
	if o.FlushInterval == 0 {
		o.FlushInterval = DefaultFlushInterval
	}
	if o.FlushInterval < 0 {
		o.FlushInterval = 0
	}
	return o
}

// batchPool recycles message vectors between receivers (which drain
// a vector and return it) and senders (which fill the next one): the
// boxed *[]message travels over the inbox channel, so the steady-state
// transport moves one pointer per flush and allocates nothing.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]message, 0, DefaultBatchSize)
		return &b
	},
}

func getBatch() *[]message {
	return batchPool.Get().(*[]message)
}

// putBatch returns a drained vector to the pool. Callers must have
// copied every event they keep: the backing array is reused by the
// next sender that flushes.
func putBatch(b *[]message) {
	batchPool.Put(b)
}

// vectorSink abstracts the delivery of one flushed message vector to
// one destination executor — the seam between the batching layer and
// the physical transport. chanSink hands the boxed vector to a local
// inbox channel; netSink (net.go) serializes it into a length-prefixed
// frame on the destination worker's TCP link. Everything above this
// interface (batching, combining, flush triggers, routing) is
// transport-agnostic.
type vectorSink interface {
	// deliver takes ownership of the boxed vector: the receiver (or
	// the sink itself, for transports that serialize) returns it to
	// the batch pool once consumed.
	deliver(b *[]message)
}

// chanSink is the in-process transport: a blocking channel send, so a
// full inbox applies backpressure exactly where the unbatched runtime
// blocked.
type chanSink struct {
	ch chan<- *[]message
}

func (s chanSink) deliver(b *[]message) { s.ch <- b }

// outBuf is one emitter's send buffer for one destination instance of
// one subscription. msgs is the working slice of box's backing array
// (kept unboxed so the append hot path skips a pointer chase); the
// two are reconciled at flush.
type outBuf struct {
	sink vectorSink
	// depth is the destination inbox's event-depth counter (see
	// runtimeComponent.depths); senders add a vector's weight at flush,
	// receivers subtract it at dequeue, both only when observability is
	// on. nil for remote destinations: the receiving worker's dispatcher
	// accounts arrivals instead.
	depth *atomic.Int64
	box   *[]message
	msgs  []message
	// comb, when set, pre-aggregates this buffer's items per key
	// before they enter msgs (see combiner.go); nil on ordinary edges.
	comb *combBuf
	// colKind/colCh/colBuf are the columnar-edge state (cols.go):
	// colBuf accumulates typed rows for this destination and is sealed
	// into one cols message — carrying channel colCh — when full, or
	// when any boxed message (a marker in particular) must follow it.
	// colComb, when set, is the typed combining buffer the rows fold
	// through first; colCap is its drain threshold.
	colKind *stream.ColKind
	colCh   int
	colBuf  stream.Columns
	colComb stream.ColCombiner
	colCap  int
}

// push appends one routed message to its destination buffer, flushing
// the buffer when it reaches the batch size. On a combined edge,
// items are folded into the combining buffer instead; a marker drains
// it first so the partial aggregates stay inside their block.
func (em *emitter) push(r *routedMsg) {
	b := &em.bufs[em.bufBase[r.si]+r.target]
	if b.colComb != nil {
		if !r.e.IsMarker {
			em.colCombine(b, r.e)
			return
		}
		em.drainColComb(b)
	}
	if b.comb != nil {
		if !r.e.IsMarker {
			em.combine(b, r.e)
			return
		}
		em.drainComb(b)
	}
	em.append(b, message{ch: r.ch, ev: r.e, sent: em.now})
}

// append places one boxed message in a transport buffer, flushing at
// the batch size. Any open column buffer is sealed first, so the boxed
// message — a marker in particular — follows every row emitted before
// it on the channel.
func (em *emitter) append(b *outBuf, m message) {
	if b.colBuf != nil {
		em.sealCols(b)
	}
	em.appendRaw(b, m)
}

// appendRaw is append without the column-buffer seal — the shared tail
// of append and sealCols itself.
func (em *emitter) appendRaw(b *outBuf, m message) {
	if b.box == nil {
		b.box = getBatch()
		b.msgs = (*b.box)[:0]
	}
	b.msgs = append(b.msgs, m)
	em.pending++
	if len(b.msgs) >= em.batchSize {
		em.flushBuf(b)
	}
}

// pushEOS appends an end-of-stream notice for channel ch to buffer b,
// after any events still held by its combining, columnar or transport
// buffers.
func (em *emitter) pushEOS(b *outBuf, ch int) {
	em.drainColComb(b)
	em.sealCols(b)
	em.drainComb(b)
	if b.box == nil {
		b.box = getBatch()
		b.msgs = (*b.box)[:0]
	}
	b.msgs = append(b.msgs, message{ch: ch, eos: true})
	em.pending++
}

// vecWeight is a vector's size in events, the unit of the inbox-depth
// gauges: a column batch counts its rows, any other message one.
func vecWeight(msgs []message) int64 {
	w := int64(len(msgs))
	for i := range msgs {
		if c := msgs[i].cols; c != nil {
			w += int64(c.Len()) - 1
		}
	}
	return w
}

// flushBuf sends one buffer's accumulated vector through its sink (a
// blocking delivery: a full inbox — or a TCP link's backpressure —
// applies here, exactly where the unbatched transport blocked).
func (em *emitter) flushBuf(b *outBuf) {
	n := len(b.msgs)
	if n == 0 {
		return
	}
	if em.stamp && b.depth != nil {
		b.depth.Add(vecWeight(b.msgs))
	}
	em.pending -= n
	*b.box = b.msgs
	b.sink.deliver(b.box)
	b.box, b.msgs = nil, nil
}

// flushAll drains every combining buffer (boxed and columnar), seals
// every open column buffer, flushes every non-empty transport buffer
// and clears the idle-flush deadline. This is the trigger behind
// blocks, EOS and the idle flush — after it returns, nothing the
// emitter sent is held back anywhere.
func (em *emitter) flushAll() {
	if em.cpending > 0 {
		for i := range em.bufs {
			em.drainComb(&em.bufs[i])
		}
	}
	if em.colpending > 0 {
		for i := range em.bufs {
			b := &em.bufs[i]
			em.drainColComb(b)
			em.sealCols(b)
		}
	}
	if em.pending > 0 {
		for i := range em.bufs {
			em.flushBuf(&em.bufs[i])
		}
	}
	em.oldest = time.Time{}
}

// quiet reports that the idle flush has nothing to do: no output is
// held by any buffer layer, or no interval is configured. With
// BatchSize 1 and no combined edges nothing is ever held, so the
// idle-flush hooks below never read the clock or arm a timer.
func (em *emitter) quiet() bool {
	return em.pending == 0 && em.cpending == 0 && em.colpending == 0 || em.flushEvery <= 0
}

// tick is the idle-flush hook called between an executor's loop
// iterations. The first tick with pending output records the time;
// a later tick flushes once the interval has elapsed.
func (em *emitter) tick() {
	if !em.quiet() {
		em.tickAt(time.Now())
	}
}

// tickAt is tick with the caller's already-taken timestamp.
func (em *emitter) tickAt(now time.Time) {
	switch {
	case em.quiet():
	case em.oldest.IsZero():
		em.oldest = now
	case now.Sub(em.oldest) >= em.flushEvery:
		em.flushAll()
	}
}

// recvBatch receives the next message vector from inbox. When the
// executor has buffered output and an idle flush is configured, the
// wait is bounded: if nothing arrives within the flush interval the
// buffers are flushed and recvBatch returns nil (the caller retries),
// so a quiet input edge can never strand this executor's buffered
// output behind a blocking receive. Events held by combining buffers
// count as buffered output here too. On the hot path it is a plain
// channel receive. The bounded wait reuses the emitter's one timer:
// since Go 1.23 a Reset or Stop leaves no stale tick behind, so no
// drain is needed.
func recvBatch(inbox <-chan *[]message, em *emitter) *[]message {
	if em.quiet() {
		return <-inbox
	}
	if em.idle == nil {
		em.idle = time.NewTimer(em.flushEvery)
	} else {
		em.idle.Reset(em.flushEvery)
	}
	select {
	case b := <-inbox:
		em.idle.Stop()
		return b
	case <-em.idle.C:
		em.flushAll()
		return nil
	}
}
