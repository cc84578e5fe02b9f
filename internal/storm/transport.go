package storm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datatrace/internal/stream"
)

// This file implements the batched edge transport. Every item travels
// in a column batch (cols.go): an emitter appends the rows it emits to
// one open batch per (subscription, destination instance), seals a full
// batch into a message and hands the destination a vector of messages —
// batches, markers and end-of-stream notices — per channel operation.
//
// The transport preserves per-(sender,channel) FIFO order: every
// receiver-side channel is fed by exactly one buffer (a channel
// identifies one sender instance on one edge, and a buffer holds one
// edge's traffic to one destination instance), rows keep their order
// within and across the batches of a buffer, and the open batch is
// sealed before anything else — a marker, an EOS, a batch of another
// kind — enters the vector behind it, so at the points where recovery
// and rescaling need the transport empty (committed cuts, barriers,
// EOS) flushAll leaves nothing buffered. The interleaving *across*
// channels of one inbox is unspecified — exactly as it already is
// across sender instances — and the MRG merger and ChannelBolt
// consumers only ever rely on per-channel order.
//
// Flush triggers, chosen so batching is invisible to the protocol
// layers above:
//
//   - size: an open batch reaching BatchSize rows is sealed, and a
//     vector holding BatchSize events or more is flushed.
//   - marker: emitting a marker flushes every buffer. Markers are
//     broadcast punctuations; a marker parked behind a partial batch
//     would stall aligned consumers waiting to complete the cut, and
//     marker-cut recovery relies on a cut's emissions being fully on
//     the wire when the cut commits.
//   - block: a committed cut's parked output is sent and then flushed
//     (boltExec.flushOut), so nothing of the block stays buffered.
//   - EOS: eos appends the end-of-stream notices after any buffered
//     rows and flushes, so EOS is always the last message a channel
//     delivers.
//   - idle: a bolt waiting on an empty inbox with buffered output
//     flushes after FlushInterval, so low-rate streams don't stall
//     (see recvBatch). Spouts flush between Next calls via tick; a
//     spout blocked inside Next cannot flush — periodic markers or
//     EOS bound the residency of its buffered output.
//
// With BatchSize 1 every row is sealed and flushed as it is appended:
// the emitter never holds a buffered event, tick and recvBatch take
// their zero-cost early-outs, and every vector carries one message.

// DefaultBatchSize is the per-destination buffer capacity used when
// TransportOptions.BatchSize is zero: the rows a new batch's arenas
// hold without growing.
const DefaultBatchSize = stream.DefaultBatchRows

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
// *[]message travels over the inbox channel, so the steady-state
// transport moves one pointer per flush and allocates nothing. A vector
// usually holds a batch, or a batch and the marker or EOS behind it.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]message, 0, 4)
		return &b
	},
}

func getBatch() *[]message {
	return batchPool.Get().(*[]message)
}

// putBatch returns a drained vector to the pool; the backing array is
// reused by the next sender that flushes.
func putBatch(b *[]message) {
	batchPool.Put(b)
}

// vectorSink abstracts the delivery of one flushed message vector to
// one destination executor — the seam between the batching layer and
// the physical transport. chanSink hands the vector to a local inbox
// channel; netSink (net.go) serializes it into a length-prefixed
// frame on the destination worker's TCP link. Everything above this
// interface (batching, combining, flush triggers, routing) is
// transport-agnostic.
type vectorSink interface {
	// deliver takes ownership of the vector: the receiver (or
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
// one subscription: the open batch rows are appended to, and the vector
// of sealed messages behind it.
type outBuf struct {
	sink vectorSink
	// depth is the destination inbox's event-depth counter (see
	// runtimeComponent.depths); senders add a vector's weight at flush,
	// receivers subtract it at dequeue, both only when observability is
	// on. nil for remote destinations: the receiving worker's dispatcher
	// accounts arrivals instead.
	depth *atomic.Int64
	// vec is the vector being filled, nil when empty; weight is its size
	// in events (vecWeight).
	vec    *[]message
	weight int
	// ch is the receiver-side channel every message of this buffer
	// carries.
	ch int
	// buf is the open batch (nil, or non-empty), sent the send stamp of
	// its first row, and kind its kind: the kind of the rows last routed
	// on the subscription (emitter.kinds), or the combiner's output kind.
	kind *stream.ColKind
	buf  stream.Columns
	sent int64
	// comb, when set, pre-aggregates this buffer's rows per key before
	// they enter buf (see combiner.go); combCap is its drain threshold.
	comb    stream.ColCombiner
	combCap int
}

// openBuf returns b's open batch, taking one from the kind's pool when
// there is none.
func (em *emitter) openBuf(b *outBuf) stream.Columns {
	if b.buf == nil {
		b.buf, b.sent = b.kind.Get(), em.now
	}
	return b.buf
}

// appendRow appends one row of src, a batch of b's kind, to b's open
// batch, sealing it when it reaches the batch size.
func (em *emitter) appendRow(b *outBuf, src stream.Columns, i int) {
	cb := em.openBuf(b)
	cb.AppendRow(src, i)
	em.pending++
	if cb.Len() >= em.batchSize {
		em.seal(b)
	}
}

// seal closes b's open batch into one message of the vector. Nil-safe
// and a no-op when no batch is open. Ownership of the batch passes to
// the message; the receiver (or the net sink, after serializing)
// releases it.
func (em *emitter) seal(b *outBuf) {
	cb := b.buf
	if cb == nil {
		return
	}
	b.buf = nil
	em.pending -= cb.Len()
	em.appendMsg(b, message{ch: b.ch, cols: cb, sent: b.sent}, cb.Len())
}

// appendMsg places one message weighing n events in b's vector and
// flushes the vector once it holds a batch size of events — one full
// batch per vector in the steady state, which keeps the in-flight bound
// (ChannelCap × BatchSize events per edge, within a factor of two)
// intact. Callers seal the open batch first, so the message follows
// every row emitted before it on the channel.
func (em *emitter) appendMsg(b *outBuf, m message, n int) {
	if b.vec == nil {
		b.vec = getBatch()
		*b.vec = (*b.vec)[:0]
	}
	*b.vec = append(*b.vec, m)
	b.weight += n
	em.pending += n
	if b.weight >= em.batchSize {
		em.flushBuf(b)
	}
}

// vecWeight is a vector's size in events, the unit of the inbox-depth
// gauges: a batch counts its rows, any other message one.
func vecWeight(msgs []message) (w int64) {
	for i := range msgs {
		w += int64(entry{cols: msgs[i].cols}.rows())
	}
	return w
}

// flushBuf sends one buffer's accumulated vector through its sink (a
// blocking delivery: a full inbox — or a spent credit window on a TCP
// link — applies backpressure here).
func (em *emitter) flushBuf(b *outBuf) {
	if b.vec == nil {
		return
	}
	if em.stamp && b.depth != nil {
		b.depth.Add(int64(b.weight))
	}
	em.pending -= b.weight
	b.sink.deliver(b.vec)
	b.vec, b.weight = nil, 0
}

// flushAll drains every combining buffer, seals every open batch,
// flushes every non-empty vector and clears the idle-flush deadline.
// This is the trigger behind markers, blocks, EOS and the idle flush —
// after it returns, nothing the emitter sent is held back anywhere.
func (em *emitter) flushAll() {
	if em.pending > 0 {
		for i := range em.bufs {
			b := &em.bufs[i]
			em.drain(b)
			em.seal(b)
			em.flushBuf(b)
		}
	}
	em.oldest = time.Time{}
}

// quiet reports that the idle flush has nothing to do: no output is
// held by any buffer layer, or no interval is configured. With
// BatchSize 1 and no combined edges nothing is ever held, so the
// idle-flush hooks below never read the clock or arm a timer.
func (em *emitter) quiet() bool {
	return em.pending == 0 || em.flushEvery <= 0
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
// output behind a blocking receive. On the hot path it is a plain
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
