package storm

import (
	"fmt"
	"sync/atomic"
	"time"

	"datatrace/internal/stream"
)

// This file implements the batched edge transport. Every item travels
// in a column batch (cols.go): an emitter appends the rows it emits to
// one open batch per (subscription, destination instance) and hands the
// destination one message per channel operation — a full batch, or the
// open batch closed by the marker or end-of-stream notice behind it
// (exec.go, message).
//
// The transport preserves per-(sender,channel) FIFO order: every
// receiver-side channel is fed by exactly one buffer (a channel
// identifies one sender instance on one edge, and a buffer holds one
// edge's traffic to one destination instance), rows keep their order
// within and across the batches of a buffer, and a punctuation rides in
// the message of the open batch it closes, so at the points where
// recovery and rescaling need the transport empty (committed cuts,
// barriers, EOS) nothing stays buffered. The interleaving *across*
// channels of one inbox is unspecified — exactly as it already is
// across sender instances — and the MRG merger and ChannelBolt
// consumers only ever rely on per-channel order.
//
// Send triggers, chosen so batching is invisible to the protocol layers
// above:
//
//   - size: an open batch reaching BatchSize rows is sent.
//   - marker: emitting a marker sends every buffer's open batch with the
//     marker behind it. Markers are broadcast punctuations; a marker
//     parked behind a partial batch would stall aligned consumers
//     waiting to complete the cut, and marker-cut recovery relies on a
//     cut's emissions being fully on the wire when the cut commits.
//   - block: a committed cut's parked output is sent and then flushed
//     (boltExec.flushOut), so nothing of the block stays buffered.
//   - EOS: eos sends every open batch with the end-of-stream notice
//     behind it, so EOS is always the last message a channel delivers.
//   - idle: a bolt waiting on an empty inbox with buffered output
//     flushes after FlushInterval, so low-rate streams don't stall
//     (see recv). Spouts flush between Next calls via tick; a spout
//     blocked inside Next cannot flush — periodic markers or EOS bound
//     the residency of its buffered output.
//
// With BatchSize 1 every row is sent as it is appended: the emitter
// never holds a buffered event, tick and recv take their zero-cost
// early-outs, and every message carries one event.

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
	// accumulates before it is sent as one message. 0 means
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

// edgeSink is the delivery of one message to one destination executor —
// the seam between the batching layer and the physical transport.
// chanSink hands the message to a local inbox channel; netSink (net.go)
// serializes it into a length-prefixed frame on the destination worker's
// TCP link. Everything above this interface (batching, combining, send
// triggers, routing) is transport-agnostic.
type edgeSink interface {
	// deliver takes ownership of the message's batch: the receiver (or
	// the sink itself, for transports that serialize) releases it once
	// consumed.
	deliver(m message)
}

// chanSink is the in-process transport: a blocking channel send, so a
// full inbox applies backpressure exactly where the unbatched runtime
// blocked.
type chanSink struct {
	ch chan<- message
}

func (s chanSink) deliver(m message) { s.ch <- m }

// outBuf is one emitter's send buffer for one destination instance of
// one subscription: the open batch rows are appended to.
type outBuf struct {
	sink edgeSink
	// depth is the destination inbox's event-depth counter (see
	// runtimeComponent.depths); senders add a message's weight at
	// delivery, receivers subtract it at dequeue, both only when
	// observability is on. nil for remote destinations: the receiving
	// worker's dispatcher accounts arrivals instead.
	depth *atomic.Int64
	// ch is the receiver-side channel every message of this buffer
	// carries.
	ch int32
	// buf is the open batch (nil, or non-empty), sent the send stamp of
	// its first row, and kind its kind: the kind of the rows last moved
	// into the buffer, or the combiner's output kind.
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

// move moves rows lo..hi-1 of src, or the rows sel[lo:hi] lists, into b:
// folded into its combining buffer (boxed if of another kind), drained at
// the key cap, or appended to its open batch, sealed at the batch size.
func (em *emitter) move(b *outBuf, src stream.Columns, sel []int32, lo, hi int) {
	for lo < hi {
		if c := b.comb; c != nil {
			before := c.Len()
			m, ok := c.Fold(src, sel[lo:hi], b.combCap)
			for ; !ok && lo+m < hi && c.Len() < b.combCap; m++ {
				c.FoldEvent(src.EventAt(int(sel[lo+m])))
			}
			lo += m
			if em.pending += c.Len() - before; c.Len() >= b.combCap {
				em.drain(b)
			}
			continue
		}
		if k := src.Kind(); b.kind != k { // rows of another kind: seal
			em.seal(b)
			b.kind = k
		}
		cb := em.openBuf(b)
		m := min(hi-lo, em.batchSize-cb.Len())
		if sel == nil {
			cb.AppendRange(src, lo, lo+m)
		} else {
			cb.AppendRows(src, sel[lo:lo+m])
		}
		lo += m
		if em.pending += m; cb.Len() >= em.batchSize {
			em.seal(b)
		}
	}
}

// seal sends b's open batch as one message. Nil-safe and a no-op when no
// batch is open.
func (em *emitter) seal(b *outBuf) { em.flushBuf(b, message{}) }

// flushBuf sends b's open batch, if any, with the punctuation of m behind
// it as one message through the buffer's sink (a blocking delivery: a
// full inbox — or a spent credit window on a TCP link — applies
// backpressure here), and nothing when there is neither. Ownership of
// the batch passes to the message. The buffer is emptied before the
// sink runs, so a delivery that panics (netSink on a failed link)
// leaves nothing behind that a later flush would send again.
func (em *emitter) flushBuf(b *outBuf, m message) {
	m.ch = b.ch
	if cb := b.buf; cb != nil {
		m.cols, m.sent = cb, b.sent
		b.buf = nil
		em.pending -= cb.Len()
	} else if m.punct == noPunct {
		return
	}
	if em.stamp && b.depth != nil {
		b.depth.Add(int64(m.weight()))
	}
	b.sink.deliver(m)
}

// flushAll drains every combining buffer, sends every open batch and
// clears the idle-flush deadline. This is the trigger behind blocks and
// the idle flush — after it returns, nothing the emitter sent is held
// back anywhere.
func (em *emitter) flushAll() {
	if em.pending > 0 {
		for i := range em.bufs {
			b := &em.bufs[i]
			em.drain(b)
			em.seal(b)
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

// recv receives the next message from inbox. When the executor has
// buffered output and an idle flush is configured, the wait is bounded:
// if nothing arrives within the flush interval the buffers are flushed
// and recv reports false (the caller retries), so a quiet input edge can
// never strand this executor's buffered output behind a blocking
// receive. On the hot path it is a plain channel receive. The bounded
// wait reuses the emitter's one timer: since Go 1.23 a Reset or Stop
// leaves no stale tick behind, so no drain is needed.
func recv(inbox <-chan message, em *emitter) (message, bool) {
	if em.quiet() {
		return <-inbox, true
	}
	if em.idle == nil {
		em.idle = time.NewTimer(em.flushEvery)
	} else {
		em.idle.Reset(em.flushEvery)
	}
	select {
	case m := <-inbox:
		em.idle.Stop()
		return m, true
	case <-em.idle.C:
		em.flushAll()
		return message{}, false
	}
}
