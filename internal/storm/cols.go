package storm

import "datatrace/internal/stream"

// This file is the runtime's one data path: items move between
// executors as column batches (stream.Columns) and as nothing else. A
// message carries a batch, a marker or an end-of-stream notice; the
// receiver hands a batch whole to a ColProcessor bolt of its kind —
// a universal-kind batch unboxed once into that kind first — and row
// by row (EventAt) to any other bolt, a handcrafted Bolt or
// ChannelBolt; a sink hands its batches to its consumer (sink.go).
//
// "Boxed" is a kind, not a path. An event emitted through emit(e) is a
// row of the universal kind stream.AnyKind, whose columns are []any; a
// typed batch emitted through emitCols keeps its kind. A send buffer
// takes the kind of the rows it is given: a row of another kind than
// the open batch's crosses in a batch of its own kind, behind the
// sealed open batch, and a bolt that does not consume that kind gets it
// through the row-by-row fallback. No edge has a kind of its own (the
// compiler records as typed the edges whose endpoint templates expose
// the same concrete kind, Plan.ColumnarEdges): a bolt mixing emit(e)
// with typed batches costs smaller batches, never a wrong result. The
// kind is compared once per destination's share of an emitted batch (a
// one-row batch for emit(e)), never per row of a typed batch.
//
// Markers never enter a batch; transport.go has the sealing and flush
// rules that keep a marker behind the rows emitted before it.
//
// Packing is unobservable: a batch denotes exactly its row sequence,
// rows keep their per-channel order within and across batches (all an
// O(K,V) edge needs), under U(K,V) only the per-channel interleaving is
// observable, and Theorem 4.3 speaks of a block's items, not of how
// they were grouped in transit.

// ColSpout is an optional Spout extension: a source that fills typed
// column batches directly, skipping per-event boxing. The executor calls
// NextCols while items are available and Next at punctuation points.
type ColSpout interface {
	Spout
	// ColKind is the kind of batches NextCols fills; nil disables the
	// columnar path for this spout instance.
	ColKind() *stream.ColKind
	// NextCols appends up to max item rows to out and returns how many
	// it appended. It returns 0 exactly when the next event is a marker
	// or end-of-stream — the executor then calls Next.
	NextCols(out stream.Columns, max int) int
}

// ColProcessor is an optional Bolt extension: a bolt that can consume
// (and possibly produce) typed column batches. The executor uses
// ProcessCols for every arriving batch whose kind matches InColKind,
// and calls Next per row otherwise, so a bolt behind a mixed set of
// edges still sees every event exactly once.
type ColProcessor interface {
	Bolt
	// InColKind is the kind of batch ProcessCols accepts; nil disables
	// the columnar receive path for this bolt.
	InColKind() *stream.ColKind
	// OutColKind is the kind of batch ProcessCols fills, nil when the
	// bolt emits only through Next's emit callback.
	OutColKind() *stream.ColKind
	// ProcessCols consumes every row of in, appending output rows to
	// out (non-nil exactly when OutColKind is non-nil). The
	// implementation must not retain in, out or their column slices
	// past the call (dttlint rule DTT007).
	ProcessCols(in, out stream.Columns)
}

// ColMarker is an optional extension of a ColProcessor with an output
// kind: ProcessMarker runs the bolt's step for marker m, appending the
// rows it emits to out (of OutColKind), but does not forward m — the
// executor sends out as the batch m closes.
type ColMarker interface {
	ProcessMarker(m stream.Marker, out stream.Columns)
}

// ColumnarWith documents the kind of the bolt's most recently declared
// input edge. The runtime does not read it — a send buffer takes the
// kind of the rows it is given (see the header) — and keeps it so that
// topologies declaring their typed edges keep compiling.
func (d *BoltDecl) ColumnarWith(*stream.ColKind) *BoltDecl { return d }

// route moves the rows of one emitted batch — typed, or the emitter's
// one-row universal scratch batch — into every subscription's buffers,
// a destination's share at a time: Fields partitions the batch by its
// hash column, Shuffle deals even chunks round-robin from its cursor,
// Global and Broadcast take it whole. The batch stays the caller's; route
// cannot panic (combiner folds are pure by the template contract).
func (em *emitter) route(cols stream.Columns) {
	n := cols.Len()
	em.stats.AddEmitted(int64(n))
	for si := range em.rc.subs {
		sub := &em.rc.subs[si]
		bufs := em.bufs[em.bufBase[si]:][:len(sub.to.inboxes)]
		switch sub.grouping {
		case Fields:
			if n == 1 { // a boxed emission: its one row needs no partition
				em.move(&bufs[cols.HashAt(0)%len(bufs)], cols, row0, 0, 1)
				continue
			}
			rows, off := em.part.ByHash(cols, len(bufs))
			for k := range bufs {
				em.move(&bufs[k], cols, rows, off[k], off[k+1])
			}
		case Shuffle:
			chunk, k := (n+len(bufs)-1)/len(bufs), em.rrNext[si]
			for lo := 0; lo < n; lo += chunk {
				em.move(&bufs[k], cols, nil, lo, min(lo+chunk, n))
				k = (k + 1) % len(bufs)
			}
			em.rrNext[si] = k
		default: // Global: instance 0; Broadcast: every instance
			if sub.grouping == Global {
				bufs = bufs[:1]
			}
			for k := range bufs {
				em.move(&bufs[k], cols, nil, 0, n)
			}
		}
	}
}

// row0 lists the row of a one-row batch.
var row0 = []int32{0}

type colBlock struct {
	items []message
	mark  stream.Marker
}

// colMerge is the runtime's MRG merger. It follows stream.MergeState
// exactly — blocks close on markers, a block flushes when every channel
// closed it, the merged marker carries the maximum timestamp — over
// inputs whose items arrive as column batches, which it buffers whole
// (merge_test.go holds the two together).
//
// It is also the replay buffer of marker-cut recovery, under one
// ownership rule: the merger owns every batch it was handed, and pops
// a block — releasing its batches to their arenas — only after the
// block's items and its marker were delivered. Delivering the marker
// is what commits the cut (boltExec.completeCut runs inside dev), so a
// panic anywhere in a block leaves the merger holding the whole
// un-committed input, recoverable via Pending.
type colMerge struct {
	queued [][]colBlock
	open   [][]message
	// dev delivers one merged marker, dcols one column batch. dcols
	// borrows the batch: the merger keeps ownership.
	dev   func(stream.Event)
	dcols func(stream.Columns)
	// free recycles popped blocks' item slices.
	free [][]message
}

func newColMerge(n int, dev func(stream.Event), dcols func(stream.Columns)) *colMerge {
	return &colMerge{queued: make([][]colBlock, n), open: make([][]message, n), dev: dev, dcols: dcols}
}

// Next consumes one part of a message from channel ch: a batch, of which
// it takes ownership, or the marker that closes the channel's open block.
// The part is buffered before any consumer code runs.
func (m *colMerge) Next(ch int, e message) {
	if e.cols != nil {
		if m.open[ch] == nil && len(m.free) > 0 {
			m.open[ch] = m.free[len(m.free)-1]
			m.free = m.free[:len(m.free)-1]
		}
		m.open[ch] = append(m.open[ch], e)
		return
	}
	m.queued[ch] = append(m.queued[ch], colBlock{items: m.open[ch], mark: e.mark})
	m.open[ch] = nil
	m.advance()
}

func (m *colMerge) deliver(items []message) {
	for _, it := range items {
		m.dcols(it.cols)
	}
}

// advance flushes complete frontier blocks: every channel's head
// block, then the one merged marker, then the pop.
func (m *colMerge) advance() {
	for {
		for _, q := range m.queued {
			if len(q) == 0 {
				return
			}
		}
		mark := m.queued[0][0].mark
		for _, q := range m.queued {
			m.deliver(q[0].items)
			if q[0].mark.Timestamp > mark.Timestamp {
				mark = q[0].mark
			}
		}
		m.dev(stream.Mark(mark))
		for ch, q := range m.queued {
			if items := q[0].items; items != nil {
				release(items)
				m.free = append(m.free, items[:0])
			}
			copy(q, q[1:])
			q[len(q)-1] = colBlock{}
			m.queued[ch] = q[:len(q)-1]
		}
	}
}

// release returns the parts' batches to their arenas and clears the
// parts, so a recycled slice holds no stale reference.
func release(items []message) {
	for i := range items {
		if c := items[i].cols; c != nil {
			c.Release()
		}
		items[i] = message{}
	}
}

// Pending returns, per channel, every part the merger has not yet
// popped: the items and marker of each queued block, then the open
// block's items. Feeding each sequence into a fresh merger on the same
// channel reproduces this merger's state; the batches move with the
// parts, so the caller must abandon this merger.
func (m *colMerge) Pending() [][]message {
	out := make([][]message, len(m.open))
	for ch := range out {
		for _, b := range m.queued[ch] {
			out[ch] = append(out[ch], b.items...)
			out[ch] = append(out[ch], message{punct: markPunct, mark: b.mark})
		}
		out[ch] = append(out[ch], m.open[ch]...)
	}
	return out
}

// Trailing delivers every item still buffered at end-of-stream —
// closed-but-incomplete blocks, then each channel's open block —
// without synthesizing the missing markers. Nothing is popped: the
// caller drops the merger once the trailing output is safely out.
func (m *colMerge) Trailing() {
	for _, q := range m.queued {
		for _, b := range q {
			m.deliver(b.items)
		}
	}
	for _, open := range m.open {
		m.deliver(open)
	}
}

// drop releases every batch the merger still holds and empties it.
func (m *colMerge) drop() {
	for ch, q := range m.queued {
		for _, b := range q {
			release(b.items)
		}
		release(m.open[ch])
		m.queued[ch], m.open[ch] = nil, nil
	}
}
