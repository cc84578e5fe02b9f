package storm

import (
	"fmt"

	"datatrace/internal/stream"
)

// This file is the columnar (struct-of-arrays) hot path of the batched
// edge transport. An edge declared columnar — by the compiler, when
// both endpoint templates expose the same concrete column kind — moves
// items as typed Columns batches instead of boxed events: the emitter
// appends rows to a per-destination column buffer, seals a full buffer
// into a single cols message, and the receiver hands the whole batch to
// a ColProcessor bolt in one call. Boxed and columnar edges coexist
// message-by-message on the same channels: a message either carries one
// boxed event or one column batch.
//
// Markers never enter a column batch. The emitter's push seals the
// open column buffer before appending any boxed message (append in
// transport.go), so on every channel a marker still follows all the
// rows emitted before it — the FIFO discipline the MRG alignment and
// the marker-cut protocols rely on. Because flushAll also drains and
// seals column state, every point at which the recovery and rescale
// protocols prove the transport empty (committed cuts, barriers, EOS)
// still has nothing buffered anywhere: the columnar layer adds buffer
// capacity, not new retention points.
//
// Everything here preserves the data-trace semantics for the same
// reason batching did (PR 3): a Columns batch denotes exactly its row
// sequence, rows keep their per-channel order, and under U(K,V) the
// per-channel interleaving is all that is observable.

// ColSpout is an optional Spout extension: a source that can produce
// typed column batches directly, skipping per-event boxing. The
// executor calls NextCols while items are available and falls back to
// Next at punctuation points.
type ColSpout interface {
	Spout
	// ColKind is the kind of batches NextCols fills; nil disables the
	// columnar path for this spout instance.
	ColKind() *stream.ColKind
	// NextCols appends up to max item rows to out and returns how many
	// it appended. It returns 0 exactly when the next event is a marker
	// or end-of-stream — the executor then calls Next, so markers and
	// EOS always travel the boxed path.
	NextCols(out stream.Columns, max int) int
}

// ColProcessor is an optional Bolt extension: a bolt that can consume
// (and possibly produce) typed column batches. The executor uses
// ProcessCols for every arriving batch whose kind matches InColKind,
// and falls back to per-event Next calls otherwise, so a bolt behind a
// mixed set of edges still sees every event exactly once.
type ColProcessor interface {
	Bolt
	// InColKind is the kind of batch ProcessCols accepts; nil disables
	// the columnar receive path for this bolt.
	InColKind() *stream.ColKind
	// OutColKind is the kind of batch ProcessCols fills, nil when the
	// bolt emits only boxed events.
	OutColKind() *stream.ColKind
	// ProcessCols consumes every row of in, appending output rows to
	// out (non-nil exactly when OutColKind is non-nil). The
	// implementation must not retain in, out or their column slices
	// past the call (dttlint rule DTT007).
	ProcessCols(in, out stream.Columns)
}

// ColCombinerSpec configures typed sender-side combining on one
// columnar input edge of a bolt (see BoltDecl.ColCombineWith): the
// columnar counterpart of CombinerSpec. The edge carries batches of
// OutKind — each drain ships one (key, partial aggregate) row per
// distinct key — while the producer emits batches of InKind.
type ColCombinerSpec struct {
	// InKind is the kind of rows the combiner folds (the producer's
	// output kind); OutKind is the kind of rows it drains (the kind the
	// edge carries and the consumer accepts).
	InKind  *stream.ColKind
	OutKind *stream.ColKind
	// New builds one combining buffer per (subscription, destination).
	New func() stream.ColCombiner
	// Cap bounds the distinct keys a buffer holds before draining.
	Cap int
}

// validate checks a spec at topology validation time.
func (s *ColCombinerSpec) validate(bolt, from string, g Grouping) error {
	if s.InKind == nil || s.OutKind == nil || s.New == nil {
		return fmt.Errorf("storm: columnar combiner on edge %s→%s needs InKind, OutKind and New", from, bolt)
	}
	if s.Cap < 1 {
		return fmt.Errorf("storm: columnar combiner on edge %s→%s needs a positive key cap, got %d", from, bolt, s.Cap)
	}
	if g != Fields {
		return fmt.Errorf("storm: columnar combiner on edge %s→%s requires fields grouping, got %s (combining re-times items, which only a key-partitioned unordered edge tolerates)", from, bolt, g)
	}
	return nil
}

// ColumnarWith declares the bolt's most recently declared input edge
// columnar: items on it travel as typed batches of the given kind.
// The producer must emit batches of exactly this kind (pointer
// equality — kinds are canonical) and the consumer must accept them;
// the compiler checks both before selecting the columnar transport,
// and the runtime falls back to boxed events row-by-row on any
// mismatch, so a wrong declaration degrades performance, not
// semantics.
func (d *BoltDecl) ColumnarWith(kind *stream.ColKind) *BoltDecl {
	if len(d.c.inputs) == 0 {
		panic(fmt.Sprintf("storm: ColumnarWith on %q before any input is declared", d.c.name))
	}
	if kind == nil {
		panic(fmt.Sprintf("storm: ColumnarWith on %q with a nil kind", d.c.name))
	}
	d.c.inputs[len(d.c.inputs)-1].cols = kind
	return d
}

// ColCombineWith attaches a typed sender-side combining buffer to the
// bolt's most recently declared input edge and declares the edge
// columnar with the combiner's output kind. The edge must use fields
// grouping; validation enforces it at Run.
func (d *BoltDecl) ColCombineWith(spec ColCombinerSpec) *BoltDecl {
	if len(d.c.inputs) == 0 {
		panic(fmt.Sprintf("storm: ColCombineWith on %q before any input is declared", d.c.name))
	}
	in := &d.c.inputs[len(d.c.inputs)-1]
	in.colComb = &spec
	in.cols = spec.OutKind
	return d
}

// ---------------------------------------------------------------------------
// Emitter-side columnar routing.
// ---------------------------------------------------------------------------

// How the rows of one typed emission travel one subscription.
const (
	rowsBoxed  = iota // as boxed events, through route/wire/push
	rowsFolded        // folded into the edge's typed combining buffers
	rowsTyped         // appended to the edge's column buffers
)

// rowMode classifies a subscription for rows of the given kind. The
// serialization round-trip (SetSerializer) has no typed form, so its
// presence forces the boxed fallback, as does a kind mismatch or a
// boxed edge; the networked transport serializes whole column batches
// at the link layer instead (net.go).
func (em *emitter) rowMode(sub *subscription, kind *stream.ColKind) int {
	switch {
	case em.ser != nil:
		return rowsBoxed
	case sub.colComb != nil && sub.colComb.InKind == kind:
		return rowsFolded
	case sub.cols == kind:
		return rowsTyped
	}
	return rowsBoxed
}

// stageCols is the staging half of one typed emission (block[i], see
// emitter.send): for every typed subscription it fires the per-row
// fault hooks the rows owe, for a boxed one it routes the rows into
// out, and it records the batch itself as a routedMsg with a nil sub.
// Nothing reaches a transport buffer here.
func (em *emitter) stageCols(cols stream.Columns, i int, out []routedMsg) []routedMsg {
	n, kind := cols.Len(), cols.Kind()
	for si := range em.rc.subs {
		sub := &em.rc.subs[si]
		mode := em.rowMode(sub, kind)
		if mode == rowsBoxed {
			for r := 0; r < n; r++ {
				out = em.routeTo(si, cols.EventAt(r), out)
			}
			continue
		}
		if em.faults != nil && em.faults.corrupt != nil {
			sends := n
			if mode == rowsTyped && sub.grouping == Broadcast {
				sends *= len(sub.to.inboxes)
			}
			for ; sends > 0; sends-- {
				em.faults.onSend(em.rc.name, em.instance, sub.to.name)
			}
		}
	}
	return append(out, routedMsg{si: i})
}

// pushCols is the delivery half of a typed emission: it moves the
// batch's rows into every typed subscription's buffers — by typed
// combiner fold or typed row append, no boxing — and releases the
// batch. It cannot panic (combiner folds are pure by the template
// contract).
func (em *emitter) pushCols(cols stream.Columns) {
	n, kind := cols.Len(), cols.Kind()
	em.stats.AddEmitted(int64(n))
	for si := range em.rc.subs {
		sub := &em.rc.subs[si]
		bufs := em.bufs[em.bufBase[si]:][:len(sub.to.inboxes)]
		switch mode := em.rowMode(sub, kind); {
		case mode == rowsBoxed:
		case mode == rowsFolded:
			// The grouping is Fields (validated), so the destination
			// comes from the row's key hash.
			for i := 0; i < n; i++ {
				b := &bufs[cols.HashAt(i)%len(bufs)]
				c := b.colComb
				before := c.Len()
				if !c.Fold(cols, i) {
					c.FoldEvent(cols.EventAt(i))
				}
				em.colpending += c.Len() - before
				if c.Len() >= b.colCap {
					em.drainColComb(b)
				}
			}
		case sub.grouping == Shuffle:
			k := em.rrNext[si]
			for i := 0; i < n; i++ {
				em.appendCol(&bufs[k], cols, i)
				k = (k + 1) % len(bufs)
			}
			em.rrNext[si] = k
		case sub.grouping == Fields:
			for i := 0; i < n; i++ {
				em.appendCol(&bufs[cols.HashAt(i)%len(bufs)], cols, i)
			}
		default: // Global: instance 0; Broadcast: every instance
			if sub.grouping == Global {
				bufs = bufs[:1]
			}
			for k := range bufs {
				for i := 0; i < n; i++ {
					em.appendCol(&bufs[k], cols, i)
				}
			}
		}
	}
	cols.Release()
}

// appendCol appends one row of src to a destination's column buffer,
// sealing and flushing when the buffer reaches the batch size — one
// full column batch per flushed vector, which keeps the in-flight
// bound (ChannelCap × BatchSize events per edge) intact.
func (em *emitter) appendCol(b *outBuf, src stream.Columns, i int) {
	cb := b.colBuf
	if cb == nil {
		cb = b.colKind.Get()
		b.colBuf = cb
	}
	cb.AppendRow(src, i)
	em.colpending++
	if cb.Len() >= em.batchSize {
		em.sealCols(b)
		em.flushBuf(b)
	}
}

// sealCols closes a destination's open column buffer into one cols
// message on the transport buffer. Nil-safe and a no-op when nothing
// is buffered. Ownership of the batch passes to the message; the
// receiver (or the net sink, after serializing) releases it.
func (em *emitter) sealCols(b *outBuf) {
	cb := b.colBuf
	if cb == nil || cb.Len() == 0 {
		return
	}
	b.colBuf = nil
	em.colpending -= cb.Len()
	em.appendRaw(b, message{ch: b.colCh, cols: cb, sent: em.now})
}

// colCombine folds one boxed event into a columnar combining buffer
// (the marker-free fallback rows of a columnar combined edge), with
// the same cap discipline as the typed fold in pushCols.
func (em *emitter) colCombine(b *outBuf, e stream.Event) {
	c := b.colComb
	before := c.Len()
	c.FoldEvent(e)
	em.colpending += c.Len() - before
	if c.Len() >= b.colCap {
		em.drainColComb(b)
	}
}

// drainColComb drains a columnar combining buffer into its
// destination's column buffer — one (key, partial aggregate) row per
// distinct key, in first-seen key order — sealing and flushing if the
// drain filled a batch. Nil-safe and a no-op when nothing is buffered.
func (em *emitter) drainColComb(b *outBuf) {
	c := b.colComb
	if c == nil || c.Len() == 0 {
		return
	}
	keys := c.Len()
	if b.colBuf == nil {
		b.colBuf = b.colKind.Get()
	}
	ins, outs := c.Drain(b.colBuf)
	em.stats.AddCombinedIn(int64(ins))
	em.stats.AddCombinedOut(int64(outs))
	// Buffered keys became buffered rows; both count toward colpending,
	// so the net change is outs - keys (zero: a drain moves every key).
	em.colpending += outs - keys
	if b.colBuf.Len() >= em.batchSize {
		em.sealCols(b)
		em.flushBuf(b)
	}
}

// ---------------------------------------------------------------------------
// Receiver-side MRG alignment.
// ---------------------------------------------------------------------------

// entry is one unit of executor traffic at rest: a boxed event (item or
// marker) or a column batch. Merger channels, replay lists and the
// per-block output buffer all hold entries.
type entry struct {
	ev   stream.Event
	cols stream.Columns
}

// rows is the number of events the entry stands for.
func (e entry) rows() int {
	if e.cols != nil {
		return e.cols.Len()
	}
	return 1
}

type colBlock struct {
	items []entry
	mark  stream.Marker
}

// colMerge is the runtime's MRG merger. It follows stream.MergeState
// exactly — blocks close on markers, a block flushes when every channel
// closed it, the merged marker carries the maximum timestamp — over
// inputs that interleave boxed events and column batches, buffering
// batches whole so alignment does not force reboxing (merge_test.go
// holds the two together).
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
	open   [][]entry
	// dev/dcols deliver one merged boxed event / column batch. dcols
	// borrows the batch: the merger keeps ownership.
	dev   func(stream.Event)
	dcols func(stream.Columns)
	// free recycles popped blocks' item slices.
	free [][]entry
}

func newColMerge(n int, dev func(stream.Event), dcols func(stream.Columns)) *colMerge {
	return &colMerge{queued: make([][]colBlock, n), open: make([][]entry, n), dev: dev, dcols: dcols}
}

// Channels returns the merger's input channel count.
func (m *colMerge) Channels() int { return len(m.open) }

// Next consumes one boxed event from channel ch. The event is buffered
// before any consumer code runs.
func (m *colMerge) Next(ch int, e stream.Event) {
	if !e.IsMarker {
		m.add(ch, entry{ev: e})
		return
	}
	m.queued[ch] = append(m.queued[ch], colBlock{items: m.open[ch], mark: e.Marker})
	m.open[ch] = nil
	m.advance()
}

// NextCols consumes one column batch from channel ch, taking ownership.
func (m *colMerge) NextCols(ch int, c stream.Columns) { m.add(ch, entry{cols: c}) }

func (m *colMerge) add(ch int, e entry) {
	if m.open[ch] == nil && len(m.free) > 0 {
		m.open[ch] = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	}
	m.open[ch] = append(m.open[ch], e)
}

func (m *colMerge) deliver(items []entry) {
	for _, it := range items {
		if it.cols != nil {
			m.dcols(it.cols)
		} else {
			m.dev(it.ev)
		}
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

// release returns the entries' batches to their arenas and clears the
// entries, so a recycled slice holds no stale reference.
func release(items []entry) {
	for i := range items {
		if c := items[i].cols; c != nil {
			c.Release()
		}
		items[i] = entry{}
	}
}

// Pending returns, per channel, every entry the merger has not yet
// popped: the items and marker of each queued block, then the open
// block's items. Feeding each sequence into a fresh merger on the same
// channel reproduces this merger's state; the batches move with the
// entries, so the caller must abandon this merger.
func (m *colMerge) Pending() [][]entry {
	out := make([][]entry, len(m.open))
	for ch := range out {
		for _, b := range m.queued[ch] {
			out[ch] = append(out[ch], b.items...)
			out[ch] = append(out[ch], entry{ev: stream.Mark(b.mark)})
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
