package core

import "fmt"

// This file is the keyed-state store under every stateful template and
// its one checkpoint codec. Table 3's memory has a single shape — a
// record per key plus the order keys were first seen in — and each
// template is that shape with its own record type R:
//
//   - KeyedOrdered: the state S;
//   - KeyedUnordered: kuRec{Agg, State}, plus startS as the instance
//     scalar;
//   - SlidingAggregate: keyWindow (the open block and the FIFO), plus
//     the block index as the instance scalar;
//   - Sort: the block's buffered values;
//   - the typed combining buffer (batch.go): the partial aggregate.
//
// Snapshot, Restore and Reshard (reshard.go) are written once, over
// the record type.

// keyed is the keyed-state store: index maps a key to its slot in the
// dense recs. Slots are numbered in first-seen order, so keys[i] is
// slot i's key and a loop over the slots visits keys deterministically
// (any order yields an equivalent output trace, but determinism keeps
// snapshots byte-stable and test failures readable).
type keyed[K comparable, R any] struct {
	index map[K]int
	keys  []K
	recs  []R
}

// slot returns k's slot; born reports a slot this call added, holding
// the zero R for the caller to initialise.
func (s *keyed[K, R]) slot(k K) (i int, born bool) {
	if i, ok := s.index[k]; ok {
		return i, false
	}
	return s.add(k), true
}

// add appends a slot for k.
func (s *keyed[K, R]) add(k K) int {
	if s.index == nil {
		s.index = make(map[K]int)
	}
	i := len(s.keys)
	s.index[k] = i
	s.keys = append(s.keys, k)
	s.recs = append(s.recs, *new(R))
	return i
}

// reset empties the store, keeping its memory but no record.
func (s *keyed[K, R]) reset() {
	for _, k := range s.keys {
		delete(s.index, k)
	}
	s.keys = s.keys[:0]
	clear(s.recs)
	s.recs = s.recs[:0]
}

// restore replaces the store's contents; a key twice is corrupt bytes,
// and leaves the store as it was.
func (s *keyed[K, R]) restore(keys []K, recs []R) error {
	index := make(map[K]int, len(keys))
	for i, k := range keys {
		if _, dup := index[k]; dup {
			return fmt.Errorf("%w: key %v twice", ErrSnapshotBytes, k)
		}
		index[k] = i
	}
	s.index, s.keys, s.recs = index, keys, recs
	return nil
}

// keyedState is a stateful template instance's checkpointable state:
// the store plus an optional one-row instance scalar X (struct{} for
// none). Instances embed it, which makes every keyed template a
// Snapshotter and a Resharder through the one implementation below.
type keyedState[K comparable, R, X any] struct {
	keyed[K, R]
	scalar X
	// template names the layout; flat, when set, writes the records
	// (ragged ones) instead of one column of R.
	template string
	flat     func(*codecDesc) recCodec[R]
	codec    *keyedCodec[K, R, X] // built at the first snapshot or restore
}

// keyedCodec is a store's snapshot layout: the layout fingerprint, then
// the key column, the record columns and the scalar.
type keyedCodec[K comparable, R, X any] struct {
	fp     uint64
	text   string
	keys   column[K]
	recs   recCodec[R]
	scalar column[X]
}

func (st *keyedState[K, R, X]) newCodec() *keyedCodec[K, R, X] {
	d := newCodecDesc(st.template)
	c := &keyedCodec[K, R, X]{keys: columnOf[K](d, "keys")}
	if st.flat != nil {
		c.recs = st.flat(d)
	} else {
		c.recs = columnOf[R](d, "recs")
	}
	c.scalar = columnOf[X](d, "scalar")
	c.fp, c.text = d.finish()
	return c
}

func (st *keyedState[K, R, X]) codecOf() *keyedCodec[K, R, X] {
	if st.codec == nil {
		st.codec = st.newCodec()
	}
	return st.codec
}

func (st *keyedState[K, R, X]) snapshotLayout() string { return st.codecOf().text }

// AppendSnapshot implements Snapshotter: the store's columns as they
// are, so a cut of fixed-layout records costs one copy of the state
// and, into a buffer reused across cuts, no allocation.
func (st *keyedState[K, R, X]) AppendSnapshot(dst []byte) ([]byte, error) {
	return st.codecOf().append(dst, st.keys, st.recs, st.scalar)
}

// Restore implements Snapshotter.
func (st *keyedState[K, R, X]) Restore(data []byte) error {
	keys, recs, x, err := st.codecOf().decode(data)
	if err == nil {
		err = st.restore(keys, recs)
	}
	if err == nil {
		st.scalar = x
	}
	return err
}

func (c *keyedCodec[K, R, X]) append(dst []byte, keys []K, recs []R, x X) ([]byte, error) {
	w := snapWriter{b: dst}
	w.header(c.fp, len(keys), c.keys.size()+c.recs.size(), c.scalar.size())
	w = c.keys.put(w, keys)
	w = c.recs.put(w, recs)
	w = c.scalar.put(w, []X{x})
	return w.b, w.err
}

func (c *keyedCodec[K, R, X]) decode(data []byte) (keys []K, recs []R, x X, err error) {
	r := snapReader{b: data}
	rows := r.header(c.fp)
	keys = c.keys.get(&r, rows)
	recs = c.recs.get(&r, rows)
	if col := c.scalar.get(&r, 1); len(col) == 1 {
		x = col[0]
	}
	return keys, recs, x, r.done()
}

// recCodec writes a store's records: one column of R (column[R]
// itself), or a raggedRecs for records holding a variable number of
// values. The writer travels by value, so the interface call keeps a
// cut allocation-free.
type recCodec[R any] interface {
	size() int // raw bytes per record, to size the buffer up front
	put(w snapWriter, recs []R) snapWriter
	get(r *snapReader, rows int) []R
}

// raggedRecs writes records that hold a variable number of values E:
// a head column H and a length column, then every record's values
// flattened in slot order. split appends a record's values to vals
// and returns its head; join rebuilds a record from the two.
type raggedRecs[R, H, E any] struct {
	head  column[H]
	lens  column[uint32]
	vals  column[E]
	split func(r *R, vals []E) (H, []E)
	join  func(h H, vals []E) R
}

func newRaggedRecs[R, H, E any](d *codecDesc, split func(*R, []E) (H, []E), join func(H, []E) R) *raggedRecs[R, H, E] {
	return &raggedRecs[R, H, E]{head: columnOf[H](d, "head"), lens: columnOf[uint32](d, "lens"), vals: columnOf[E](d, "vals"), split: split, join: join}
}

func (c *raggedRecs[R, H, E]) size() int { return c.head.size() + c.lens.size() }

func (c *raggedRecs[R, H, E]) put(w snapWriter, recs []R) snapWriter {
	heads, lens := make([]H, len(recs)), make([]uint32, len(recs))
	var vals []E
	for i := range recs {
		n := len(vals)
		heads[i], vals = c.split(&recs[i], vals)
		lens[i] = uint32(len(vals) - n)
	}
	w = c.head.put(w, heads)
	w = c.lens.put(w, lens)
	w.u32(len(vals))
	return c.vals.put(w, vals)
}

func (c *raggedRecs[R, H, E]) get(r *snapReader, rows int) []R {
	heads, lens := c.head.get(r, rows), c.lens.get(r, rows)
	vals := c.vals.get(r, r.u32())
	if r.err != nil {
		return nil
	}
	recs := make([]R, rows)
	at := 0
	for i, n := range lens {
		if int(n) > len(vals)-at {
			r.fail("record lengths exceed %d values", len(vals))
			return nil
		}
		recs[i] = c.join(heads[i], vals[at:at+int(n):at+int(n)])
		at += int(n)
	}
	if at != len(vals) {
		r.fail("record lengths cover %d of %d values", at, len(vals))
	}
	return recs
}
