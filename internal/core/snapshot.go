package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"sync/atomic"

	"datatrace/internal/stream"
)

// Snapshotter is the optional Instance extension for checkpointing:
// at a marker boundary (a consistent cut — every operator has fully
// processed the same prefix of blocks) an instance appends its state to
// a buffer, and a fresh instance can be restored from those bytes. The
// bytes are an isolated copy — mutating the live instance afterwards
// cannot corrupt them, exactly as a checkpoint written to stable
// storage behaves — and Restore never keeps a reference to its
// argument, so a caller may reuse one buffer for every cut.
//
// The built-in templates implement Snapshotter through one typed codec
// (below); the execution engines (internal/storm, internal/microbatch)
// use it to implement marker-aligned checkpoint/restore.
type Snapshotter interface {
	// AppendSnapshot appends the instance's state to dst.
	AppendSnapshot(dst []byte) ([]byte, error)
	// Restore replaces the instance's state with bytes AppendSnapshot
	// wrote on an instance of the same operator. On an error the
	// instance is left as it was.
	Restore(data []byte) error
}

// --- The snapshot codec ---------------------------------------------------------
//
// A snapshot is the template's layout fingerprint (8 bytes), the row
// count (4 bytes) and the template's columns, every one in the
// instance's first-seen key order. A column's bytes are the stream
// package's wire layout for its element type (stream.LayoutOf) — a
// pointer-free type is its memory, a string type offsets plus bytes —
// so one encoder serves the network and the checkpoint. Any other
// element type (pointers, slices, maps, interfaces) takes the counted
// fallback: a 4-byte length, then the column gob-encoded. The
// fingerprint hashes the template, the byte order and every column's
// layout, so bytes written for another operator type, or by a binary
// that lays the types out differently, fail Restore with a
// *SnapshotLayoutError instead of decoding into garbage. Snapshots
// never outlive one binary (an in-process run, or the re-executed
// workers of one networked run), so the format carries no version.

// ErrSnapshotBytes reports snapshot bytes that do not decode:
// truncated, garbled, or inconsistent (a key twice, lengths that do
// not add up, bytes left over).
var ErrSnapshotBytes = errors.New("core: snapshot bytes do not decode")

// SnapshotLayoutError reports snapshot bytes written with a layout
// other than the restoring operator's.
type SnapshotLayoutError struct{ Want, Got uint64 }

func (e *SnapshotLayoutError) Error() string {
	return fmt.Sprintf("core: snapshot has layout %016x, the operator's is %016x", e.Got, e.Want)
}

// gobColumns counts the columns written through the gob fallback.
var gobColumns atomic.Int64

// SnapshotGobColumns returns how many snapshot columns this process
// has written through the gob fallback. On state that has a wire
// layout it stays put; SnapshotLayout says statically which columns
// fall back.
func SnapshotGobColumns() int64 { return gobColumns.Load() }

// SnapshotLayout describes how an instance's snapshot is written — the
// template and one name=layout per column, e.g. "ku keys=raw/8
// aggs=raw/8 states=gob" — or "" for an instance without state.
func SnapshotLayout(inst Instance) string {
	if l, ok := inst.(interface{ snapshotLayout() string }); ok {
		return l.snapshotLayout()
	}
	return ""
}

// column is one column's codec: its element type's wire layout, or
// gob when Raw is false.
type column[T any] struct{ l stream.Layout }

// codecDesc accumulates a codec's fingerprint text and its readable
// layout while its columns are decided.
type codecDesc struct{ fp, text []byte }

func newCodecDesc(template string) *codecDesc {
	return &codecDesc{fp: []byte(template + ";" + binary.NativeEndian.String() + ";"), text: []byte(template)}
}

// columnOf decides T's layout for the column called name.
func columnOf[T any](d *codecDesc, name string) column[T] {
	t := reflect.TypeFor[T]()
	l := stream.LayoutOf(t, &d.fp)
	if !l.Raw() {
		d.fp = fmt.Appendf(d.fp, "gob %s;", t)
	}
	d.fp = append(d.fp, '|')
	d.text = fmt.Appendf(d.text, " %s=%s", name, l)
	return column[T]{l}
}

// finish returns the fingerprint and the readable layout.
func (d *codecDesc) finish() (uint64, string) {
	h := fnv.New64a()
	h.Write(d.fp)
	return h.Sum64(), string(d.text)
}

// snapWriter appends one snapshot; err is sticky.
type snapWriter struct {
	b   []byte
	err error
}

// header starts a snapshot of rows rows, growing the buffer by the
// size its raw columns will take (rowSize per row, plus extra; a gob
// column counts 0 and grows the buffer as it is written).
func (w *snapWriter) header(fp uint64, rows, rowSize, extra int) {
	w.b = slices.Grow(w.b, 12+rows*rowSize+extra)
	w.b = binary.LittleEndian.AppendUint64(w.b, fp)
	w.u32(rows)
}

func (w *snapWriter) u32(n int) { w.b = binary.LittleEndian.AppendUint32(w.b, uint32(n)) }

// appendWriter is an io.Writer appending to a byte slice.
type appendWriter struct{ b []byte }

func (a *appendWriter) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

// put appends one column. An empty gob column writes nothing.
func put[T any](w *snapWriter, c column[T], col []T) {
	if w.err != nil {
		return
	}
	if c.l.Raw() {
		w.b = stream.AppendColumn(w.b, col, c.l)
		return
	}
	if len(col) == 0 {
		return
	}
	gobColumns.Add(1)
	at := len(w.b)
	aw := appendWriter{binary.LittleEndian.AppendUint32(w.b, 0)}
	// gob gets a copy, so the column itself does not escape and a
	// caller's one-row literal stays on its stack.
	if err := gob.NewEncoder(&aw).Encode(append([]T(nil), col...)); err != nil {
		w.err = fmt.Errorf("core: snapshot column of %v: %w", reflect.TypeFor[T](), err)
		return
	}
	w.b = aw.b
	binary.LittleEndian.PutUint32(w.b[at:], uint32(len(w.b)-at-4))
}

// snapReader decodes one snapshot; err is sticky, and a read after an
// error yields nothing.
type snapReader struct {
	b   []byte
	err error
}

// header checks the fingerprint and returns the row count.
func (r *snapReader) header(fp uint64) int {
	if len(r.b) < 8 {
		r.fail("%d bytes, no header", len(r.b))
		return 0
	}
	if got := binary.LittleEndian.Uint64(r.b); got != fp {
		r.err = &SnapshotLayoutError{Want: fp, Got: got}
		return 0
	}
	r.b = r.b[8:]
	return r.u32()
}

func (r *snapReader) u32() int {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.fail("truncated count")
		return 0
	}
	n := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return int(n)
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrSnapshotBytes}, args...)...)
	}
}

// done returns the decode's error, failing on bytes left over.
func (r *snapReader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// get reads one column of rows rows into a fresh slice.
func get[T any](r *snapReader, c column[T], rows int) []T {
	if r.err != nil || rows == 0 {
		return nil
	}
	if c.l.Raw() {
		col, n, err := stream.ReadColumn[T](nil, rows, r.b, c.l)
		if err != nil {
			r.err = fmt.Errorf("%w: %w", ErrSnapshotBytes, err)
			return nil
		}
		r.b = r.b[n:]
		return col
	}
	n := r.u32()
	if r.err == nil && n > len(r.b) {
		r.fail("gob column of %d bytes in %d", n, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	var col []T
	if err := gob.NewDecoder(bytes.NewReader(r.b[:n])).Decode(&col); err != nil {
		r.fail("gob column: %v", err)
		return nil
	}
	if len(col) != rows {
		r.fail("gob column of %d rows, want %d", len(col), rows)
		return nil
	}
	r.b = r.b[n:]
	return col
}

// getOne reads a one-row column.
func getOne[T any](r *snapReader, c column[T]) (v T) {
	if col := get(r, c, 1); len(col) == 1 {
		v = col[0]
	}
	return v
}

// indexKeys maps every key to its row; a key twice is corrupt bytes.
func indexKeys[K comparable](keys []K) (map[K]int, error) {
	index := make(map[K]int, len(keys))
	for i, k := range keys {
		if _, dup := index[k]; dup {
			return nil, fmt.Errorf("%w: key %v twice", ErrSnapshotBytes, k)
		}
		index[k] = i
	}
	return index, nil
}

// ragged splits a flattened column into per-row slices of the given
// lengths, which must add up to len(flat).
func ragged[T any](flat []T, lens []uint32) ([][]T, error) {
	out := make([][]T, len(lens))
	at := 0
	for i, n := range lens {
		if int(n) > len(flat)-at {
			return nil, fmt.Errorf("%w: row lengths exceed %d values", ErrSnapshotBytes, len(flat))
		}
		out[i] = flat[at : at+int(n) : at+int(n)]
		at += int(n)
	}
	if at != len(flat) {
		return nil, fmt.Errorf("%w: row lengths cover %d of %d values", ErrSnapshotBytes, at, len(flat))
	}
	return out, nil
}

// --- Stateless: trivially snapshotable (no state) ---------------------------

// AppendSnapshot implements Snapshotter (stateless operators have
// nothing to save; the method exists so every template instance is
// uniformly checkpointable).
func (in *statelessInstance[K, V, L, W]) AppendSnapshot(dst []byte) ([]byte, error) {
	return dst, nil
}

// Restore implements Snapshotter.
func (in *statelessInstance[K, V, L, W]) Restore(data []byte) error { return nil }

// stateless marks the instance for IsStateless.
func (in *statelessInstance[K, V, L, W]) stateless() {}

// IsStateless reports whether an instance carries no state between
// events, so its snapshot is always empty. SnapshotInstance returns
// the empty snapshot for such instances without calling the instance —
// an executor checkpoints at every marker cut, and most bolts of a
// pipeline are stateless.
func IsStateless(inst Instance) bool {
	_, ok := inst.(interface{ stateless() })
	return ok
}

// --- KeyedOrdered ------------------------------------------------------------

// koSnap is a keyed-ordered instance's snapshot: per-key state in
// first-seen key order.
type koSnap[K comparable, S any] struct {
	Keys   []K
	States []S
}

// koCodec is koSnap's layout.
type koCodec[K comparable, S any] struct {
	fp     uint64
	text   string
	keys   column[K]
	states column[S]
}

func newKOCodec[K comparable, S any]() *koCodec[K, S] {
	d := newCodecDesc("ko")
	c := &koCodec[K, S]{keys: columnOf[K](d, "keys"), states: columnOf[S](d, "states")}
	c.fp, c.text = d.finish()
	return c
}

func (c *koCodec[K, S]) append(dst []byte, s *koSnap[K, S]) ([]byte, error) {
	w := snapWriter{b: dst}
	w.header(c.fp, len(s.Keys), c.keys.l.Size()+c.states.l.Size(), 0)
	put(&w, c.keys, s.Keys)
	put(&w, c.states, s.States)
	return w.b, w.err
}

func (c *koCodec[K, S]) decode(data []byte) (s koSnap[K, S], err error) {
	r := snapReader{b: data}
	rows := r.header(c.fp)
	s.Keys = get(&r, c.keys, rows)
	s.States = get(&r, c.states, rows)
	return s, r.done()
}

func (in *keyedOrderedInstance[K, V, W, S]) codecOf() *koCodec[K, S] {
	if in.codec == nil {
		in.codec = newKOCodec[K, S]()
	}
	return in.codec
}

func (in *keyedOrderedInstance[K, V, W, S]) snapshotLayout() string { return in.codecOf().text }

// AppendSnapshot implements Snapshotter.
func (in *keyedOrderedInstance[K, V, W, S]) AppendSnapshot(dst []byte) ([]byte, error) {
	return in.codecOf().append(dst, &koSnap[K, S]{Keys: in.keys, States: in.states})
}

// Restore implements Snapshotter.
func (in *keyedOrderedInstance[K, V, W, S]) Restore(data []byte) error {
	s, err := in.codecOf().decode(data)
	if err != nil {
		return err
	}
	index, err := indexKeys(s.Keys)
	if err != nil {
		return err
	}
	in.index, in.keys, in.states = index, s.Keys, s.States
	return nil
}

// --- KeyedUnordered ----------------------------------------------------------

// kuSnap is a keyed-unordered instance's snapshot — Table 3's memory:
// per-key {agg, state} in first-seen key order, and startS.
type kuSnap[K comparable, S, A any] struct {
	Keys   []K
	Aggs   []A
	States []S
	StartS S
}

// kuCodec is kuSnap's layout; StartS is a one-row states column.
type kuCodec[K comparable, S, A any] struct {
	fp     uint64
	text   string
	keys   column[K]
	aggs   column[A]
	states column[S]
}

func newKUCodec[K comparable, S, A any]() *kuCodec[K, S, A] {
	d := newCodecDesc("ku")
	c := &kuCodec[K, S, A]{keys: columnOf[K](d, "keys"), aggs: columnOf[A](d, "aggs"), states: columnOf[S](d, "states")}
	c.fp, c.text = d.finish()
	return c
}

func (c *kuCodec[K, S, A]) append(dst []byte, s *kuSnap[K, S, A]) ([]byte, error) {
	w := snapWriter{b: dst}
	w.header(c.fp, len(s.Keys), c.keys.l.Size()+c.aggs.l.Size()+c.states.l.Size(), c.states.l.Size())
	put(&w, c.keys, s.Keys)
	put(&w, c.aggs, s.Aggs)
	put(&w, c.states, s.States)
	put(&w, c.states, []S{s.StartS})
	return w.b, w.err
}

func (c *kuCodec[K, S, A]) decode(data []byte) (s kuSnap[K, S, A], err error) {
	r := snapReader{b: data}
	rows := r.header(c.fp)
	s.Keys = get(&r, c.keys, rows)
	s.Aggs = get(&r, c.aggs, rows)
	s.States = get(&r, c.states, rows)
	s.StartS = getOne(&r, c.states)
	return s, r.done()
}

func (in *keyedUnorderedInstance[K, V, L, W, S, A]) codecOf() *kuCodec[K, S, A] {
	if in.codec == nil {
		in.codec = newKUCodec[K, S, A]()
	}
	return in.codec
}

func (in *keyedUnorderedInstance[K, V, L, W, S, A]) snapshotLayout() string {
	return in.codecOf().text
}

// AppendSnapshot implements Snapshotter: the instance's columns as
// they are, so a cut costs one copy of the state and, into a buffer
// reused across cuts, no allocation.
func (in *keyedUnorderedInstance[K, V, L, W, S, A]) AppendSnapshot(dst []byte) ([]byte, error) {
	return in.codecOf().append(dst, &kuSnap[K, S, A]{Keys: in.keys, Aggs: in.aggs, States: in.states, StartS: in.startS})
}

// Restore implements Snapshotter.
func (in *keyedUnorderedInstance[K, V, L, W, S, A]) Restore(data []byte) error {
	s, err := in.codecOf().decode(data)
	if err != nil {
		return err
	}
	index, err := indexKeys(s.Keys)
	if err != nil {
		return err
	}
	in.index, in.keys, in.aggs, in.states, in.startS = index, s.Keys, s.Aggs, s.States, s.StartS
	return nil
}

// --- Sort ---------------------------------------------------------------------

// sortSnap is a sort instance's snapshot: each buffered key's values,
// flattened in key order, Lens[i] of them for Keys[i]. At a marker
// boundary the buffers are empty, but mid-block checkpoints are
// supported for completeness.
type sortSnap[K comparable, V any] struct {
	Keys []K
	Lens []uint32
	Vals []V
}

// sortCodec is sortSnap's layout.
type sortCodec[K comparable, V any] struct {
	fp   uint64
	text string
	keys column[K]
	lens column[uint32]
	vals column[V]
}

func newSortCodec[K comparable, V any]() *sortCodec[K, V] {
	d := newCodecDesc("sort")
	c := &sortCodec[K, V]{keys: columnOf[K](d, "keys"), lens: columnOf[uint32](d, "lens"), vals: columnOf[V](d, "vals")}
	c.fp, c.text = d.finish()
	return c
}

func (c *sortCodec[K, V]) append(dst []byte, s *sortSnap[K, V]) ([]byte, error) {
	w := snapWriter{b: dst}
	w.header(c.fp, len(s.Keys), c.keys.l.Size()+c.lens.l.Size(), 4+len(s.Vals)*c.vals.l.Size())
	put(&w, c.keys, s.Keys)
	put(&w, c.lens, s.Lens)
	w.u32(len(s.Vals))
	put(&w, c.vals, s.Vals)
	return w.b, w.err
}

func (c *sortCodec[K, V]) decode(data []byte) (s sortSnap[K, V], bufs [][]V, err error) {
	r := snapReader{b: data}
	rows := r.header(c.fp)
	s.Keys = get(&r, c.keys, rows)
	s.Lens = get(&r, c.lens, rows)
	s.Vals = get(&r, c.vals, r.u32())
	if err := r.done(); err != nil {
		return s, nil, err
	}
	bufs, err = ragged(s.Vals, s.Lens)
	return s, bufs, err
}

func (in *sortInstance[K, V]) codecOf() *sortCodec[K, V] {
	if in.codec == nil {
		in.codec = newSortCodec[K, V]()
	}
	return in.codec
}

func (in *sortInstance[K, V]) snapshotLayout() string { return in.codecOf().text }

// AppendSnapshot implements Snapshotter.
func (in *sortInstance[K, V]) AppendSnapshot(dst []byte) ([]byte, error) {
	s := sortSnap[K, V]{Keys: in.keys, Lens: make([]uint32, len(in.keys))}
	for i, k := range in.keys {
		s.Lens[i] = uint32(len(in.buf[k]))
		s.Vals = append(s.Vals, in.buf[k]...)
	}
	return in.codecOf().append(dst, &s)
}

// Restore implements Snapshotter.
func (in *sortInstance[K, V]) Restore(data []byte) error {
	s, bufs, err := in.codecOf().decode(data)
	if err != nil {
		return err
	}
	if _, err := indexKeys(s.Keys); err != nil {
		return err
	}
	in.buf = make(map[K][]V, len(s.Keys))
	for i, k := range s.Keys {
		in.buf[k] = bufs[i]
	}
	in.keys = s.Keys
	return nil
}

// --- SlidingAggregate ----------------------------------------------------------

// slidingSnap is a sliding-aggregate instance's snapshot: per key (in
// first-seen order) the open block's aggregate and dirty bit, and the
// window's live entries in FIFO order, flattened — Lens[i] (block
// index, value) pairs for Keys[i]. BlockIdx is a one-row column.
type slidingSnap[K comparable, A any] struct {
	Keys     []K
	Cur      []A
	Dirty    []bool
	Lens     []uint32
	Idx      []int64
	Vals     []A
	BlockIdx int64
}

// slidingCodec is slidingSnap's layout.
type slidingCodec[K comparable, A any] struct {
	fp    uint64
	text  string
	keys  column[K]
	aggs  column[A] // Cur and Vals
	dirty column[bool]
	lens  column[uint32]
	idx   column[int64] // Idx and BlockIdx
}

func newSlidingCodec[K comparable, A any]() *slidingCodec[K, A] {
	d := newCodecDesc("sliding")
	c := &slidingCodec[K, A]{
		keys: columnOf[K](d, "keys"), aggs: columnOf[A](d, "aggs"), dirty: columnOf[bool](d, "dirty"),
		lens: columnOf[uint32](d, "lens"), idx: columnOf[int64](d, "idx"),
	}
	c.fp, c.text = d.finish()
	return c
}

func (c *slidingCodec[K, A]) append(dst []byte, s *slidingSnap[K, A]) ([]byte, error) {
	w := snapWriter{b: dst}
	rowSize := c.keys.l.Size() + c.aggs.l.Size() + c.dirty.l.Size() + c.lens.l.Size()
	w.header(c.fp, len(s.Keys), rowSize, 12+len(s.Vals)*(c.idx.l.Size()+c.aggs.l.Size()))
	put(&w, c.idx, []int64{s.BlockIdx})
	put(&w, c.keys, s.Keys)
	put(&w, c.aggs, s.Cur)
	put(&w, c.dirty, s.Dirty)
	put(&w, c.lens, s.Lens)
	w.u32(len(s.Vals))
	put(&w, c.idx, s.Idx)
	put(&w, c.aggs, s.Vals)
	return w.b, w.err
}

func (c *slidingCodec[K, A]) decode(data []byte) (s slidingSnap[K, A], err error) {
	r := snapReader{b: data}
	rows := r.header(c.fp)
	s.BlockIdx = getOne(&r, c.idx)
	s.Keys = get(&r, c.keys, rows)
	s.Cur = get(&r, c.aggs, rows)
	s.Dirty = get(&r, c.dirty, rows)
	s.Lens = get(&r, c.lens, rows)
	entries := r.u32()
	s.Idx = get(&r, c.idx, entries)
	s.Vals = get(&r, c.aggs, entries)
	return s, r.done()
}

func (in *slidingInstance[K, V, A]) codecOf() *slidingCodec[K, A] {
	if in.codec == nil {
		in.codec = newSlidingCodec[K, A]()
	}
	return in.codec
}

func (in *slidingInstance[K, V, A]) snapshotLayout() string { return in.codecOf().text }

// AppendSnapshot implements Snapshotter.
func (in *slidingInstance[K, V, A]) AppendSnapshot(dst []byte) ([]byte, error) {
	n := len(in.keys)
	s := slidingSnap[K, A]{Keys: in.keys, Cur: make([]A, n), Dirty: make([]bool, n), Lens: make([]uint32, n), BlockIdx: in.blockIdx}
	for i, k := range in.keys {
		w := in.wins[k]
		s.Cur[i], s.Dirty[i] = w.cur, w.dirty
		s.Lens[i] = uint32(w.fifo.Len())
		// Live entries in FIFO order: front stack top-down, then back
		// stack bottom-up.
		for j := len(w.fifo.front) - 1; j >= 0; j-- {
			s.Idx = append(s.Idx, w.fifo.front[j].idx)
			s.Vals = append(s.Vals, w.fifo.front[j].val)
		}
		for _, e := range w.fifo.back {
			s.Idx = append(s.Idx, e.idx)
			s.Vals = append(s.Vals, e.val)
		}
	}
	return in.codecOf().append(dst, &s)
}

// Restore implements Snapshotter.
func (in *slidingInstance[K, V, A]) Restore(data []byte) error {
	s, err := in.codecOf().decode(data)
	if err != nil {
		return err
	}
	if _, err := indexKeys(s.Keys); err != nil {
		return err
	}
	idx, err := ragged(s.Idx, s.Lens)
	if err != nil {
		return err
	}
	vals, _ := ragged(s.Vals, s.Lens) // len(Vals) == len(Idx): one count
	wins := make(map[K]*keyWindow[A], len(s.Keys))
	for i, k := range s.Keys {
		w := &keyWindow[A]{cur: s.Cur[i], dirty: s.Dirty[i], fifo: newFifoAgg(in.op.ID, in.op.Combine)}
		for j, bi := range idx[i] {
			w.fifo.Push(bi, vals[i][j])
		}
		wins[k] = w
	}
	in.wins, in.keys, in.blockIdx = wins, s.Keys, s.BlockIdx
	return nil
}

// --- Engine entry points ----------------------------------------------------------

// CanSnapshot reports whether an instance supports checkpointing.
// Execution engines use it to decide, before deployment, whether an
// operator can participate in marker-cut recovery.
func CanSnapshot(inst Instance) bool {
	_, ok := inst.(Snapshotter)
	return ok
}

// AppendSnapshotInstance appends an instance's snapshot to dst: nothing
// for an instance that is stateless or cannot checkpoint.
func AppendSnapshotInstance(dst []byte, inst Instance) ([]byte, error) {
	s, ok := inst.(Snapshotter)
	if !ok || IsStateless(inst) {
		return dst, nil
	}
	return s.AppendSnapshot(dst)
}

// SnapshotInstance serializes an instance's state into a fresh buffer,
// returning nil bytes for instances that are stateless or do not
// support checkpointing.
func SnapshotInstance(inst Instance) ([]byte, error) {
	return AppendSnapshotInstance(nil, inst)
}

// RestoreInstance restores an instance from SnapshotInstance's bytes;
// empty bytes are a no-op.
func RestoreInstance(inst Instance, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	s, ok := inst.(Snapshotter)
	if !ok {
		return nil
	}
	return s.Restore(data)
}
