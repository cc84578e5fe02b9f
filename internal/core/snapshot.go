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
// The built-in templates implement Snapshotter through their keyed
// store (keyed.go) and the column codec below; the execution engines
// (internal/storm, internal/microbatch) use it to implement
// marker-aligned checkpoint/restore.
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
// count (4 bytes) and the keyed store's columns (keyed.go), every one
// in the store's slot order. A column's bytes are the stream
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
// recs=gob scalar=raw/8" — or "" for an instance without state.
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

// columnOf decides T's layout for the column called name. A column of
// a zero-size type writes nothing and is left out of the readable
// layout.
func columnOf[T any](d *codecDesc, name string) column[T] {
	t := reflect.TypeFor[T]()
	l := stream.LayoutOf(t, &d.fp)
	if !l.Raw() {
		d.fp = fmt.Appendf(d.fp, "gob %s;", t)
	}
	d.fp = append(d.fp, '|')
	if t.Size() > 0 {
		d.text = fmt.Appendf(d.text, " %s=%s", name, l)
	}
	return column[T]{l}
}

// size is the bytes a row takes in the column, 0 for gob.
func (c column[T]) size() int { return c.l.Size() }

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

// put appends col. An empty gob column writes nothing.
func (c column[T]) put(w snapWriter, col []T) snapWriter {
	if w.err != nil {
		return w
	}
	if c.l.Raw() {
		w.b = stream.AppendColumn(w.b, col, c.l)
		return w
	}
	if len(col) == 0 {
		return w
	}
	gobColumns.Add(1)
	at := len(w.b)
	aw := appendWriter{binary.LittleEndian.AppendUint32(w.b, 0)}
	// gob gets a copy, so the column itself does not escape and a
	// caller's one-row literal stays on its stack.
	if err := gob.NewEncoder(&aw).Encode(append([]T(nil), col...)); err != nil {
		w.err = fmt.Errorf("core: snapshot column of %v: %w", reflect.TypeFor[T](), err)
		return w
	}
	w.b = aw.b
	binary.LittleEndian.PutUint32(w.b[at:], uint32(len(w.b)-at-4))
	return w
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

// get reads rows rows of the column into a fresh slice.
func (c column[T]) get(r *snapReader, rows int) []T {
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
