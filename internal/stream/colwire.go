package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"unsafe"
)

// This file gives columns a wire layout: the bytes the networked
// transport (internal/codec frames) puts on a link for one column of a
// batch, and the bytes a checkpoint (core's snapshot codec) writes for
// one column of operator state — one encoder serves both. It is the
// only file of the package that uses unsafe, and it does so only behind
// the layout decision made here once per column type (LayoutOf: when a
// kind is created, or when an operator first snapshots), by walking the
// column's reflect.Type:
//
//   - a pointer-free type (booleans, integers, floats, complex numbers,
//     and arrays and structs of those) is written as its memory:
//     rows × Size bytes, one copy; a zero-size type (Unit) writes nothing;
//   - a string type is written as rows little-endian uint32 cumulative
//     end offsets followed by the concatenated bytes;
//   - anything else (pointers, slices, maps, interfaces, structs holding
//     them) has no wire layout, and the caller falls back to gob: the
//     frame codec for the whole batch, the snapshot codec for the column.
//
// Writing memory as-is is only sound between two processes that lay the
// type out identically, so every kind carries a fingerprint of its
// layout — per column the type's size and, recursively, each field's
// offset and basic kind, plus the machine's byte order — which the
// sender transmits with the kind's first use on a link and the receiver
// compares with its own (a snapshot carries its own in its header).
// Workers of one run are re-executions of one binary, so a mismatch
// means a deployment mistake and fails the link or the restore.

// ErrWireBounds reports column bytes that do not fit what was received:
// rows × width beyond the buffer, or string offsets that decrease or
// point past the string bytes.
var ErrWireBounds = errors.New("stream: column does not fit the received bytes")

const (
	wireNone   = iota // no wire layout: gob fallback
	wireFixed         // pointer-free memory
	wireString        // offsets + bytes
)

// Layout is one column type's wire layout; the zero Layout is "none".
type Layout struct {
	mode int
	size int // bytes per element, wireFixed only
}

// LayoutOf decides a column type's layout and appends its description
// to the fingerprint text desc. The description of a type without a
// layout is not complete: callers that fall back to gob describe that
// column themselves.
func LayoutOf(t reflect.Type, desc *[]byte) Layout {
	if t.Kind() == reflect.String {
		*desc = append(*desc, "string;"...)
		return Layout{mode: wireString}
	}
	if !describeFixed(t, 0, desc) {
		return Layout{mode: wireNone}
	}
	return Layout{mode: wireFixed, size: int(t.Size())}
}

// Raw reports whether the layout writes the column without gob: as its
// memory, or as offsets plus bytes.
func (l Layout) Raw() bool { return l.mode != wireNone }

// Size is the bytes one element takes in the layout: its memory size
// for a pointer-free type, 4 (its offset; the string bytes come on
// top) for a string type, 0 without a layout.
func (l Layout) Size() int {
	if l.mode == wireString {
		return 4
	}
	return l.size
}

// String names the layout: "raw/<bytes>", "string" or "gob".
func (l Layout) String() string {
	switch l.mode {
	case wireFixed:
		return fmt.Sprintf("raw/%d", l.size)
	case wireString:
		return "string"
	}
	return "gob"
}

// describeFixed reports whether t is pointer-free, appending each basic
// component's kind, size and offset from the element's start.
func describeFixed(t reflect.Type, at uintptr, desc *[]byte) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		*desc = fmt.Appendf(*desc, "%s/%d@%d;", t.Kind(), t.Size(), at)
		return true
	case reflect.Array:
		*desc = fmt.Appendf(*desc, "[%d]/%d@%d{", t.Len(), t.Size(), at)
		// One element describes them all; a zero-length array still has to
		// be of a pointer-free element type to keep the rule simple.
		ok := describeFixed(t.Elem(), 0, desc)
		*desc = append(*desc, '}')
		return ok
	case reflect.Struct:
		*desc = fmt.Appendf(*desc, "struct/%d@%d{", t.Size(), at)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !describeFixed(f.Type, f.Offset, desc) {
				return false
			}
		}
		*desc = append(*desc, '}')
		return true
	}
	return false
}

// setWire decides the kind's wire layout; newColKind calls it once.
func (k *ColKind) setWire() {
	desc := []byte(binary.NativeEndian.String() + ";")
	k.keyWire = LayoutOf(k.key, &desc)
	desc = append(desc, '|')
	k.valWire = LayoutOf(k.val, &desc)
	k.wired = k.keyWire.Raw() && k.valWire.Raw()
	h := fnv.New64a()
	h.Write(desc)
	k.fingerprint = h.Sum64()
}

// Wired reports whether batches of this kind have a wire layout: both
// columns are pointer-free or strings. AppendWire and ReadWire may be
// called on such batches only.
func (k *ColKind) Wired() bool { return k.wired }

// Fingerprint identifies the kind's memory layout in this process; two
// processes may exchange the kind's batches as raw columns only when
// their fingerprints agree.
func (k *ColKind) Fingerprint() uint64 { return k.fingerprint }

// AppendWire implements Columns.
func (c *Cols[K, V]) AppendWire(dst []byte) []byte {
	dst = AppendColumn(dst, c.Keys, c.kind.keyWire)
	return AppendColumn(dst, c.Vals, c.kind.valWire)
}

// ReadWire implements Columns.
func (c *Cols[K, V]) ReadWire(rows int, src []byte) (int, error) {
	keys, n, err := ReadColumn(c.Keys[:0], rows, src, c.kind.keyWire)
	if err != nil {
		return 0, fmt.Errorf("%s keys: %w", c.kind.name, err)
	}
	vals, m, err := ReadColumn(c.Vals[:0], rows, src[n:], c.kind.valWire)
	if err != nil {
		return 0, fmt.Errorf("%s values: %w", c.kind.name, err)
	}
	c.Keys, c.Vals = keys, vals
	return n + m, nil
}

// rawBytes views a pointer-free column's memory.
func rawBytes[T any](col []T, size int) []byte {
	if len(col) == 0 || size == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(col))), len(col)*size)
}

// asStrings views a column of a string type as []string (a defined
// string type has the layout of string).
func asStrings[T any](col []T) []string {
	return unsafe.Slice((*string)(unsafe.Pointer(unsafe.SliceData(col))), len(col))
}

// AppendColumn appends col in layout w, which must be Raw and
// LayoutOf T.
func AppendColumn[T any](dst []byte, col []T, w Layout) []byte {
	switch w.mode {
	case wireFixed:
		return append(dst, rawBytes(col, w.size)...)
	case wireString:
		strs := asStrings(col)
		end := uint32(0)
		for _, s := range strs {
			end += uint32(len(s))
			dst = binary.LittleEndian.AppendUint32(dst, end)
		}
		for _, s := range strs {
			dst = append(dst, s...)
		}
		return dst
	}
	panic("stream: AppendColumn on a type without a wire layout")
}

// ReadColumn decodes rows elements of layout w (Raw, LayoutOf T) from
// src into col's arena (grown only after the bytes that fill it are
// known to be present) and returns the column and the bytes consumed.
// The column never aliases src.
func ReadColumn[T any](col []T, rows int, src []byte, w Layout) ([]T, int, error) {
	switch w.mode {
	case wireFixed:
		if rows < 0 || w.size > 0 && rows > len(src)/w.size {
			return nil, 0, fmt.Errorf("%w: %d rows of %d bytes in %d", ErrWireBounds, rows, w.size, len(src))
		}
		n := rows * w.size
		col = resize(col, rows)
		copy(rawBytes(col, w.size), src[:n])
		return col, n, nil
	case wireString:
		if rows < 0 || rows > len(src)/4 {
			return nil, 0, fmt.Errorf("%w: %d string offsets in %d bytes", ErrWireBounds, rows, len(src))
		}
		offs, body := src[:4*rows], src[4*rows:]
		total := 0
		if rows > 0 {
			total = int(binary.LittleEndian.Uint32(offs[4*(rows-1):]))
		}
		if total > len(body) {
			return nil, 0, fmt.Errorf("%w: %d string bytes in %d", ErrWireBounds, total, len(body))
		}
		// One copy of the bytes backs every string of the column, so the
		// strings never alias the caller's buffer.
		blob := string(body[:total])
		col = resize(col, rows)
		strs := asStrings(col)
		start := 0
		for i := range strs {
			end := int(binary.LittleEndian.Uint32(offs[4*i:]))
			if end < start || end > total {
				return nil, 0, fmt.Errorf("%w: string offset %d after %d of %d", ErrWireBounds, end, start, total)
			}
			strs[i] = blob[start:end]
			start = end
		}
		return col, 4*rows + total, nil
	}
	panic("stream: ReadColumn on a type without a wire layout")
}

// resize returns col with length n, reusing its arena when it is large
// enough.
func resize[T any](col []T, n int) []T {
	if cap(col) >= n {
		return col[:n]
	}
	return make([]T, n)
}
