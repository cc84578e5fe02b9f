package stream

import (
	"encoding"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"sync"
)

// This file defines the columnar (struct-of-arrays) batch, the one
// carrier of items in the runtime. A Columns value carries a block
// fragment of items as two parallel typed slices — no per-item interface
// boxing when the kind's types are concrete — and is recycled through a
// per-kind sync.Pool. Items of an edge without a typed kind ride the
// universal kind AnyKind, whose rows are boxed (key, value) pairs.
// Markers never enter a Columns batch: the transport seals the open
// batch when a marker passes, so the buffers-empty-at-cut invariant of
// the recovery and rescale protocols is untouched.
//
// The layout is semantically invisible: a Columns batch denotes
// exactly the item sequence EventAt(0..Len), and under U(K,V) any
// interleaving of those items with other channels' items is the same
// data trace (Theorem 4.3 licenses the re-batching).

// Columns is one typed struct-of-arrays batch. The concrete type is
// always *Cols[K,V] for the kind's key and value types; untyped
// runtime code (transport, executors) manipulates batches through
// this interface, and typed code (operator templates, spouts)
// asserts down to the concrete type for tight loops.
type Columns interface {
	// Kind returns the batch's canonical layout descriptor.
	Kind() *ColKind
	// Len returns the number of rows.
	Len() int
	// EventAt boxes row i as an ordinary item event (the bridge to
	// every boxed fallback path).
	EventAt(i int) Event
	// HashAt returns DefaultHash of row i's key, computed without
	// boxing. The value is byte-identical to DefaultHash(EventAt(i).Key)
	// so fields routing agrees across the typed and boxed paths.
	HashAt(i int) int
	// Hashes appends HashAt of every row, in row order, to dst: the
	// batch's hash column, computed in one typed loop.
	Hashes(dst []int) []int
	// AppendRow appends row i of src (same kind) to this batch.
	AppendRow(src Columns, i int)
	// AppendRange appends rows lo..hi-1 of src (same kind).
	AppendRange(src Columns, lo, hi int)
	// AppendRows appends the rows of src (same kind) that rows lists, in
	// that order: a typed gather.
	AppendRows(src Columns, rows []int32)
	// AppendEvent appends a boxed item event; panics if the event's
	// key or value does not have the kind's types, and on markers. An
	// interface-typed column (AnyKind's in particular) accepts nil.
	AppendEvent(e Event)
	// Slices returns the underlying typed slices ([]K, []V) boxed as
	// any — the form a batch of a kind without a wire layout travels in.
	Slices() (keys, vals any)
	// AppendWire appends the batch's key column, then its value column,
	// to dst in the kind's wire layout (colwire.go). Only for kinds that
	// are Wired.
	AppendWire(dst []byte) []byte
	// ReadWire replaces the batch's contents with rows rows decoded from
	// the front of src, the inverse of AppendWire, reusing the batch's
	// arenas, and returns the bytes consumed. Nothing decoded aliases
	// src. On an error (ErrWireBounds) the contents are unspecified; the
	// batch may still be released.
	ReadWire(rows int, src []byte) (int, error)
	// Release resets the batch and returns it to the kind's pool. The
	// caller must not touch the batch (or aliases of its slices)
	// afterwards — dttlint rule DTT007 enforces this for operator
	// implementations. A batch has one owner at a time and is released
	// exactly once: a second Release of the same batch panics — in
	// production builds too, not only under test — because it would put
	// one arena in the pool twice and so hand it to two later owners,
	// which corrupts data silently; a crash (a restart, under marker-cut
	// recovery) is the lesser failure.
	Release()
}

// Cols is the concrete typed batch: parallel key and value columns.
type Cols[K, V any] struct {
	kind *ColKind
	hash func(k *K, scratch *[]byte) int
	// scratch is the buffer a key type that renders its own text hashes
	// into, kept across the batch's lives in the pool.
	scratch []byte
	// Keys and Vals are the parallel columns; Keys[i], Vals[i] is row i.
	Keys []K
	Vals []V
	// pooled is set while the batch sits in its kind's pool: a second
	// Release of the same batch would hand one arena to two owners, so
	// it panics instead.
	pooled bool
}

// Kind implements Columns.
func (c *Cols[K, V]) Kind() *ColKind { return c.kind }

// Len implements Columns.
func (c *Cols[K, V]) Len() int { return len(c.Keys) }

// EventAt implements Columns.
func (c *Cols[K, V]) EventAt(i int) Event { return Event{Key: c.Keys[i], Value: c.Vals[i]} }

// HashAt implements Columns.
func (c *Cols[K, V]) HashAt(i int) int { return c.hash(&c.Keys[i], &c.scratch) }

// Hashes implements Columns.
func (c *Cols[K, V]) Hashes(dst []int) []int {
	for i := range c.Keys {
		dst = append(dst, c.hash(&c.Keys[i], &c.scratch))
	}
	return dst
}

// AppendRow implements Columns.
func (c *Cols[K, V]) AppendRow(src Columns, i int) {
	s := src.(*Cols[K, V])
	c.Keys = append(c.Keys, s.Keys[i])
	c.Vals = append(c.Vals, s.Vals[i])
}

// AppendRange implements Columns.
func (c *Cols[K, V]) AppendRange(src Columns, lo, hi int) {
	s := src.(*Cols[K, V])
	c.Keys = append(c.Keys, s.Keys[lo:hi]...)
	c.Vals = append(c.Vals, s.Vals[lo:hi]...)
}

// AppendRows implements Columns.
func (c *Cols[K, V]) AppendRows(src Columns, rows []int32) {
	s, keys, vals := src.(*Cols[K, V]), c.Keys, c.Vals
	for _, r := range rows {
		keys, vals = append(keys, s.Keys[r]), append(vals, s.Vals[r])
	}
	c.Keys, c.Vals = keys, vals
}

// AppendEvent implements Columns.
func (c *Cols[K, V]) AppendEvent(e Event) {
	if e.IsMarker {
		panic("stream: marker appended to a Columns batch")
	}
	c.Keys = append(c.Keys, unbox[K](e.Key))
	c.Vals = append(c.Vals, unbox[V](e.Value))
}

// unbox is v.(T), except that a nil v is the zero T when T is an
// interface type: a nil key or value is a legal row of such a column.
func unbox[T any](v any) T {
	t, ok := v.(T)
	if !ok && (v != nil || any(t) != nil) {
		return v.(T) // panics with the runtime's conversion message
	}
	return t
}

// Append appends one typed row.
func (c *Cols[K, V]) Append(k K, v V) {
	c.Keys = append(c.Keys, k)
	c.Vals = append(c.Vals, v)
}

// Slices implements Columns.
func (c *Cols[K, V]) Slices() (any, any) { return c.Keys, c.Vals }

// Release implements Columns.
func (c *Cols[K, V]) Release() {
	if c.pooled {
		panic("stream: " + c.kind.name + " batch released twice")
	}
	c.pooled = true
	c.Keys = c.Keys[:0]
	c.Vals = c.Vals[:0]
	c.kind.pool.Put(c)
}

// ColKind is the canonical descriptor of one columnar layout: a
// (key type, value type) pair. Kinds are canonicalized — ColKindFor
// returns the same pointer for the same type pair — so the compiler's
// edge-type selection and the transport's batch matching are pointer
// comparisons.
type ColKind struct {
	name     string
	key, val reflect.Type
	pool     sync.Pool
	// get takes an empty batch out of the pool; fromSlices wraps decoded
	// slices in one. Both are typed closures over the kind's (K, V).
	get        func() Columns
	fromSlices func(keys, vals any) (Columns, error)
	// keyWire/valWire are the columns' wire layouts, wired whether both
	// have one, fingerprint the layout's identity (colwire.go).
	keyWire, valWire Layout
	wired            bool
	fingerprint      uint64
}

// Name returns the kind's wire name, e.g. "cols[int64,stream.Unit]".
func (k *ColKind) Name() string { return k.name }

// KeyType returns the key column's type.
func (k *ColKind) KeyType() reflect.Type { return k.key }

// ValType returns the value column's type.
func (k *ColKind) ValType() reflect.Type { return k.val }

// String renders the kind.
func (k *ColKind) String() string { return k.name }

// Get returns an empty pooled batch of this kind.
func (k *ColKind) Get() Columns { return k.get() }

// FromSlices wraps typed slices ([]K, []V boxed as any) in a batch,
// which takes ownership of them (Release pools it, slices and all): the
// counterpart of
// Columns.Slices for kinds that travel without a wire layout. Slices of
// the wrong type or of different lengths are an error.
func (k *ColKind) FromSlices(keys, vals any) (Columns, error) {
	return k.fromSlices(keys, vals)
}

var (
	colKinds       sync.Map // [2]reflect.Type -> *ColKind
	colKindsByName sync.Map // string -> *ColKind
)

// AnyKind is the universal kind cols[any,any]: its rows are boxed
// (key, value) pairs, so every item event is a row of it. Edges without
// a typed kind carry batches of it; it has no wire layout and crosses a
// link through the codec's gob fallback.
var AnyKind = ColKindFor[any, any]()

// ColKindFor returns the canonical kind for the type pair (K, V),
// creating the kind on first use (and, when it has no wire layout,
// gob-registering its slice types). Calls with the same type arguments
// return the same pointer.
func ColKindFor[K, V any]() *ColKind {
	kt := reflect.TypeOf((*K)(nil)).Elem()
	vt := reflect.TypeOf((*V)(nil)).Elem()
	rk := [2]reflect.Type{kt, vt}
	if k, ok := colKinds.Load(rk); ok {
		return k.(*ColKind)
	}
	k := newColKind[K, V](kt, vt)
	if prev, loaded := colKinds.LoadOrStore(rk, k); loaded {
		return prev.(*ColKind)
	}
	// This goroutine won the canonical slot: publish the wire-name
	// lookup, and for a kind that travels as gob register the slice types
	// so gob can carry them inside interface-typed fields.
	colKindsByName.Store(k.name, k)
	if !k.wired {
		gob.Register([]K{})
		gob.Register([]V{})
	}
	return k
}

// ColKindByName resolves a kind by its wire name; nil when no kind
// with that name has been created in this process. The networked
// runtime creates kinds on both sides by building the same topology,
// so a decode-side miss is a topology mismatch, not a race.
func ColKindByName(name string) *ColKind {
	if k, ok := colKindsByName.Load(name); ok {
		return k.(*ColKind)
	}
	return nil
}

// DefaultBatchRows is the row capacity a new batch's arenas start at,
// and the transport's default batch size (storm.DefaultBatchSize).
const DefaultBatchRows = 64

func newColKind[K, V any](kt, vt reflect.Type) *ColKind {
	k := &ColKind{
		name: "cols[" + typeName(kt) + "," + typeName(vt) + "]",
		key:  kt,
		val:  vt,
	}
	hash := keyHashFor[K]()
	// A pool miss costs three allocations, not one per arena doubling.
	k.pool.New = func() any {
		return &Cols[K, V]{kind: k, hash: hash, Keys: make([]K, 0, DefaultBatchRows), Vals: make([]V, 0, DefaultBatchRows)}
	}
	k.get = func() Columns {
		c := k.pool.Get().(*Cols[K, V])
		c.pooled = false
		return c
	}
	k.fromSlices = func(keys, vals any) (Columns, error) {
		ks, ok := keys.([]K)
		if !ok {
			return nil, fmt.Errorf("stream: %s key slice is %T, want []%s", k.name, keys, typeName(kt))
		}
		vs, ok := vals.([]V)
		if !ok {
			return nil, fmt.Errorf("stream: %s value slice is %T, want []%s", k.name, vals, typeName(vt))
		}
		if len(ks) != len(vs) {
			return nil, fmt.Errorf("stream: %s ragged columns: %d keys, %d values", k.name, len(ks), len(vs))
		}
		// Not from the pool: a pooled batch's arenas would be dropped.
		return &Cols[K, V]{kind: k, hash: hash, Keys: ks, Vals: vs}, nil
	}
	k.setWire()
	return k
}

// typeName renders a type for the kind's wire name, qualifying by
// package path when the short form is ambiguous across builds.
func typeName(t reflect.Type) string {
	if s := t.String(); s != "" {
		return s
	}
	return t.Kind().String()
}

// keyHashFor returns the typed specialization of DefaultHash for key
// type K. Each specialization hashes exactly the bytes DefaultHash
// hashes for the boxed key, so typed and boxed routing always agree —
// the property the rescale owner maps and fields groupings rely on. A
// key is passed by pointer, so that a key type rendering its own text
// (encoding.TextAppender) is called through an interface without being
// boxed; it renders into the batch's scratch buffer.
func keyHashFor[K any]() func(*K, *[]byte) int {
	var f func(*K, *[]byte) int
	switch p := any(&f).(type) {
	case *func(*int64, *[]byte) int:
		*p = hashKeyInt64
	case *func(*int, *[]byte) int:
		*p = func(k *int, _ *[]byte) int { return hashInt64(int64(*k)) }
	case *func(*int32, *[]byte) int:
		*p = func(k *int32, _ *[]byte) int { return hashInt64(int64(*k)) }
	case *func(*uint64, *[]byte) int:
		*p = hashKeyUint64
	case *func(*string, *[]byte) int:
		*p = hashKeyString
	case *func(*Unit, *[]byte) int:
		// There is exactly one unit key; hash it once.
		h := DefaultHash(Unit{})
		*p = func(*Unit, *[]byte) int { return h }
	default:
		// DefaultHash sees the boxed value, so the value type must render
		// its text; a pointer to it then does too, unless K is itself a
		// pointer, which boxes for free.
		var zero K
		_, byValue := any(zero).(encoding.TextAppender)
		if _, byPointer := any(&zero).(encoding.TextAppender); byValue && byPointer {
			f = func(k *K, scratch *[]byte) int { return hashText(any(k).(encoding.TextAppender), scratch) }
		} else {
			f = func(k *K, _ *[]byte) int { return DefaultHash(*k) }
		}
	}
	return f
}

func hashKeyInt64(k *int64, _ *[]byte) int { return hashInt64(*k) }

func hashKeyString(k *string, _ *[]byte) int { return fnvString(*k) }

func hashInt64(k int64) int {
	var buf [20]byte
	return fnvBytes(strconv.AppendInt(buf[:0], k, 10))
}

func hashKeyUint64(k *uint64, _ *[]byte) int {
	var buf [20]byte
	return fnvBytes(strconv.AppendUint(buf[:0], *k, 10))
}

// Partition groups a batch's rows by destination: the batch → destinations
// function of a Fields edge (ByHash), its scratch reused across batches.
type Partition struct {
	dest []int
	rows []int32
	off  []int
}

// ByHash groups the rows of c by HashAt modulo n: on return
// rows[off[d]:off[d+1]] lists, in row order, the rows destination d gets.
// The slices are p's, valid until the next call.
func (p *Partition) ByHash(c Columns, n int) (rows []int32, off []int) {
	m := c.Len()
	p.rows = slices.Grow(p.rows[:0], m)[:m]
	p.off = append(p.off[:0], make([]int, n+2)...)
	if n == 1 { // one destination takes every row: no hashing
		for i := range p.rows {
			p.rows[i] = int32(i)
		}
		p.off[1] = m
		return p.rows, p.off[:2]
	}
	// A counting sort: count destination d's rows into off[d+2], so that
	// after the prefix sum off[d+1] is d's first slot, then place each row,
	// which leaves off[d+1] at d's end.
	p.dest = c.Hashes(p.dest[:0])
	for i, h := range p.dest {
		p.dest[i] = h % n
		p.off[p.dest[i]+2]++
	}
	for d := 2; d <= n; d++ {
		p.off[d] += p.off[d-1]
	}
	for i, d := range p.dest {
		p.rows[p.off[d+1]] = int32(i)
		p.off[d+1]++
	}
	return p.rows, p.off[:n+1]
}

// ColCombiner is the sender-side combining buffer of a combined edge.
// The transport folds rows into the buffer and drains it — into a batch
// of the combiner's output kind — when a marker passes or the buffer
// reaches its capacity.
type ColCombiner interface {
	// Fold folds the rows of in that rows lists, in that order, into the
	// buffer, stopping after the row that brings it to capacity distinct
	// keys, and returns how many rows it folded. ok is false, and nothing
	// is folded, when in is not of the combiner's input kind (the caller
	// then falls back to FoldEvent on each row, boxed).
	Fold(in Columns, rows []int32, capacity int) (folded int, ok bool)
	// FoldEvent folds a boxed item event.
	FoldEvent(e Event)
	// Drain appends the buffered (key, aggregate) pairs to out (a
	// batch of the combiner's output kind) and resets the buffer,
	// returning the folded-in and drained-out row counts.
	Drain(out Columns) (ins, outs int)
	// Len returns the number of distinct buffered keys.
	Len() int
}

// NewAnyCombiner returns the combiner of an untyped monoid — in injects
// one boxed key-value pair, combine merges two partial aggregates —
// folding rows of any kind and draining rows of AnyKind: an
// insertion-ordered keyed map of boxed partial aggregates.
func NewAnyCombiner(in func(key, value any) any, combine func(x, y any) any) ColCombiner {
	return &anyCombiner{in: in, combine: combine, idx: map[any]int{}}
}

type anyCombiner struct {
	in      func(key, value any) any
	combine func(x, y any) any
	idx     map[any]int
	keys    []any
	vals    []any
	ins     int
}

func (c *anyCombiner) Fold(in Columns, rows []int32, capacity int) (m int, ok bool) {
	for ; m < len(rows) && len(c.keys) < capacity; m++ {
		c.FoldEvent(in.EventAt(int(rows[m])))
	}
	return m, true
}

func (c *anyCombiner) FoldEvent(e Event) {
	c.ins++
	if i, ok := c.idx[e.Key]; ok {
		c.vals[i] = c.combine(c.vals[i], c.in(e.Key, e.Value))
		return
	}
	c.idx[e.Key] = len(c.keys)
	c.keys = append(c.keys, e.Key)
	c.vals = append(c.vals, c.in(e.Key, e.Value))
}

func (c *anyCombiner) Drain(out Columns) (ins, outs int) {
	t := out.(*Cols[any, any])
	t.Keys, t.Vals = append(t.Keys, c.keys...), append(t.Vals, c.vals...)
	ins, outs = c.ins, len(c.keys)
	clear(c.idx)
	clear(c.keys)
	clear(c.vals)
	c.keys, c.vals, c.ins = c.keys[:0], c.vals[:0], 0
	return ins, outs
}

func (c *anyCombiner) Len() int { return len(c.keys) }
