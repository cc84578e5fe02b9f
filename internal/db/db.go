// Package db is a small embedded in-memory relational database, the
// stand-in for the Apache Derby instance the paper's evaluation uses
// for enrichment lookups (Query I/III/IV/V/VI) and for persisting
// per-key aggregates (Query II).
//
// It provides typed tables with a primary key, secondary hash
// indexes, point lookups, upserts, scans and hash joins, all safe for
// concurrent use by parallel bolt instances. Point lookups and scans
// read an immutable primary-key index and take no lock, so parallel
// readers of a lookup table write no shared memory; writers serialize
// on a mutex and invalidate the index, which the next reads rebuild.
// An optional per-operation
// delay models the latency of the out-of-process database the paper's
// pipelines pay on every lookup, which is what makes the enrichment
// stages compute-heavy and worth parallelizing.
package db

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ColType is a column's declared type.
type ColType int

const (
	// Any accepts every Go value.
	Any ColType = iota
	// Int accepts int64 (and int, converted on insert).
	Int
	// Float accepts float64.
	Float
	// String accepts string.
	String
)

// String renders the type name.
func (c ColType) String() string {
	switch c {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	default:
		return "ANY"
	}
}

// Column declares one table column.
type Column struct {
	Name string
	Type ColType
}

// Row is one table row; values are positional per the table schema.
type Row []any

// Table is a relational table with a primary key and optional
// secondary hash indexes. All methods are safe for concurrent use.
//
// Rows are immutable once stored: a write replaces a row, never
// changes one in place, so a Row a reader holds stays what it read.
// The fields are grouped by who writes them, each group on cache lines
// of its own: a lookup loads only the first two groups, which no write
// to the table touches in the steady state of a lookup table.
type Table struct {
	// Fixed at creation; delay is the per-operation latency in
	// nanoseconds, set by DB.SetOpDelay.
	name   string
	cols   []Column
	colIdx map[string]int
	pk     int
	delay  atomic.Int64
	_      [64]byte
	// idx is the published read index, nil after a write until the
	// next rebuild.
	idx atomic.Pointer[readIndex]
	_   [64]byte
	// The write side, under mu. misses counts the reads served under mu
	// since the last rebuild, and built is the row count that rebuild
	// saw (see index).
	mu      sync.Mutex
	rows    map[any]Row           // pk value → row
	indexes map[int]map[any][]any // col → value → pk values
	misses  int
	built   int
}

// readIndex is an immutable primary-key index over a table's rows, the
// structure point lookups and scans read without a lock. Exactly one
// map is set, by the key column's type: an INT key is looked up as an
// int64 and a STRING key as a string, with no interface hashing.
type readIndex struct {
	ints map[int64]Row
	strs map[string]Row
	anys map[any]Row
}

// get looks pk (normalized) up.
func (ix *readIndex) get(pk any) (Row, bool) {
	var row Row
	var ok bool
	switch {
	case ix.ints != nil:
		if k, isInt := pk.(int64); isInt {
			row, ok = ix.ints[k]
		}
	case ix.strs != nil:
		if k, isStr := pk.(string); isStr {
			row, ok = ix.strs[k]
		}
	default:
		row, ok = ix.anys[pk]
	}
	return row, ok
}

// each calls fn on every row until fn returns false.
func (ix *readIndex) each(fn func(Row) bool) {
	for _, row := range ix.ints {
		if !fn(row) {
			return
		}
	}
	for _, row := range ix.strs {
		if !fn(row) {
			return
		}
	}
	for _, row := range ix.anys {
		if !fn(row) {
			return
		}
	}
}

// DB is a collection of named tables.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// delay is added to every table operation to model an external
	// database's per-call latency; zero disables it.
	delay time.Duration
}

// New creates an empty database.
func New() *DB { return &DB{tables: map[string]*Table{}} }

// SetOpDelay makes every subsequent table operation spin for d,
// simulating the round-trip cost of an out-of-process database.
func (db *DB) SetOpDelay(d time.Duration) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.delay = d
	for _, t := range db.tables {
		t.delay.Store(int64(d))
	}
}

// CreateTable declares a table with the given columns; pkCol names
// the primary-key column.
func (db *DB) CreateTable(name string, cols []Column, pkCol string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("db: table %q already exists", name)
	}
	t := &Table{
		name:    name,
		cols:    append([]Column(nil), cols...),
		colIdx:  make(map[string]int, len(cols)),
		pk:      -1,
		rows:    map[any]Row{},
		indexes: map[int]map[any][]any{},
	}
	t.delay.Store(int64(db.delay))
	for i, c := range cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("db: table %q: duplicate column %q", name, c.Name)
		}
		t.colIdx[c.Name] = i
		if c.Name == pkCol {
			t.pk = i
		}
	}
	if t.pk < 0 {
		return nil, fmt.Errorf("db: table %q: primary key column %q not declared", name, pkCol)
	}
	db.tables[name] = t
	return t, nil
}

// Table returns a table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("db: no table %q", name)
	}
	return t, nil
}

// MustTable is Table panicking on error, for initialization code.
func (db *DB) MustTable(name string) *Table {
	t, err := db.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Tables lists table names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// simulate busy-waits for the configured per-op delay. A busy wait
// (rather than time.Sleep) mirrors a synchronous client call: the
// executor is occupied, which is what the throughput model measures.
func (t *Table) simulate() {
	d := time.Duration(t.delay.Load())
	if d <= 0 {
		return
	}
	//lint:ignore DTT002 measurement-only busy-wait: the wall clock only decides how long the simulated client call occupies the executor; no time value reaches operator state or output
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// normalize coerces Go ints to int64 for Int columns and checks
// declared types.
func (t *Table) normalize(col int, v any) (any, error) {
	switch t.cols[col].Type {
	case Int:
		switch x := v.(type) {
		case int:
			return int64(x), nil
		case int64:
			// Return the incoming interface value, not the unboxed x:
			// re-boxing an int64 into a fresh `any` allocates, and this
			// runs once per point lookup on the enrichment hot path.
			return v, nil
		}
		return nil, fmt.Errorf("db: %s.%s: want INT, got %T", t.name, t.cols[col].Name, v)
	case Float:
		if _, ok := v.(float64); ok {
			return v, nil
		}
		return nil, fmt.Errorf("db: %s.%s: want FLOAT, got %T", t.name, t.cols[col].Name, v)
	case String:
		if _, ok := v.(string); ok {
			return v, nil
		}
		return nil, fmt.Errorf("db: %s.%s: want STRING, got %T", t.name, t.cols[col].Name, v)
	default:
		return v, nil
	}
}

// Col returns the index of a column by name.
func (t *Table) Col(name string) (int, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return 0, fmt.Errorf("db: table %q has no column %q", t.name, name)
	}
	return i, nil
}

// CreateIndex builds a secondary hash index on the column.
func (t *Table) CreateIndex(col string) error {
	ci, err := t.Col(col)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := map[any][]any{}
	for pk, row := range t.rows {
		idx[row[ci]] = append(idx[row[ci]], pk)
	}
	t.indexes[ci] = idx
	t.invalidate()
	return nil
}

// Insert adds a row (values positional per schema). It fails on a
// duplicate primary key; use Upsert to overwrite.
func (t *Table) Insert(values ...any) error {
	return t.put(values, false)
}

// Upsert adds or replaces the row with the same primary key.
func (t *Table) Upsert(values ...any) error {
	return t.put(values, true)
}

func (t *Table) put(values []any, replace bool) error {
	if len(values) != len(t.cols) {
		return fmt.Errorf("db: table %q: got %d values, want %d", t.name, len(values), len(t.cols))
	}
	row := make(Row, len(values))
	for i, v := range values {
		nv, err := t.normalize(i, v)
		if err != nil {
			return err
		}
		row[i] = nv
	}
	t.simulate()
	pk := row[t.pk]
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, exists := t.rows[pk]; exists {
		if !replace {
			return fmt.Errorf("db: table %q: duplicate primary key %v", t.name, pk)
		}
		for ci, idx := range t.indexes {
			removePK(idx, old[ci], pk)
		}
	}
	t.rows[pk] = row
	for ci, idx := range t.indexes {
		idx[row[ci]] = append(idx[row[ci]], pk)
	}
	t.invalidate()
	return nil
}

// invalidate retracts the read index after a write; the caller holds
// mu. It stores only when an index is published, so a bulk load costs
// one pointer load per row.
func (t *Table) invalidate() {
	if t.idx.Load() != nil {
		t.idx.Store(nil)
	}
}

// lookup returns the stored row with primary key pk (normalized), which
// the caller must not modify. It reads the published index without a
// lock; only a read after a write takes mu, and that read rebuilds the
// index when index says a rebuild has been paid for.
func (t *Table) lookup(pk any) (Row, bool) {
	if ix := t.idx.Load(); ix != nil {
		return ix.get(pk)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix := t.index(false); ix != nil {
		return ix.get(pk)
	}
	row, ok := t.rows[pk]
	return row, ok
}

// index returns the read index, rebuilding it if it was invalidated;
// the caller holds mu. Unless forced, a rebuild waits until the reads
// served under mu since the last one, plus the rows the table gained or
// lost, reach half its size: a rebuild costs O(rows), so it is paid for
// by as many operations and stays amortized O(1) however reads and
// writes interleave. The first read after a bulk load rebuilds at once.
func (t *Table) index(force bool) *readIndex {
	if ix := t.idx.Load(); ix != nil {
		return ix
	}
	n := len(t.rows)
	t.misses++
	if !force && 2*(t.misses+max(n-t.built, t.built-n)) < n {
		return nil
	}
	ix := &readIndex{}
	switch t.cols[t.pk].Type {
	case Int:
		ix.ints = make(map[int64]Row, n)
		for pk, row := range t.rows {
			ix.ints[pk.(int64)] = row
		}
	case String:
		ix.strs = make(map[string]Row, n)
		for pk, row := range t.rows {
			ix.strs[pk.(string)] = row
		}
	default:
		ix.anys = make(map[any]Row, n)
		for pk, row := range t.rows {
			ix.anys[pk] = row
		}
	}
	t.misses, t.built = 0, n
	t.idx.Store(ix)
	return ix
}

func removePK(idx map[any][]any, val, pk any) {
	pks := idx[val]
	for i, p := range pks {
		if p == pk {
			idx[val] = append(pks[:i], pks[i+1:]...)
			return
		}
	}
}

// Get returns the row with the given primary key. The row is a
// defensive copy; point lookups that only need one column should use
// GetVal, which does not allocate.
func (t *Table) Get(pk any) (Row, bool) {
	t.simulate()
	if nv, err := t.normalize(t.pk, pk); err == nil {
		pk = nv
	}
	row, ok := t.lookup(pk)
	if !ok {
		return nil, false
	}
	return append(Row(nil), row...), true
}

// GetVal returns one column of the row with the given primary key,
// without copying the row — the allocation-free point lookup of the
// enrichment hot path (stored rows are immutable, so handing out the
// boxed cell is safe).
func (t *Table) GetVal(pk any, col int) (any, bool) {
	t.simulate()
	if nv, err := t.normalize(t.pk, pk); err == nil {
		pk = nv
	}
	row, ok := t.lookup(pk)
	if !ok {
		return nil, false
	}
	return row[col], true
}

// GetIntVal is GetVal for tables with an INT primary key: the typed
// argument avoids boxing the key into an interface, and the lookup is
// one int64 map access in the read index.
func (t *Table) GetIntVal(pk int64, col int) (any, bool) {
	t.simulate()
	var row Row
	var ok bool
	if ix := t.idx.Load(); ix != nil && ix.ints != nil {
		row, ok = ix.ints[pk]
	} else {
		row, ok = t.lookup(pk)
	}
	if !ok {
		return nil, false
	}
	return row[col], true
}

// GetStrVal is GetVal for tables with a STRING primary key, given as
// bytes: a key rendered into a caller's buffer is looked up in the read
// index without converting it to a string (the map index m[string(pk)]
// does not allocate) and without boxing it.
func (t *Table) GetStrVal(pk []byte, col int) (any, bool) {
	t.simulate()
	var row Row
	var ok bool
	if ix := t.idx.Load(); ix != nil && ix.strs != nil {
		row, ok = ix.strs[string(pk)]
	} else {
		row, ok = t.lookup(string(pk))
	}
	if !ok {
		return nil, false
	}
	return row[col], true
}

// LookupIndexed returns all rows whose indexed column equals val. The
// column must have an index (CreateIndex).
func (t *Table) LookupIndexed(col string, val any) ([]Row, error) {
	ci, err := t.Col(col)
	if err != nil {
		return nil, err
	}
	if nv, err := t.normalize(ci, val); err == nil {
		val = nv
	}
	t.simulate()
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.indexes[ci]
	if !ok {
		return nil, fmt.Errorf("db: table %q: column %q is not indexed", t.name, col)
	}
	pks := idx[val]
	rows := make([]Row, 0, len(pks))
	for _, pk := range pks {
		rows = append(rows, append(Row(nil), t.rows[pk]...))
	}
	return rows, nil
}

// UpdateCol sets one column of the row with the given primary key,
// returning false if the row does not exist. The row is replaced by an
// updated copy: readers may hold the old one.
func (t *Table) UpdateCol(pk any, col string, val any) (bool, error) {
	ci, err := t.Col(col)
	if err != nil {
		return false, err
	}
	nv, err := t.normalize(ci, val)
	if err != nil {
		return false, err
	}
	if p, err := t.normalize(t.pk, pk); err == nil {
		pk = p
	}
	t.simulate()
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.rows[pk]
	if !ok {
		return false, nil
	}
	if idx, indexed := t.indexes[ci]; indexed {
		removePK(idx, row[ci], pk)
		idx[nv] = append(idx[nv], pk)
	}
	row = append(Row(nil), row...)
	row[ci] = nv
	t.rows[pk] = row
	t.invalidate()
	return true, nil
}

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rows)
}

// Scan calls fn for every row (in unspecified order) until fn returns
// false. The row passed to fn is a copy. Scan iterates the read index
// and holds no lock while fn runs: it sees the table as of its start,
// and fn may read or write the table.
func (t *Table) Scan(fn func(Row) bool) {
	t.simulate()
	ix := t.idx.Load()
	if ix == nil {
		t.mu.Lock()
		ix = t.index(true)
		t.mu.Unlock()
	}
	ix.each(func(row Row) bool { return fn(append(Row(nil), row...)) })
}

// Join hash-joins two tables on leftCol = rightCol and returns the
// concatenated rows (left columns then right columns).
func Join(left, right *Table, leftCol, rightCol string) ([]Row, error) {
	li, err := left.Col(leftCol)
	if err != nil {
		return nil, err
	}
	ri, err := right.Col(rightCol)
	if err != nil {
		return nil, err
	}
	build := map[any][]Row{}
	right.Scan(func(r Row) bool {
		build[r[ri]] = append(build[r[ri]], r)
		return true
	})
	var out []Row
	left.Scan(func(l Row) bool {
		for _, r := range build[l[li]] {
			combined := make(Row, 0, len(l)+len(r))
			combined = append(combined, l...)
			combined = append(combined, r...)
			out = append(out, combined)
		}
		return true
	})
	return out, nil
}
