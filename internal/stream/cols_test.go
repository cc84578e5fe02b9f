package stream

import (
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

// This file holds the universal kind to what makes it a kind like any
// other: every item event is a row of it, its routing hash is the boxed
// one, and its batches obey the one-owner release rule.

type anyRow struct {
	A int
	B string
}

// anyRows is one of each shape of key and value an untyped edge carries,
// nil included.
var anyRows = []Event{
	Item(nil, nil),
	Item(nil, int64(7)),
	Item(Unit{}, nil),
	Item(Unit{}, Unit{}),
	Item(int64(-3), "v"),
	Item("k", int64(9)),
	Item(anyRow{1, "x"}, anyRow{2, "y"}),
	Item(int(4), []int{1, 2}),
}

func TestAnyKindIsTotal(t *testing.T) {
	if AnyKind != ColKindFor[any, any]() {
		t.Fatal("AnyKind is not the canonical cols[any,any]")
	}
	if AnyKind.Wired() {
		t.Fatal("the universal kind must not have a wire layout: its columns hold interfaces")
	}
	a, b := AnyKind.Get(), AnyKind.Get()
	for _, e := range anyRows {
		a.AppendEvent(e)
	}
	for i := range anyRows {
		b.AppendRow(a, i)
	}
	if a.Len() != len(anyRows) || b.Len() != len(anyRows) {
		t.Fatalf("lengths %d and %d, want %d", a.Len(), b.Len(), len(anyRows))
	}
	for i, want := range anyRows {
		if got := a.EventAt(i); !reflect.DeepEqual(got, want) {
			t.Errorf("AppendEvent/EventAt row %d: got %v, want %v", i, got, want)
		}
		if got := b.EventAt(i); !reflect.DeepEqual(got, want) {
			t.Errorf("AppendRow/EventAt row %d: got %v, want %v", i, got, want)
		}
	}
	a.Release()
	b.Release()
}

// TestTypedKindStillRejectsNil: the nil a universal column accepts is
// not a value of a concrete column type.
func TestTypedKindStillRejectsNil(t *testing.T) {
	for _, e := range []Event{Item(nil, int64(1)), Item(int64(1), nil), Item("1", int64(1)), Mark(Marker{})} {
		c := ColKindFor[int64, int64]().Get()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendEvent(%v) on cols[int64,int64] did not panic", e)
				}
			}()
			c.AppendEvent(e)
		}()
		c.Release()
	}
	c := AnyKind.Get()
	defer c.Release()
	defer func() {
		if recover() == nil {
			t.Error("a marker entered a universal batch")
		}
	}()
	c.AppendEvent(Mark(Marker{}))
}

// TestHashAtMatchesDefaultHash: fields routing of a batch — universal
// or typed — must send a key where the boxed hash sends it, which is
// also where rescale's owner map looks for its state.
func TestHashAtMatchesDefaultHash(t *testing.T) {
	check := func(c Columns) {
		t.Helper()
		for i := 0; i < c.Len(); i++ {
			if got, want := c.HashAt(i), DefaultHash(c.EventAt(i).Key); got != want {
				t.Errorf("%s row %d (key %v): HashAt = %d, DefaultHash = %d", c.Kind(), i, c.EventAt(i).Key, got, want)
			}
		}
		c.Release()
	}
	u := AnyKind.Get()
	for _, e := range anyRows {
		u.AppendEvent(e)
	}
	check(u)
	prop := func(i64 int64, i int, i32 int32, u64 uint64, s string) bool {
		u, ti64, ti, ti32 := AnyKind.Get(), ColKindFor[int64, Unit]().Get(), ColKindFor[int, Unit]().Get(), ColKindFor[int32, Unit]().Get()
		tu64, ts, tr := ColKindFor[uint64, Unit]().Get(), ColKindFor[string, Unit]().Get(), ColKindFor[anyRow, Unit]().Get()
		tt, tp := ColKindFor[textKey, Unit]().Get(), ColKindFor[*ptrText, Unit]().Get()
		for _, k := range []any{i64, i, i32, u64, s, anyRow{i, s}, textKey{i}, &ptrText{s}} {
			u.AppendEvent(Item(k, Unit{}))
		}
		tt.AppendEvent(Item(textKey{i}, Unit{}))
		tp.AppendEvent(Item(&ptrText{s}, Unit{}))
		ti64.AppendEvent(Item(i64, Unit{}))
		ti.AppendEvent(Item(i, Unit{}))
		ti32.AppendEvent(Item(i32, Unit{}))
		tu64.AppendEvent(Item(u64, Unit{}))
		ts.AppendEvent(Item(s, Unit{}))
		tr.AppendEvent(Item(anyRow{i, s}, Unit{}))
		failed := t.Failed()
		for _, c := range []Columns{u, ti64, ti, ti32, tu64, ts, tr, tt, tp} {
			check(c)
		}
		return failed || !t.Failed()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// textKey renders its own text through a value receiver, ptrText
// through a pointer receiver, so only *ptrText is a TextAppender.
type textKey struct{ N int }

func (k textKey) AppendText(b []byte) ([]byte, error) {
	return strconv.AppendInt(append(b, 'k'), int64(k.N), 10), nil
}

type ptrText struct{ S string }

func (p *ptrText) AppendText(b []byte) ([]byte, error) { return append(b, p.S...), nil }

func TestAnyKindDoubleReleasePanics(t *testing.T) {
	c := AnyKind.Get()
	c.AppendEvent(Item(nil, 1))
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of a universal batch did not panic")
		}
	}()
	c.Release()
}

// TestHashesAndPartition: a batch's hash column is HashAt row by row,
// and ByHash lists every row exactly once, in row order, under the
// destination its hash selects; the range and gather appends copy the
// rows they name.
func TestHashesAndPartition(t *testing.T) {
	c := ColKindFor[int64, string]().Get().(*Cols[int64, string])
	defer c.Release()
	for i := 0; i < 100; i++ {
		c.Append(int64(i*i-40), strconv.Itoa(i))
	}
	hs := c.Hashes(nil)
	for i, h := range hs {
		if h != c.HashAt(i) {
			t.Fatalf("row %d: Hashes = %d, HashAt = %d", i, h, c.HashAt(i))
		}
	}
	var p Partition
	for _, n := range []int{1, 2, 3, 7} {
		rows, off := p.ByHash(c, n)
		if len(off) != n+1 || off[0] != 0 || off[n] != c.Len() {
			t.Fatalf("n=%d: offsets %v", n, off)
		}
		for d := 0; d < n; d++ {
			share := rows[off[d]:off[d+1]]
			for j, r := range share {
				if c.HashAt(int(r))%n != d || (j > 0 && share[j-1] >= r) {
					t.Fatalf("n=%d: destination %d lists %v", n, d, share)
				}
			}
			g := c.Kind().Get()
			g.AppendRows(c, share)
			g.AppendRange(c, 3, 5)
			for j, r := range share {
				if !reflect.DeepEqual(g.EventAt(j), c.EventAt(int(r))) {
					t.Fatalf("AppendRows row %d = %v, want %v", j, g.EventAt(j), c.EventAt(int(r)))
				}
			}
			if g.Len() != len(share)+2 || !reflect.DeepEqual(g.EventAt(len(share)+1), c.EventAt(4)) {
				t.Fatalf("AppendRange appended %d rows, ending %v", g.Len()-len(share), g.EventAt(g.Len()-1))
			}
			g.Release()
		}
	}
	one := c.Kind().Get()
	defer one.Release()
	one.AppendRow(c, 7)
	rows, off := p.ByHash(one, 3)
	if d := one.HashAt(0) % 3; len(rows) != 1 || rows[0] != 0 || off[d] != 0 || off[d+1] != 1 || off[3] != 1 {
		t.Fatalf("one row hashing to %d: rows %v, offsets %v", d, rows, off)
	}
}
