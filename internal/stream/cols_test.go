package stream

import (
	"reflect"
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
		for _, k := range []any{i64, i, i32, u64, s, anyRow{i, s}} {
			u.AppendEvent(Item(k, Unit{}))
		}
		ti64.AppendEvent(Item(i64, Unit{}))
		ti.AppendEvent(Item(i, Unit{}))
		ti32.AppendEvent(Item(i32, Unit{}))
		tu64.AppendEvent(Item(u64, Unit{}))
		ts.AppendEvent(Item(s, Unit{}))
		tr.AppendEvent(Item(anyRow{i, s}, Unit{}))
		failed := t.Failed()
		for _, c := range []Columns{u, ti64, ti, ti32, tu64, ts, tr} {
			check(c)
		}
		return failed || !t.Failed()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

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
