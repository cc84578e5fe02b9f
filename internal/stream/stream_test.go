package stream

import (
	"fmt"
	"hash/fnv"
	"testing"
)

func TestTypeString(t *testing.T) {
	if got := U("ID", "V").String(); got != "U(ID,V)" {
		t.Errorf("got %q", got)
	}
	if got := O("CID", "Long").String(); got != "O(CID,Long)" {
		t.Errorf("got %q", got)
	}
}

func TestEventString(t *testing.T) {
	if got := Item(3, "x").String(); got != "(3,x)" {
		t.Errorf("got %q", got)
	}
	if got := Mark(Marker{Seq: 2, Timestamp: 30}).String(); got != "#2@30" {
		t.Errorf("got %q", got)
	}
}

func TestEquivalenceUnordered(t *testing.T) {
	typ := U("K", "V")
	a := []Event{Item(1, "a"), Item(2, "b"), Mark(Marker{Seq: 0}), Item(1, "c")}
	b := []Event{Item(2, "b"), Item(1, "a"), Mark(Marker{Seq: 0}), Item(1, "c")}
	if !Equivalent(typ, a, b) {
		t.Error("items between markers must be unordered under U")
	}
	c := []Event{Item(1, "a"), Mark(Marker{Seq: 0}), Item(2, "b"), Item(1, "c")}
	if Equivalent(typ, a, c) {
		t.Error("items must not cross markers")
	}
}

func TestEquivalenceOrdered(t *testing.T) {
	typ := O("K", "V")
	a := []Event{Item(1, "a1"), Item(2, "b1"), Item(1, "a2")}
	b := []Event{Item(2, "b1"), Item(1, "a1"), Item(1, "a2")}
	if !Equivalent(typ, a, b) {
		t.Error("cross-key order must not matter under O")
	}
	c := []Event{Item(1, "a2"), Item(1, "a1"), Item(2, "b1")}
	if Equivalent(typ, a, c) {
		t.Error("per-key order must matter under O")
	}
	// The same reordering is fine under U.
	if !Equivalent(U("K", "V"), a, c) {
		t.Error("per-key order must not matter under U")
	}
}

func TestMarkersAreLinearlyOrdered(t *testing.T) {
	typ := U("K", "V")
	a := []Event{Mark(Marker{Seq: 0}), Mark(Marker{Seq: 1})}
	b := []Event{Mark(Marker{Seq: 1}), Mark(Marker{Seq: 0})}
	if Equivalent(typ, a, b) {
		t.Error("markers must be linearly ordered")
	}
}

func TestPrefixOf(t *testing.T) {
	typ := U("K", "V")
	a := []Event{Item(2, "b")}
	b := []Event{Item(1, "a"), Item(2, "b"), Mark(Marker{Seq: 0})}
	if !PrefixOf(typ, a, b) {
		t.Error("an unordered item before the marker is a trace prefix")
	}
	c := []Event{Mark(Marker{Seq: 0}), Item(3, "z")}
	if PrefixOf(typ, []Event{Item(3, "z")}, c) {
		t.Error("an item after the marker is not a prefix")
	}
}

func TestItemTagDistinguishesKeys(t *testing.T) {
	if ItemTag(1) == ItemTag(2) {
		t.Error("different keys must get different tags")
	}
	if ItemTag("a") != ItemTag("a") {
		t.Error("equal keys must get equal tags")
	}
}

func TestRender(t *testing.T) {
	got := Render([]Event{Item(1, 2), Mark(Marker{Seq: 0, Timestamp: 10})})
	if got != "(1,2) #0@10" {
		t.Errorf("got %q", got)
	}
}

func TestItemTagNonComparableAndNilKeys(t *testing.T) {
	// ItemTag goes through fmt.Sprint, so keys that Go's == would
	// panic on (slices, maps) must still tag deterministically — the
	// tag is the rendering, not the identity.
	if ItemTag([]int{1, 2}) != ItemTag([]int{1, 2}) {
		t.Error("equal-rendering slice keys must get equal tags")
	}
	if ItemTag([]int{1, 2}) == ItemTag([]int{2, 1}) {
		t.Error("differently-rendered slice keys must get different tags")
	}
	if ItemTag(map[string]int{"a": 1}) != ItemTag(map[string]int{"a": 1}) {
		t.Error("equal-rendering map keys must get equal tags")
	}
	// A nil boxed key is the unit key of U(Ut, V) sources; it must tag
	// consistently and distinctly from the string "<nil>"'s would-be
	// collisions with real keys like the int render of nothing.
	if ItemTag(nil) != ItemTag(nil) {
		t.Error("nil keys must get equal tags")
	}
	if ItemTag(nil) == ItemTag(0) || ItemTag(nil) == ItemTag("") {
		t.Error("nil key must not collide with zero-value keys")
	}
	// A typed nil inside the interface renders like untyped nil — both
	// are "<nil>" — which is the documented iff-renders-equally rule.
	var p *int
	if ItemTag(p) != ItemTag(nil) {
		t.Error("typed and untyped nil render equally, so tags must match")
	}
}

func TestRenderNonComparableAndNilKeys(t *testing.T) {
	// Render is the failure-message formatter; it must not panic on
	// events whose keys are non-comparable or nil, since differential
	// tests render whatever the runtime produced.
	got := Render([]Event{
		Item(nil, "v"),
		Item([]int{3, 4}, 9),
		Mark(Marker{Seq: 2, Timestamp: 30}),
	})
	want := "(<nil>,v) ([3 4],9) #2@30"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	// Equivalence via ToItems also bottoms out in ItemTag's fmt.Sprint
	// path, so traces with non-comparable keys compare without panics.
	typ := U("K", "V")
	a := []Event{Item([]int{1}, "x"), Item([]int{2}, "y")}
	b := []Event{Item([]int{2}, "y"), Item([]int{1}, "x")}
	if !Equivalent(typ, a, b) {
		t.Error("unordered slice-keyed items must commute")
	}
}

func TestDefaultHashFastPathsMatchRendered(t *testing.T) {
	// The typed fast paths must agree with the generic fmt-rendered
	// FNV-1a they replace, so hash placement is independent of a key's
	// static type (an int64 7 and an int 7 route identically, and
	// adding a fast path can never reshuffle existing partitions).
	rendered := func(key any) int {
		h := fnv.New32a()
		fmt.Fprint(h, key)
		return int(h.Sum32() & 0x7fffffff)
	}
	keys := []any{
		int64(0), int64(7), int64(-3), int64(1) << 62, int64(-1) << 62,
		int(42), int(-42), int32(9), int32(-9), uint64(0), uint64(1) << 63,
		"", "a", "campaign-17", struct{ A, B int }{1, 2}, 3.5, true,
	}
	for _, k := range keys {
		if got, want := DefaultHash(k), rendered(k); got != want {
			t.Errorf("DefaultHash(%T %v) = %d, want rendered-FNV %d", k, k, got, want)
		}
	}
	if DefaultHash(int64(7)) != DefaultHash(7) {
		t.Error("int64 and int renderings of the same value must collide")
	}
}

// TestAppendBlockDoubles builds a sequence of 2 000 one-row blocks: the
// events are the blocks' rows and markers in order, and growing by
// doubling costs a logarithmic number of allocations.
func TestAppendBlockDoubles(t *testing.T) {
	b := AnyKind.Get()
	defer b.Release()
	b.AppendEvent(Item("k", 1))
	var out []Event
	allocs := testing.AllocsPerRun(1, func() {
		out = nil
		for i := range 2000 {
			out = AppendBlock(out, []Columns{b}, &Marker{Seq: int64(i)})
		}
	})
	if len(out) != 4000 || out[0].Key != "k" || !out[3999].IsMarker || out[3999].Marker.Seq != 1999 {
		t.Fatalf("got %d events, last %v", len(out), out[len(out)-1])
	}
	if allocs > 10 {
		t.Fatalf("%v allocations for 2 000 blocks, want a logarithmic count", allocs)
	}
	if tail := AppendBlock(nil, []Columns{b}, nil); len(tail) != 1 || tail[0].IsMarker {
		t.Fatalf("a block without a marker appended %v", tail)
	}
}
