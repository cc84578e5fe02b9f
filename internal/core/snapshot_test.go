package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"datatrace/internal/stream"
)

// snapCase is one keyed template instantiated for the snapshot codec
// tests: the operator and how a fuzz event's int value becomes the
// operator's input value.
type snapCase struct {
	name string
	op   Operator
	val  func(int) any
	raw  bool // every column has a wire layout
}

func intVal(v int) any   { return v }
func sliceVal(v int) any { return []int{v} }

// concat is a pure, associative (not commutative: the sliding
// template folds in block order) combine on []int.
func concat(x, y []int) []int { return append(slices.Clip(x), y...) }

// snapCases covers each keyed template twice: with state whose every
// column has a wire layout, and with state that takes the gob fallback.
func snapCases() []snapCase {
	return []snapCase{
		{"ko/raw", runningSum(), intVal, true},
		{"ko/gob", &KeyedOrdered[int, int, int, []int]{
			OpName: "history", In: stream.O("Int", "Int"), Out: stream.O("Int", "Int"),
			InitialState: func() []int { return nil },
			OnItem: func(emit func(int), st []int, k, v int) []int {
				st = append(slices.Clip(st), v)
				emit(len(st))
				return st
			},
		}, intVal, false},
		{"ku/raw", &KeyedUnordered[int, int, int, int, int, int]{
			OpName: "total", InT: stream.U("Int", "Int"), OutT: stream.U("Int", "Int"),
			In: func(_, v int) int { return v }, ID: func() int { return 0 },
			Combine:      func(x, y int) int { return x + y },
			InitialState: func() int { return 0 },
			UpdateState:  func(old, agg int) int { return old + agg + 1 },
			OnMarker:     func(emit Emit[int, int], st, k int, m stream.Marker) { emit(k, st) },
		}, intVal, true},
		{"ku/gob", &KeyedUnordered[int, int, int, int, []int, int]{
			OpName: "blocks", InT: stream.U("Int", "Int"), OutT: stream.U("Int", "Int"),
			In: func(_, v int) int { return v }, ID: func() int { return 0 },
			Combine:      func(x, y int) int { return x + y },
			InitialState: func() []int { return []int{-1} },
			UpdateState:  func(old []int, agg int) []int { return append(slices.Clip(old), agg) },
			OnMarker: func(emit Emit[int, int], st []int, k int, m stream.Marker) {
				emit(k, len(st)*1000+st[len(st)-1])
			},
		}, intVal, false},
		{"sort/raw", &Sort[int, int]{
			OpName: "SORT", In: stream.U("Int", "Int"), Out: stream.O("Int", "Int"),
			Less: func(a, b int) bool { return a < b },
		}, intVal, true},
		{"sort/gob", &Sort[int, []int]{
			OpName: "SORT", In: stream.U("Int", "Ints"), Out: stream.O("Int", "Ints"),
			Less: func(a, b []int) bool { return a[0] < b[0] },
		}, sliceVal, false},
		{"sliding/raw", &SlidingAggregate[int, int, int]{
			OpName: "slide", InT: stream.U("Int", "Int"), OutT: stream.U("Int", "Int"),
			WindowBlocks: 3, In: func(_, v int) int { return v }, ID: func() int { return 0 },
			Combine: func(x, y int) int { return x + y },
		}, intVal, true},
		{"sliding/gob", &SlidingAggregate[int, int, []int]{
			OpName: "slide", InT: stream.U("Int", "Int"), OutT: stream.U("Int", "Ints"),
			WindowBlocks: 2, In: func(_, v int) []int { return []int{v} }, ID: func() []int { return nil },
			Combine: concat, EmitEmpty: true,
		}, intVal, false},
	}
}

// feed runs events through inst with values mapped by val and returns
// the output rendered (nil and empty slices render alike, as gob
// round-trips them).
func feed(inst Instance, in []stream.Event, val func(int) any) string {
	var out []string
	for _, e := range in {
		if !e.IsMarker {
			e = stream.Item(e.Key, val(e.Value.(int)))
		}
		inst.Next(e, func(o stream.Event) { out = append(out, fmt.Sprint(o)) })
	}
	return fmt.Sprint(out)
}

// feedEvents runs events through inst as feed does and returns the
// output events.
func feedEvents(inst Instance, in []stream.Event, val func(int) any) []stream.Event {
	var out []stream.Event
	for _, e := range in {
		if !e.IsMarker {
			e = stream.Item(e.Key, val(e.Value.(int)))
		}
		inst.Next(e, func(o stream.Event) { out = append(out, o) })
	}
	return out
}

// mustSnapshot snapshots inst or fails the test.
func mustSnapshot(t *testing.T, inst Instance) []byte {
	t.Helper()
	b, err := inst.(Snapshotter).AppendSnapshot(nil)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return b
}

// FuzzSnapshotCodec fuzzes the checkpoint format every keyed template
// writes: a restored instance re-snapshots to the same bytes and
// continues exactly as the original would, and bytes that were
// truncated, garbled or written for another layout fail Restore with an
// error — never a panic, and never a partly restored instance.
func FuzzSnapshotCodec(f *testing.F) {
	f.Add([]byte{1, 2, 0, 3, 4, 0, 6, 7}, uint8(5), uint16(9), uint8(0x40))
	f.Add([]byte{0, 0, 0}, uint8(1), uint16(0), uint8(1))
	f.Add([]byte{7, 9, 11, 0, 13, 2, 0, 1, 3, 3, 3, 0, 8}, uint8(9), uint16(30), uint8(0xff))
	f.Add([]byte{6, 6, 6, 6}, uint8(4), uint16(3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8, at uint16, mask uint8) {
		in := decodeFuzzEvents(data)
		split := int(cut) % (len(in) + 1)
		cases := snapCases()
		for ci, c := range cases {
			live := c.op.New()
			feed(live, in[:split], c.val)
			b := mustSnapshot(t, live)

			// Round trip: restore, re-snapshot byte-identical, continue alike.
			restored := c.op.New()
			if err := restored.(Snapshotter).Restore(b); err != nil {
				t.Fatalf("%s: restore: %v", c.name, err)
			}
			if b2 := mustSnapshot(t, restored); !bytes.Equal(b, b2) {
				t.Fatalf("%s: re-snapshot differs:\n %x\n %x", c.name, b, b2)
			}
			if got, want := feed(restored, in[split:], c.val), feed(live, in[split:], c.val); got != want {
				t.Fatalf("%s: restored instance diverged:\n got  %s\n want %s", c.name, got, want)
			}

			// Reshard: to one instance it is the identity on the bytes; a
			// split to n instances merged back continues equivalently.
			if one, err := ReshardInstanceSnapshots(c.op.New(), [][]byte{b}, 1, func(any) int { return 0 }); err != nil || !bytes.Equal(one[0], b) {
				t.Fatalf("%s: reshard to one instance changed the snapshot (%v):\n %x\n %x", c.name, err, b, one)
			}
			width := int(mask)%3 + 2
			parts, err := ReshardInstanceSnapshots(c.op.New(), [][]byte{b}, width, func(k any) int { return stream.DefaultHash(k) % width })
			if err == nil {
				parts, err = ReshardInstanceSnapshots(c.op.New(), parts, 1, func(any) int { return 0 })
			}
			merged := c.op.New()
			if err == nil {
				err = merged.(Snapshotter).Restore(parts[0])
			}
			if err != nil {
				t.Fatalf("%s: split to %d and merge back: %v", c.name, width, err)
			}
			replay := c.op.New()
			feedEvents(replay, in[:split], c.val)
			if got, want := feedEvents(merged, in[split:], c.val), feedEvents(replay, in[split:], c.val); !stream.Equivalent(c.op.OutType(), got, want) {
				t.Fatalf("%s: split to %d and merged back, the instance diverged:\n got  %s\n want %s", c.name, width, stream.Render(got), stream.Render(want))
			}

			// A target with state of its own, which a failed restore must
			// leave exactly as it was.
			target := c.op.New()
			feed(target, in[:len(in)/2], c.val)
			before := mustSnapshot(t, target)
			try := func(what string, bad []byte) error {
				err := target.(Snapshotter).Restore(bad)
				if err != nil {
					if after := mustSnapshot(t, target); !bytes.Equal(after, before) {
						t.Fatalf("%s: failed restore of %s bytes changed the instance", c.name, what)
					}
				} else {
					// A garbling the format cannot see restored fine; the
					// target now holds that state.
					before = mustSnapshot(t, target)
				}
				return err
			}
			n := int(at) % len(b)
			if err := try("truncated", b[:n]); !errors.Is(err, ErrSnapshotBytes) && !isLayoutErr(err) {
				t.Fatalf("%s: restore of %d of %d bytes: %v", c.name, n, len(b), err)
			}
			garbled := slices.Clone(b)
			garbled[n] ^= mask | 1
			if err := try("garbled", garbled); err != nil && !errors.Is(err, ErrSnapshotBytes) && !isLayoutErr(err) {
				t.Fatalf("%s: garbled restore: untyped error %v", c.name, err)
			}
			wrong := slices.Clone(b)
			wrong[int(at)%8] ^= mask | 1
			if err := try("wrong-fingerprint", wrong); !isLayoutErr(err) {
				t.Fatalf("%s: wrong fingerprint: %v, want a *SnapshotLayoutError", c.name, err)
			}
			// Another template's (or another state type's) bytes.
			other := cases[(ci+1)%len(cases)].op.New()
			if err := try("foreign", mustSnapshot(t, other)); !isLayoutErr(err) {
				t.Fatalf("%s: restore of %s bytes: %v, want a *SnapshotLayoutError", c.name, cases[(ci+1)%len(cases)].name, err)
			}
		}
	})
}

func isLayoutErr(err error) bool {
	var le *SnapshotLayoutError
	return errors.As(err, &le)
}

// TestSnapshotCodecLayouts pins the layout decision per column: the
// raw cases write no gob, the fallback cases are counted.
func TestSnapshotCodecLayouts(t *testing.T) {
	in := decodeFuzzEvents([]byte{1, 2, 3, 0, 4, 6, 7})
	for _, c := range snapCases() {
		inst := c.op.New()
		feed(inst, in, c.val)
		layout := SnapshotLayout(inst)
		gobs := SnapshotGobColumns()
		mustSnapshot(t, inst)
		wrote := SnapshotGobColumns() - gobs
		if raw := !bytes.Contains([]byte(layout), []byte("gob")); raw != c.raw || (wrote == 0) != c.raw {
			t.Errorf("%s: layout %q wrote %d gob columns, want raw=%v", c.name, layout, wrote, c.raw)
		}
	}
}

// TestKeyedUnorderedSnapshotReusesBuffer: a cut into a buffer large
// enough allocates nothing when the state is raw.
func TestKeyedUnorderedSnapshotReusesBuffer(t *testing.T) {
	c := snapCases()[2]
	inst := c.op.New()
	feed(inst, decodeFuzzEvents([]byte{1, 2, 3, 4, 0, 6, 7, 8, 9}), c.val)
	buf := mustSnapshot(t, inst)
	s := inst.(Snapshotter)
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = s.AppendSnapshot(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendSnapshot into a reused buffer: %v allocs per cut", allocs)
	}
}
