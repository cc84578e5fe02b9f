package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"datatrace/internal/stream"
)

// This file checks the ordered templates' batch surface against their
// boxed denotation, and SORT's stable sort against sort.SliceStable.

// sortItem is a sort element whose order ignores id, so equal keys
// show whether a sort kept their input order.
type sortItem struct{ key, id int }

func lessItem(a, b sortItem) bool { return a.key < b.key }

// checkStable sorts items with the stable sorter and with
// sort.SliceStable and fails unless both orders are identical.
func checkStable(t *testing.T, ss *stableSorter[sortItem], name string, items []sortItem) {
	t.Helper()
	want := append([]sortItem(nil), items...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
	got := append([]sortItem(nil), items...)
	ss.sort(got, lessItem)
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s (n=%d): position %d holds %v, sort.SliceStable has %v", name, len(items), i, got[i], want[i])
			}
		}
	}
}

// TestStableSortMatchesSliceStable runs the sorter over lengths 0 to
// about 2 k in the input shapes SORT meets: few distinct keys (many
// ties), presorted, reversed, concatenated sorted runs (a SORT behind
// a per-key upstream), and all equal. One sorter serves every case, so
// its kept scratch is exercised at every size.
func TestStableSortMatchesSliceStable(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	shapes := map[string]func(n int) []sortItem{
		"duplicates": func(n int) []sortItem {
			s := make([]sortItem, n)
			for i := range s {
				s[i] = sortItem{r.Intn(5), i}
			}
			return s
		},
		"presorted": func(n int) []sortItem {
			s := make([]sortItem, n)
			for i := range s {
				s[i] = sortItem{i / 3, i}
			}
			return s
		},
		"reversed": func(n int) []sortItem {
			s := make([]sortItem, n)
			for i := range s {
				s[i] = sortItem{(n - i) / 2, i}
			}
			return s
		},
		"runs": func(n int) []sortItem {
			s := make([]sortItem, n)
			run := 1 + r.Intn(40)
			for i := range s {
				s[i] = sortItem{i%run + r.Intn(3), i}
			}
			return s
		},
		"equal": func(n int) []sortItem {
			s := make([]sortItem, n)
			for i := range s {
				s[i] = sortItem{7, i}
			}
			return s
		},
	}
	var ss stableSorter[sortItem]
	for name, gen := range shapes {
		for n := 0; n <= 2100; n += 1 + n/8 {
			checkStable(t, &ss, name, gen(n))
		}
	}
}

// FuzzStableSort checks the sorter against sort.SliceStable on
// arbitrary inputs: each byte is one element's key, its position the id.
func FuzzStableSort(f *testing.F) {
	f.Add([]byte{3, 1, 2, 1, 3, 0})
	f.Add(make([]byte, 60))
	f.Add([]byte("zyxwvutsrqponmlkjihgfedcbaZYXWVUTSRQPONMLKJIHGFEDCBA"))
	var ss stableSorter[sortItem]
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		items := make([]sortItem, len(data))
		for i, b := range data {
			items[i] = sortItem{int(b % 32), i}
		}
		checkStable(t, &ss, "fuzz", items)
	})
}

// orderedOps are the two ordered templates under differential test:
// SORT with ties (values compare by tens, so stability shows), and a
// KeyedOrdered that emits zero, one or two rows per item and one per
// key at every marker.
func orderedOps() []Operator {
	return []Operator{
		&Sort[int, int]{
			OpName: "sort",
			In:     stream.U("Int", "Int"),
			Out:    stream.O("Int", "Int"),
			Less:   func(a, b int) bool { return a/10 < b/10 },
		},
		&KeyedOrdered[int, int, int, int]{
			OpName:       "runsum",
			In:           stream.O("Int", "Int"),
			Out:          stream.O("Int", "Int"),
			InitialState: func() int { return 0 },
			OnItem: func(emit func(int), st, _ int, v int) int {
				st += v
				if v%3 != 0 {
					emit(st)
				}
				if v%2 == 1 {
					emit(-v)
				}
				return st
			},
			OnMarker: func(emit func(int), st, k int, m stream.Marker) int {
				emit(st*100 + int(m.Seq))
				return st / 2
			},
		},
	}
}

// orderedStream is items on four keys with a marker every few items.
func orderedStream(r *rand.Rand, items int) []stream.Event {
	var out []stream.Event
	seq := int64(0)
	for i := 0; i < items; i++ {
		out = append(out, stream.Item(r.Intn(4), r.Intn(100)))
		if r.Intn(8) == 0 {
			out = append(out, stream.Mark(stream.Marker{Seq: seq, Timestamp: 10 * seq}))
			seq++
		}
	}
	return append(out, stream.Mark(stream.Marker{Seq: seq, Timestamp: 10 * seq}))
}

// runTyped runs in through a fresh instance of op on the batch surface
// alone — the items between markers in batches of 1 to 7 rows through
// ProcessCols, every marker through ProcessMarker, which the caller
// forwards behind the marker step's rows — and returns the output in
// order. Before input position snapAt (< 0: never) the instance is
// checkpointed, and a fresh instance restored from the bytes takes over.
func runTyped(t *testing.T, op Operator, in []stream.Event, r *rand.Rand, snapAt int) []stream.Event {
	t.Helper()
	inst := op.New()
	inK, outK := inst.(BatchInstance).InColKind(), inst.(BatchInstance).OutColKind()
	var out []stream.Event
	collect := func(c stream.Columns) {
		for i := 0; i < c.Len(); i++ {
			out = append(out, c.EventAt(i))
		}
		c.Release()
	}
	batch := inK.Get()
	flush := func() {
		if batch.Len() > 0 {
			o := outK.Get()
			inst.(BatchInstance).ProcessCols(batch, o)
			collect(o)
			batch.Release()
			batch = inK.Get()
		}
	}
	size := 1 + r.Intn(7)
	for i, e := range in {
		if i == snapAt {
			flush()
			snap, err := SnapshotInstance(inst)
			if err != nil {
				t.Fatal(err)
			}
			inst = op.New()
			if err := RestoreInstance(inst, snap); err != nil {
				t.Fatal(err)
			}
		}
		if e.IsMarker {
			flush()
			o := outK.Get()
			inst.(ColMarker).ProcessMarker(e.Marker, o)
			collect(o)
			out = append(out, e)
			continue
		}
		batch.AppendEvent(e)
		if batch.Len() >= size {
			flush()
			size = 1 + r.Intn(7)
		}
	}
	flush()
	batch.Release()
	return out
}

// sameBlocks fails at the first block where got and want differ as
// event sequences: the typed path must reproduce the boxed one exactly,
// not only up to equivalence.
func sameBlocks(t *testing.T, what string, got, want []stream.Event) {
	t.Helper()
	block, start := 0, 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: block %d differs at output %d: typed %v, boxed %v\ntyped block: %v\nboxed block: %v",
				what, block, i, got[i], want[i], got[start:min(i+1, len(got))], want[start:min(i+1, len(want))])
		}
		if want[i].IsMarker {
			block, start = block+1, i+1
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: typed output has %d events, boxed %d", what, len(got), len(want))
	}
}

// TestOrderedTemplatesTypedMatchBoxed is the typed-vs-boxed
// differential for Sort and KeyedOrdered: ProcessCols plus
// ProcessMarker produce, block by block, exactly RunInstance's output —
// straight through, and across a checkpoint taken mid-block and
// restored into a fresh instance.
func TestOrderedTemplatesTypedMatchBoxed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, op := range orderedOps() {
		for trial := 0; trial < 30; trial++ {
			in := orderedStream(r, 20+r.Intn(200))
			want := RunInstance(op, in)
			sameBlocks(t, fmt.Sprintf("%s trial %d", op.Name(), trial), runTyped(t, op, in, r, -1), want)
			at := r.Intn(len(in))
			sameBlocks(t, fmt.Sprintf("%s trial %d restored at %d", op.Name(), trial, at), runTyped(t, op, in, r, at), want)
		}
	}
}
