package storm

import (
	"sync/atomic"
	"testing"

	"datatrace/internal/stream"
)

// countingCols is colSumBolt counting the rows ProcessCols receives.
type countingCols struct {
	colSumBolt
	rows *atomic.Int64
}

func (c *countingCols) ProcessCols(in, out stream.Columns) {
	c.rows.Add(int64(in.Len()))
	c.colSumBolt.ProcessCols(in, out)
}

// TestUniversalBatchUnboxedForTypedBolt feeds a boxed spout's items —
// rows of universal-kind batches — to a typed bolt and to a handcrafted
// one. The executor unboxes each batch once into the typed bolt's kind
// and hands it to ProcessCols, so every row arrives there exactly once
// and none through Next; the handcrafted Bolt still sees every row
// through Next.
func TestUniversalBatchUnboxedForTypedBolt(t *testing.T) {
	const items, block = 600, 40
	var evs []stream.Event
	want := map[int]int{}
	for i := 0; i < items; i++ {
		k, v := i%7, i%5
		want[k] += v
		evs = append(evs, stream.Item(k, v))
		if (i+1)%block == 0 {
			evs = append(evs, stream.Mark(stream.Marker{Seq: int64(i / block), Timestamp: int64(i)}))
		}
	}
	var boxed, typedRows, handRows atomic.Int64
	top := NewTopology("unbox")
	top.AddSpout("src", 1, func(int) Spout { return SliceSpout(evs) })
	top.AddBolt("typed", 2, func(int) Bolt {
		return &countingCols{colSumBolt{rsSumBolt: rsSumBolt{sumBolt{sums: map[int]int{}}}, boxed: &boxed}, &typedRows}
	}).FieldsGrouping("src", true)
	top.AddBolt("hand", 1, func(int) Bolt {
		return BoltFunc(func(e stream.Event, emit func(stream.Event)) {
			if !e.IsMarker {
				handRows.Add(1)
			}
			emit(e)
		})
	}).ShuffleGrouping("src", true)
	top.AddSink("out", "typed")
	top.AddSink("handout", "hand")
	res, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := boxed.Load(); n != 0 {
		t.Errorf("the typed bolt's Next received %d items, want 0", n)
	}
	if n := typedRows.Load(); n != items {
		t.Errorf("ProcessCols received %d rows, want each of the %d items once", n, items)
	}
	if n := handRows.Load(); n != items {
		t.Errorf("the handcrafted bolt's Next received %d items, want %d", n, items)
	}
	final := map[int]int{}
	for _, e := range res.Sinks["out"] {
		if !e.IsMarker {
			final[e.Key.(int)] = e.Value.(int)
		}
	}
	for k, v := range want {
		if final[k] != v {
			t.Errorf("key %d: last running sum %d, want %d", k, final[k], v)
		}
	}
}
