package storm_test

import (
	"runtime"
	"testing"

	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// TestSinkMemoryBounded is ROADMAP item 14's bounded-memory check: a
// compiled Query IV run with a sink consumer that only counts rows
// holds no more live heap after ten times the input than after one
// times it. The sink keeps nothing past a cut, so what the two runs
// retain differs by far less than sinkHeapSlack — a consumer appending
// every row to a slice retains about 50 B per output row, several MiB
// more at 10×.
func TestSinkMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Query IV over 1.2 M items")
	}
	const (
		perMarker     = 2_000
		baseItems     = 120_000
		sinkHeapSlack = 1 << 20
	)
	live := func(items int) (rows int64, heap uint64) {
		top := compileQueryIV(t, items, perMarker, true)
		top.SetSinkConsumer(func(string) storm.SinkFunc {
			return func(_ storm.Cut, batches []stream.Columns) {
				for _, b := range batches {
					rows += int64(b.Len())
				}
			}
		})
		res, err := top.Run()
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// The run's topology and result stay reachable through the
		// reading: whatever they retain is counted.
		runtime.KeepAlive(top)
		runtime.KeepAlive(res)
		return rows, ms.HeapAlloc
	}
	rows1, heap1 := live(baseItems)
	rows10, heap10 := live(10 * baseItems)
	t.Logf("1×: %d rows, %d B live; 10×: %d rows, %d B live", rows1, heap1, rows10, heap10)
	if rows10 < 9*rows1 {
		t.Fatalf("10× input produced %d output rows, 1× %d: the run is not ten times longer", rows10, rows1)
	}
	if heap10 > heap1+sinkHeapSlack {
		t.Fatalf("live heap grew with input length: %d B after 1×, %d B after 10× (slack %d B)", heap1, heap10, sinkHeapSlack)
	}
}
