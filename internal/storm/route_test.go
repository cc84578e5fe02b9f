package storm

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// This file pins batch-granular routing (cols.go, route): a typed batch
// is routed a destination's share at a time, and what reaches each
// channel is what routing the same rows one boxed emission at a time
// delivers — exactly for Fields, Global and Broadcast, as a multiset for
// Shuffle, whose chunks are dealt from the round-robin cursor.

// groupingPair is a one-edge harness: one sender instance, one
// subscription of the given grouping into recvPar receiver instances.
func groupingPair(g Grouping, recvPar, batch int, comb *ColCombinerSpec) *transportPair {
	recv := &runtimeComponent{component: &component{name: "dst", parallelism: recvPar}}
	recv.inboxes = make([]chan message, recvPar)
	for i := range recv.inboxes {
		recv.inboxes[i] = make(chan message, 1<<12)
	}
	recv.depths = make([]atomic.Int64, recvPar)
	recv.nChannels = 1
	send := &runtimeComponent{component: &component{name: "src", parallelism: 1}, transport: TransportOptions{BatchSize: batch, FlushInterval: -1}}
	send.workerOf = []int{-1}
	send.subs = []subscription{{to: recv, grouping: g, colComb: comb}}
	return &transportPair{em: newEmitter(send, 0, metrics.NewStats().Instance("src", 0), nil), recv: recv}
}

// routeRows sends rows 0..n-1 — key i*7, value i — as typed batches of
// the given size, or as boxed one-row emissions when size is 0, and
// returns each inbox's row sequence after EOS.
func routeRows(p *transportPair, n, size int) [][]stream.Event {
	if size == 0 {
		for i := 0; i < n; i++ {
			p.em.emit(stream.Item(i*7, i))
		}
	}
	for lo := 0; size > 0 && lo < n; lo += size {
		c := intKind.Get().(*stream.Cols[int, int])
		for i := lo; i < min(lo+size, n); i++ {
			c.Append(i*7, i)
		}
		p.em.emitCols(c)
	}
	p.em.eos()
	out := make([][]stream.Event, len(p.recv.inboxes))
	for k, ms := range p.drain() {
		for _, m := range ms {
			if m.cols != nil {
				out[k] = append(out[k], m.events()...)
				m.cols.Release()
			}
		}
	}
	return out
}

// TestTypedRoutingMatchesBoxed routes the same rows typed (several batch
// sizes) and boxed, per grouping and receiver width.
func TestTypedRoutingMatchesBoxed(t *testing.T) {
	for _, g := range []Grouping{Fields, Shuffle, Global, Broadcast} {
		for _, par := range []int{1, 2, 3} {
			for _, size := range []int{1, 5, 64, 100} {
				t.Run(fmt.Sprintf("%s/par=%d/size=%d", g, par, size), func(t *testing.T) {
					typed := routeRows(groupingPair(g, par, 8, nil), 100, size)
					boxed := routeRows(groupingPair(g, par, 8, nil), 100, 0)
					if g != Shuffle {
						if !reflect.DeepEqual(typed, boxed) {
							t.Fatalf("typed routing differs from boxed\ntyped: %v\nboxed: %v", typed, boxed)
						}
						return
					}
					// Shuffle: every row exactly once, each inbox in row order.
					var all []int
					for _, evs := range typed {
						var vals []int
						for _, e := range evs {
							vals = append(vals, e.Value.(int))
						}
						if !slices.IsSorted(vals) {
							t.Fatalf("an inbox got rows out of order: %v", vals)
						}
						all = append(all, vals...)
					}
					slices.Sort(all)
					for i, v := range all {
						if v != i {
							t.Fatalf("shuffle delivered rows %v, want 0..99 once each", all)
						}
					}
				})
			}
		}
	}
}

// TestFieldsRoutingFollowsHashAt: every row a Fields edge delivers sits
// at the destination its key's HashAt selects — the hash column is the
// boxed hash, so typed and boxed emissions of one key meet on one
// instance, where rescale's owner map expects its state.
func TestFieldsRoutingFollowsHashAt(t *testing.T) {
	got := routeRows(groupingPair(Fields, 3, 8, nil), 200, 64)
	probe := intKind.Get()
	defer probe.Release()
	for k, evs := range got {
		for _, e := range evs {
			probe.AppendEvent(e)
			if d := probe.HashAt(probe.Len()-1) % 3; d != k {
				t.Fatalf("key %v reached instance %d, HashAt selects %d", e.Key, k, d)
			}
			if stream.DefaultHash(e.Key)%3 != k {
				t.Fatalf("key %v reached instance %d, DefaultHash disagrees", e.Key, k)
			}
		}
	}
}

// TestShuffleChunksReplayFromCursor: Shuffle's chunking is a function of
// the batch and the round-robin cursor alone, so restoring the cursor a
// cut committed (rrSnap) routes a replayed block exactly as the first
// time.
func TestShuffleChunksReplayFromCursor(t *testing.T) {
	p := groupingPair(Shuffle, 3, 64, nil)
	batch := func(n int) stream.Columns {
		c := intKind.Get().(*stream.Cols[int, int])
		for i := 0; i < n; i++ {
			c.Append(i, i)
		}
		return c
	}
	p.em.emitCols(batch(5)) // move the cursor off 0
	p.em.flushAll()
	p.drain()
	snap := slices.Clone(p.em.rrNext)
	block := func() [][]message {
		for _, n := range []int{7, 1, 64, 2} {
			p.em.emitCols(batch(n))
		}
		p.em.flushAll()
		return p.drain()
	}
	first := block()
	p.em.rrNext = append(p.em.rrNext[:0], snap...)
	again := block()
	for k := range first {
		f, a := byChannel(t, k, first[k]), byChannel(t, k, again[k])
		if !reflect.DeepEqual(f, a) {
			t.Fatalf("inbox %d: replay from the restored cursor routed differently\nfirst: %v\nagain: %v", k, f, a)
		}
	}
}

// TestCombinerCapDrainsMidBatch: a combined edge whose key cap is reached
// inside a typed batch drains at that row, exactly as folding the rows
// one boxed emission at a time does.
func TestCombinerCapDrainsMidBatch(t *testing.T) {
	for _, par := range []int{1, 2} {
		spec := asColSpec(sumSpec(3))
		typed := routeRows(groupingPair(Fields, par, 64, spec), 40, 40)
		boxed := routeRows(groupingPair(Fields, par, 64, spec), 40, 0)
		if !reflect.DeepEqual(typed, boxed) {
			t.Fatalf("par=%d: typed folds drained differently from boxed\ntyped: %v\nboxed: %v", par, typed, boxed)
		}
		// Every key is distinct, so each drain carries exactly cap rows but
		// the last: a drain happened inside the 40-row batch.
		p := groupingPair(Fields, 1, 64, asColSpec(sumSpec(3)))
		c := intKind.Get().(*stream.Cols[int, int])
		for i := 0; i < 10; i++ {
			c.Append(i, i)
		}
		p.em.emitCols(c)
		if held := p.em.bufs[0].comb.Len(); held != 1 {
			t.Fatalf("par=%d: the combiner holds %d keys after 10 distinct rows at cap 3, want 1", par, held)
		}
		p.em.eos()
	}
}
