package storm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// This file proves the sender-side combining buffers
// semantics-preserving at the unit level. The Shuffle edge of the
// harness stays uncombined, so its per-channel sequences must still be
// byte-identical to the unbatched model's; the combined Fields edge is
// compared one level up — per marker-delimited segment, the per-key
// aggregate of what reached each channel must equal the model's, which
// is exactly the invariant the consumer's commutative monoid makes
// sufficient for trace equivalence.

// sumSpec is the test monoid: integer addition over the item values.
func sumSpec(cap int) *CombinerSpec {
	return &CombinerSpec{
		In:      func(_, v any) any { return v.(int) },
		Combine: func(x, y any) any { return x.(int) + y.(int) },
		Cap:     cap,
	}
}

// asColSpec is the ColCombinerSpec CombineWith declares for spec.
func asColSpec(spec *CombinerSpec) *ColCombinerSpec {
	top := NewTopology("spec")
	top.AddSpout("src", 1, nil)
	top.AddBolt("dst", 1, nil).FieldsGrouping("src", true).CombineWith(*spec)
	return top.components["dst"].inputs[0].colComb
}

// newCombinedPair is newTransportPair with a combining buffer on the
// Fields edge.
func newCombinedPair(tr TransportOptions, recvPar int, spec *CombinerSpec) *transportPair {
	recv := &runtimeComponent{component: &component{name: "dst", parallelism: recvPar}}
	recv.inboxes = make([]chan message, recvPar)
	for i := range recv.inboxes {
		recv.inboxes[i] = make(chan message, 1<<15)
	}
	recv.depths = make([]atomic.Int64, recvPar)
	recv.nChannels = 2
	send := &runtimeComponent{component: &component{name: "src", parallelism: 1}, transport: tr}
	send.workerOf = []int{-1}
	send.subs = []subscription{
		{to: recv, grouping: Shuffle, chBase: 0},
		{to: recv, grouping: Fields, chBase: 1, colComb: asColSpec(spec)},
	}
	return &transportPair{
		em:   newEmitter(send, 0, metrics.NewStats().Instance("src", 0), nil),
		recv: recv,
	}
}

// segmentSums folds one channel's event sequence into per-segment
// per-key sums: segments are delimited by markers, and the returned
// marker sequence pins marker count and order. Items must carry int
// values (raw or partial sums — the fold doesn't care, which is the
// point).
func segmentSums(evs []stream.Event) (segs []map[any]int, marks []stream.Marker) {
	cur := map[any]int{}
	for _, e := range evs {
		if e.IsMarker {
			segs = append(segs, cur)
			marks = append(marks, e.Marker)
			cur = map[any]int{}
			continue
		}
		cur[e.Key] += e.Value.(int)
	}
	segs = append(segs, cur)
	return segs, marks
}

// runCombinedDifferential applies one script to a combined pair and an
// uncombined BatchSize-1 model: the Shuffle channel must match
// exactly, the combined Fields channel per-segment per-key sums and
// marker sequence must match, and nothing may stay buffered after EOS.
func runCombinedDifferential(t *testing.T, tr TransportOptions, recvPar int, spec *CombinerSpec, ops []tOp) {
	t.Helper()
	combined := newCombinedPair(tr, recvPar, spec)
	applyOps(combined.em, ops, true)
	if combined.em.pending != 0 {
		t.Fatalf("combined emitter still holds %d events after EOS", combined.em.pending)
	}
	model := newTransportPair(TransportOptions{BatchSize: 1, FlushInterval: -1}, recvPar)
	applyOps(model.em, ops, false)

	got, want := combined.drain(), model.drain()
	for i := range got {
		g, w := byChannel(t, i, got[i]), byChannel(t, i, want[i])
		// Shuffle edge (channel 0): exact per-channel equality, as in
		// runDifferential — combining another edge must not disturb it.
		if !reflect.DeepEqual(g[0], w[0]) {
			t.Fatalf("inbox %d: uncombined shuffle channel diverged\ncombined run: %v\nmodel:        %v", i, g[0], w[0])
		}
		gs, gm := segmentSums(g[1])
		ws, wm := segmentSums(w[1])
		if !reflect.DeepEqual(gm, wm) {
			t.Fatalf("inbox %d: combined channel marker sequence diverged\ngot  %v\nwant %v", i, gm, wm)
		}
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("inbox %d: combined channel per-segment key sums diverged\ngot  %v\nwant %v\nraw combined: %v\nraw model:    %v",
				i, gs, ws, g[1], w[1])
		}
	}
}

// TestCombinedEdgeDifferentialRandomOps is the combiner's main
// property run: random scripts with arbitrary flush interleavings,
// across batch sizes, receiver widths and key caps (including cap 1,
// which drains on every new key), preserve per-segment aggregates and
// marker structure on the combined edge and leave the other edge
// untouched.
func TestCombinedEdgeDifferentialRandomOps(t *testing.T) {
	for _, batch := range []int{1, 3, 64, 1024} {
		for _, recvPar := range []int{1, 3} {
			for _, cap := range []int{1, 2, 5, 1024} {
				for seed := int64(0); seed < 4; seed++ {
					name := fmt.Sprintf("batch=%d/par=%d/cap=%d/seed=%d", batch, recvPar, cap, seed)
					t.Run(name, func(t *testing.T) {
						r := rand.New(rand.NewSource(seed))
						tr := TransportOptions{BatchSize: batch, FlushInterval: -1}
						runCombinedDifferential(t, tr, recvPar, sumSpec(cap), randomOps(r, 300))
					})
				}
			}
		}
	}
}

// TestCombinerDrainsOnCap checks the memory bound: with a tiny key cap
// and an effectively infinite batch size, streaming many distinct keys
// keeps at most cap keys in any combining buffer — the surplus is
// drained into the transport buffers (observable as pending events).
func TestCombinerDrainsOnCap(t *testing.T) {
	const cap = 2
	p := newCombinedPair(TransportOptions{BatchSize: 1 << 20, FlushInterval: -1}, 1, sumSpec(cap))
	for i := 0; i < 100; i++ {
		p.em.emit(stream.Item(i, 1)) // all distinct keys
		for _, b := range p.em.bufs {
			if b.comb != nil && b.comb.Len() >= cap {
				t.Fatalf("after %d distinct keys a combining buffer holds %d keys; cap %d must drain", i+1, b.comb.Len(), cap)
			}
		}
	}
	if p.em.pending == 0 {
		t.Fatal("cap-triggered drains produced no pending transport events")
	}
	p.em.eos()
}

// TestCombinerEmptyAtMarkersAndEOS checks the recovery-critical
// invariant directly: a marker (and EOS) leaves every combining buffer
// empty and nothing pending — the same provably-empty-at-cut property
// boltExec.restart relies on.
func TestCombinerEmptyAtMarkersAndEOS(t *testing.T) {
	p := newCombinedPair(TransportOptions{BatchSize: 1 << 20, FlushInterval: -1}, 2, sumSpec(1024))
	for i := 0; i < 50; i++ {
		p.em.emit(stream.Item(i%7, i))
	}
	held := 0
	for _, b := range p.em.bufs {
		if b.comb != nil {
			held += b.comb.Len()
		}
	}
	if held == 0 {
		t.Fatal("expected combining buffers to hold partial aggregates before the marker")
	}
	p.em.emit(mk(1, 1))
	if p.em.pending != 0 {
		t.Fatalf("marker left %d events buffered", p.em.pending)
	}
	for i := 0; i < 10; i++ {
		p.em.emit(stream.Item(i, i))
	}
	p.em.eos()
	if p.em.pending != 0 {
		t.Fatalf("EOS left %d events buffered", p.em.pending)
	}
}

// TestCombinerStatsCounters checks the observability surface: the
// emitter counts every item entering a combining buffer and every
// partial aggregate leaving one, and compression means out ≤ in.
func TestCombinerStatsCounters(t *testing.T) {
	stats := metrics.NewStats()
	recv := &runtimeComponent{component: &component{name: "dst", parallelism: 1}}
	recv.inboxes = []chan message{make(chan message, 1<<15)}
	recv.depths = make([]atomic.Int64, 1)
	recv.nChannels = 1
	send := &runtimeComponent{component: &component{name: "src", parallelism: 1}}
	send.workerOf = []int{-1}
	send.subs = []subscription{{to: recv, grouping: Fields, chBase: 0, colComb: asColSpec(sumSpec(1024))}}
	em := newEmitter(send, 0, stats.Instance("src", 0), nil)
	const items, keys = 200, 5
	for i := 0; i < items; i++ {
		em.emit(stream.Item(i%keys, 1))
	}
	em.emit(mk(1, 1))
	em.eos()
	in, out := stats.Combined()
	if in != items {
		t.Fatalf("combinedIn = %d, want %d", in, items)
	}
	if out != keys {
		t.Fatalf("combinedOut = %d, want %d (one partial per key at the marker)", out, keys)
	}
}

// combSumBolt aggregates int values per key and emits the per-key totals
// at each marker, in sorted key order so its output block is a pure
// function of the input block (dttlint DTT001) — commutative, so it
// tolerates combined input.
func combSumBolt() Bolt {
	acc := map[any]int{}
	return BoltFunc(func(e stream.Event, emit func(stream.Event)) {
		if e.IsMarker {
			keys := make([]int, 0, len(acc))
			for k := range acc {
				keys = append(keys, k.(int))
			}
			sort.Ints(keys)
			for _, k := range keys {
				emit(stream.Item(k, acc[k]))
			}
			acc = map[any]int{}
			emit(e)
			return
		}
		acc[e.Key.(int)%3] += e.Value.(int)
	})
}

// TestCombSumBoltDeterministicEmitOrder pins the DTT001 fix above:
// the per-key totals at a marker come out in sorted key order, never
// in map iteration order.
func TestCombSumBoltDeterministicEmitOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		b := combSumBolt()
		for i := 0; i < 30; i++ {
			b.Next(stream.Item(i, 1), func(stream.Event) {})
		}
		var keys []int
		b.Next(stream.Mark(stream.Marker{Seq: 0}), func(e stream.Event) {
			if !e.IsMarker {
				keys = append(keys, e.Key.(int))
			}
		})
		if !sort.IntsAreSorted(keys) {
			t.Fatalf("trial %d: marker emission order %v is not sorted", trial, keys)
		}
		if len(keys) != 3 {
			t.Fatalf("trial %d: expected 3 keys, got %v", trial, keys)
		}
	}
}

// TestCombinedTopologyMatchesUncombined runs a real topology — spout →
// aggregating bolt on a fields edge — with and without CombineWith and
// requires trace-equal sink outputs, under executor concurrency.
func TestCombinedTopologyMatchesUncombined(t *testing.T) {
	events := make([]stream.Event, 0, 420)
	for b := 0; b < 4; b++ {
		for i := 0; i < 100; i++ {
			events = append(events, stream.Item(i%10, i))
		}
		events = append(events, mk(int64(b), int64(b*10)))
	}
	run := func(spec *CombinerSpec) []stream.Event {
		t.Helper()
		top := NewTopology("combined")
		top.AddSpout("src", 2, func(int) Spout { return SliceSpout(events) })
		decl := top.AddBolt("agg", 2, func(int) Bolt { return combSumBolt() }).FieldsGrouping("src", true)
		if spec != nil {
			decl.CombineWith(*spec)
		}
		top.AddSink("out", "agg")
		res, err := top.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Sinks["out"]
	}
	plain := run(nil)
	for _, cap := range []int{1, 4, 1024} {
		combined := run(sumSpec(cap))
		if !stream.Equivalent(stream.U("Int", "Int"), combined, plain) {
			t.Fatalf("cap=%d: combined topology output is not trace-equivalent to the uncombined run (%d vs %d events)",
				cap, len(combined), len(plain))
		}
	}
}

// TestCombinerValidation pins the descriptive errors for malformed
// combiner attachments and transport options at Run time.
func TestCombinerValidation(t *testing.T) {
	build := func(g func(*BoltDecl) *BoltDecl, spec CombinerSpec) *Topology {
		top := NewTopology("bad")
		top.AddSpout("src", 1, func(int) Spout { return SliceSpout(nil) })
		g(top.AddBolt("agg", 1, func(int) Bolt { return combSumBolt() })).CombineWith(spec)
		top.AddSink("out", "agg")
		return top
	}
	fields := func(d *BoltDecl) *BoltDecl { return d.FieldsGrouping("src", true) }
	shuffle := func(d *BoltDecl) *BoltDecl { return d.ShuffleGrouping("src", true) }

	cases := []struct {
		name string
		top  *Topology
		want string
	}{
		{"nil-in", build(fields, CombinerSpec{Combine: sumSpec(1).Combine, Cap: 1}), "needs In and Combine"},
		{"nil-combine", build(fields, CombinerSpec{In: sumSpec(1).In, Cap: 1}), "needs In and Combine"},
		{"zero-cap", build(fields, *sumSpec(0)), "positive key cap"},
		{"negative-cap", build(fields, *sumSpec(-3)), "positive key cap"},
		{"shuffle-edge", build(shuffle, *sumSpec(8)), "requires fields grouping"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.top.Run()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want error containing %q", err, c.want)
			}
		})
	}

	t.Run("negative-batch-size", func(t *testing.T) {
		top := NewTopology("bad-transport")
		top.AddSpout("src", 1, func(int) Spout { return SliceSpout(nil) })
		top.AddSink("out", "src")
		top.SetTransport(TransportOptions{BatchSize: -5})
		_, err := top.Run()
		if err == nil || !strings.Contains(err.Error(), "BatchSize must be ≥ 0") {
			t.Fatalf("got %v, want BatchSize validation error", err)
		}
	})
}

// FuzzCombinerFlush drives random emit/marker/block/flush/EOS scripts
// through a combined emitter and the uncombined BatchSize-1 model,
// with the batch size and key cap taken from the fuzz input, and
// requires segment-aggregate equality on the combined edge plus exact
// equality on the other edge (runCombinedDifferential).
func FuzzCombinerFlush(f *testing.F) {
	f.Add(uint8(4), uint8(2), []byte{0, 1, 2, 3, 10, 20, 30, 9, 17, 25, 33})
	f.Add(uint8(0), uint8(0), []byte{5, 5, 5, 5, 5})
	f.Add(uint8(1), uint8(1), []byte{0, 9, 1, 9, 2, 9})
	f.Add(uint8(64), uint8(200), []byte{40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 19, 29})
	f.Add(uint8(200), uint8(3), []byte{7, 3, 7, 3, 7, 3, 9, 8, 7, 9})
	f.Add(uint8(3), uint8(2), []byte{0, 6, 1, 16, 2, 9, 26, 3, 36, 8, 4, 7, 6, 9})
	f.Fuzz(func(t *testing.T, rawBatch, rawCap uint8, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		ops := make([]tOp, 0, len(script))
		for i, b := range script {
			switch b % 10 {
			case 9:
				ops = append(ops, tOp{kind: 1}) // marker
			case 8:
				ops = append(ops, tOp{kind: 3}) // flush (combined side only)
			case 7:
				ops = append(ops, tOp{kind: 2, key: int(b) % 5, val: 1000 + i, blockLen: int(b) % 4})
			case 6:
				ops = append(ops, tOp{kind: 4, key: int(b) % 5, val: i, blockLen: int(b) % 4}) // typed batch
			default:
				ops = append(ops, tOp{kind: 0, key: int(b) % 5, val: i})
			}
		}
		tr := TransportOptions{BatchSize: int(rawBatch), FlushInterval: -1}
		runCombinedDifferential(t, tr, 3, sumSpec(1+int(rawCap)), ops)
	})
}
