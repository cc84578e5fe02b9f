package storm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// This file restates the recovery invariants of recovery.go as tests on
// columnar topologies — typed edges, a typed sender-side combiner and
// marker-cut recovery together: buffers are empty at every restart
// point and rescale barrier, nothing of a block is visible downstream
// before its cut's snapshot succeeded, a batch is released exactly once
// (stream.Cols panics on a second Release, which fails any run here),
// and the inbox-depth gauge counts a batch's rows.

var intKind = stream.ColKindFor[int, int]()

// colSliceSpout replays a fixed event sequence as a ColSpout: runs of
// items come out as typed batches, markers through Next.
type colSliceSpout struct {
	evs []stream.Event
	i   int
}

func (s *colSliceSpout) ColKind() *stream.ColKind { return intKind }

func (s *colSliceSpout) Next() (stream.Event, bool) {
	if s.i >= len(s.evs) {
		return stream.Event{}, false
	}
	s.i++
	return s.evs[s.i-1], true
}

func (s *colSliceSpout) NextCols(out stream.Columns, max int) int {
	n := 0
	for ; n < max && s.i < len(s.evs) && !s.evs[s.i].IsMarker; n++ {
		out.AppendEvent(s.evs[s.i])
		s.i++
	}
	return n
}

// colSumBolt is rsSumBolt with a columnar surface: the same per-key
// running sums, batch in and batch out. boxed counts items that took
// the boxed Next path instead; onSnapshot and onReshard, when set, run
// inside the respective calls.
type colSumBolt struct {
	rsSumBolt
	boxed      *atomic.Int64
	onSnapshot func() error
	onReshard  func()
}

func (s *colSumBolt) InColKind() *stream.ColKind  { return intKind }
func (s *colSumBolt) OutColKind() *stream.ColKind { return intKind }

func (s *colSumBolt) ProcessCols(in, out stream.Columns) {
	tin, tout := in.(*stream.Cols[int, int]), out.(*stream.Cols[int, int])
	for i, k := range tin.Keys {
		s.sums[k] += tin.Vals[i]
		tout.Append(k, s.sums[k])
	}
}

func (s *colSumBolt) Next(e stream.Event, emit func(stream.Event)) {
	if !e.IsMarker && s.boxed != nil {
		s.boxed.Add(1)
	}
	s.rsSumBolt.Next(e, emit)
}

func (s *colSumBolt) Snapshot() ([]byte, error) {
	if s.onSnapshot != nil {
		if err := s.onSnapshot(); err != nil {
			return nil, err
		}
	}
	return s.rsSumBolt.Snapshot()
}

func (s *colSumBolt) Reshard(old [][]byte, newPar int, owner func(key any) int) ([][]byte, error) {
	if s.onReshard != nil {
		s.onReshard()
	}
	return s.rsSumBolt.Reshard(old, newPar, owner)
}

// maxCombiner is a typed sender-side combiner over (int, int) rows:
// per key, the maximum value — what a running-sum producer's block
// boils down to.
type maxCombiner struct {
	idx  map[int]int
	keys []int
	vals []int
	ins  int
	// boxed counts rows that arrived through FoldEvent.
	boxed *atomic.Int64
}

func (c *maxCombiner) fold(k, v int) {
	c.ins++
	if i, ok := c.idx[k]; ok {
		c.vals[i] = max(c.vals[i], v)
		return
	}
	c.idx[k] = len(c.keys)
	c.keys, c.vals = append(c.keys, k), append(c.vals, v)
}

func (c *maxCombiner) Fold(in stream.Columns, rows []int32, capacity int) (m int, ok bool) {
	tin, ok := in.(*stream.Cols[int, int])
	for ; ok && m < len(rows) && len(c.keys) < capacity; m++ {
		c.fold(tin.Keys[rows[m]], tin.Vals[rows[m]])
	}
	return m, ok
}

func (c *maxCombiner) FoldEvent(e stream.Event) {
	if c.boxed != nil {
		c.boxed.Add(1)
	}
	c.fold(e.Key.(int), e.Value.(int))
}

func (c *maxCombiner) Drain(out stream.Columns) (int, int) {
	tout := out.(*stream.Cols[int, int])
	tout.Keys, tout.Vals = append(tout.Keys, c.keys...), append(tout.Vals, c.vals...)
	ins, outs := c.ins, len(c.keys)
	clear(c.idx)
	c.keys, c.vals, c.ins = c.keys[:0], c.vals[:0], 0
	return ins, outs
}

func (c *maxCombiner) Len() int { return len(c.keys) }

func maxSpec(boxed *atomic.Int64) ColCombinerSpec {
	return ColCombinerSpec{OutKind: intKind, Cap: 1024,
		New: func() stream.ColCombiner { return &maxCombiner{idx: map[int]int{}, boxed: boxed} }}
}

// maxBolt keeps the per-key maximum of a block and emits it at the
// marker in key order: the consumer of a maxSpec edge (max is
// idempotent, so pre-combined input changes nothing).
type maxBolt struct{ rsSumBolt }

func (m *maxBolt) Next(e stream.Event, emit func(stream.Event)) {
	if !e.IsMarker {
		k := e.Key.(int)
		m.sums[k] = max(m.sums[k], e.Value.(int))
		return
	}
	for k := 0; k < 64; k++ {
		if v, ok := m.sums[k]; ok {
			emit(stream.Item(k, v))
		}
	}
	m.sums = map[int]int{}
	emit(e)
}

// colTopology wires src → sum ×par → max ×par → sink: a columnar source
// edge, typed batches out of sum, and a typed combiner on the fields
// edge into max. mkSum builds the sum bolts.
func colTopology(in []stream.Event, par int, mkSum func(int) Bolt, foldBoxed *atomic.Int64) *Topology {
	top := NewTopology("cols")
	top.AddSpout("src", 1, func(int) Spout { return &colSliceSpout{evs: in} })
	top.AddBolt("sum", par, mkSum).FieldsGrouping("src", true).ColumnarWith(intKind)
	top.AddBolt("max", par, func(int) Bolt { return &maxBolt{rsSumBolt{sumBolt{sums: map[int]int{}}}} }).
		FieldsGrouping("sum", true).ColCombineWith(maxSpec(foldBoxed))
	top.AddSink("sink", "max")
	return top
}

func plainColSum(int) Bolt {
	return &colSumBolt{rsSumBolt: rsSumBolt{sumBolt{sums: map[int]int{}}}}
}

// heldBy describes what an emitter still buffers, "" when nothing.
func heldBy(em *emitter) string {
	s := ""
	if em.pending != 0 {
		s = fmt.Sprintf("pending=%d", em.pending)
	}
	for i := range em.bufs {
		b := &em.bufs[i]
		if b.buf != nil || b.comb != nil && b.comb.Len() != 0 {
			s += fmt.Sprintf(" buf%d holds output", i)
		}
	}
	return s
}

// TestColumnarRecoveryTakesTypedPath: with recovery on, batches reach
// the bolt through ProcessCols and the combiner through Fold — zero
// items take the boxed Next or FoldEvent path, with or without a crash
// — and the output is the boxed fault-free run's.
func TestColumnarRecoveryTakesTypedPath(t *testing.T) {
	in := testStream(6, 200, 7)
	boxedTop := NewTopology("boxed")
	boxedTop.AddSpout("src", 1, func(int) Spout { return SliceSpout(in) })
	boxedTop.AddBolt("sum", 2, newRSSumBolt).FieldsGrouping("src", true)
	boxedTop.AddBolt("max", 2, func(int) Bolt { return &maxBolt{rsSumBolt{sumBolt{sums: map[int]int{}}}} }).FieldsGrouping("sum", true)
	boxedTop.AddSink("sink", "max")
	ref := referenceRun(t, func() *Topology { return boxedTop })

	for _, crash := range []bool{false, true} {
		var boxedNext, boxedFold atomic.Int64
		top := colTopology(in, 2, func(int) Bolt {
			return &colSumBolt{rsSumBolt: rsSumBolt{sumBolt{sums: map[int]int{}}}, boxed: &boxedNext}
		}, &boxedFold)
		top.SetRecovery(RecoveryPolicy{Enabled: true})
		if crash {
			top.SetFaultPlan(NewFaultPlan().CrashAt("sum", 0, 130).CrashAt("max", 1, 3))
		}
		res, err := top.Run()
		if err != nil {
			t.Fatalf("crash=%v: %v", crash, err)
		}
		if !stream.Equivalent(stream.U("Int", "Int"), res.Sinks["sink"], ref) {
			t.Fatalf("crash=%v: columnar recoverable output differs from the boxed run", crash)
		}
		if n := boxedNext.Load(); n != 0 {
			t.Fatalf("crash=%v: %d items reached the bolt through boxed Next", crash, n)
		}
		if n := boxedFold.Load(); n != 0 {
			t.Fatalf("crash=%v: %d rows reached the combiner through FoldEvent", crash, n)
		}
		if in, out := res.Stats.Combined(); in != 1200 || out >= in {
			t.Fatalf("crash=%v: combiner folded %d rows into %d, want all 1200 rows and fewer out", crash, in, out)
		}
		if restarts, replayed, _ := res.Stats.Recovery(); crash && (restarts < 2 || replayed == 0) {
			t.Fatalf("restarts=%d replayed=%d, want both crashes recovered by replay", restarts, replayed)
		}
	}
}

// TestBuffersEmptyAtRestartsAndBarriers checks, at every restart point
// (the policy logs one line before each restart, on the executor's own
// goroutine) and at a rescale barrier (Reshard runs under the gate
// mutex with every executor parked), that no emitter holds anything in
// its transport, combining or column buffers.
func TestBuffersEmptyAtRestartsAndBarriers(t *testing.T) {
	in := testStream(8, 150, 7)
	ref := referenceRun(t, func() *Topology { return colTopology(in, 2, plainColSum, nil) })

	var top *Topology
	var mu sync.Mutex
	var problems []string
	restarts, barriers := 0, 0
	mkSum := func(int) Bolt {
		b := plainColSum(0).(*colSumBolt)
		b.onReshard = func() {
			barriers++
			for _, g := range top.gate.Load().gates {
				if g.em == nil {
					problems = append(problems, fmt.Sprintf("barrier: %s[%d] has no emitter attached", g.rc.name, g.inst))
				} else if held := heldBy(g.em); held != "" {
					problems = append(problems, fmt.Sprintf("barrier: %s[%d] %s", g.rc.name, g.inst, held))
				}
			}
		}
		return b
	}
	top = colTopology(in, 2, mkSum, nil)
	top.SetRecovery(RecoveryPolicy{Enabled: true, Logf: func(format string, args ...any) {
		if len(args) < 2 {
			return
		}
		name, inst := args[0].(string), args[1].(int)
		cg := top.gate.Load()
		cg.mu.Lock()
		defer cg.mu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		restarts++
		for _, g := range cg.gates {
			if g.rc.name == name && g.inst == inst {
				if held := heldBy(g.em); held != "" {
					problems = append(problems, fmt.Sprintf("restart of %s[%d]: %s", name, inst, held))
				}
			}
		}
	}})
	top.SetFaultPlan(NewFaultPlan().
		CrashAt("sum", 0, 40).           // mid-batch
		CorruptEdge("sum", 1, "max", 5). // inside a cut's flush
		CrashAt("max", 0, 2).
		CrashTimes("sum", 1, 300, 2))
	top.SetRescalePlan(NewRescalePlan().RescaleAt("sum", 4, 5))
	res, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equivalent(stream.U("Int", "Int"), res.Sinks["sink"], ref) {
		t.Fatal("output differs from the fault-free fixed-parallelism run")
	}
	if restarts < 4 || barriers != 1 {
		t.Fatalf("observed %d restart points and %d barriers, want ≥ 4 and 1", restarts, barriers)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestBlockInvisibleBeforeSnapshot: when a cut's snapshot runs, nothing
// of the cut's block has reached the consumer — the flush follows the
// snapshot — and a cut whose snapshot fails is regenerated without
// duplicating anything downstream.
func TestBlockInvisibleBeforeSnapshot(t *testing.T) {
	in := testStream(6, 100, 5)
	ref := referenceRun(t, func() *Topology { return colTopology(in, 1, plainColSum, nil) })

	// seen counts the rows the consumer side has folded; at snapshot k
	// (0-based) it may hold at most the k earlier blocks' 100 rows each.
	var seen atomic.Int64
	cuts, failed := 0, false
	var early []string
	mkSum := func(int) Bolt {
		b := plainColSum(0).(*colSumBolt)
		b.onSnapshot = func() error {
			if got, limit := seen.Load(), int64(100*cuts); got > limit {
				early = append(early, fmt.Sprintf("snapshot of cut %d: consumer already saw %d rows, limit %d", cuts, got, limit))
			}
			if cuts == 2 && !failed {
				failed = true
				return fmt.Errorf("injected snapshot failure")
			}
			cuts++
			return nil
		}
		return b
	}
	top := colTopology(in, 1, mkSum, nil)
	// Count what arrives at the consumer through a tap on the combiner.
	for i := range top.components["max"].inputs {
		spec := maxSpec(nil)
		mk := spec.New
		spec.New = func() stream.ColCombiner { return &countingCombiner{ColCombiner: mk(), seen: &seen} }
		top.components["max"].inputs[i].colComb = &spec
	}
	top.SetRecovery(RecoveryPolicy{Enabled: true})
	res, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("the injected snapshot failure never fired")
	}
	if restarts, _, _ := res.Stats.Recovery(); restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (the failed snapshot)", restarts)
	}
	for _, e := range early {
		t.Error(e)
	}
	if !stream.Equivalent(stream.U("Int", "Int"), res.Sinks["sink"], ref) {
		t.Fatal("output differs from the failure-free run")
	}
	if got := seen.Load(); got != 600 {
		t.Fatalf("consumer side saw %d rows, want exactly the 600 emitted (a regenerated block must not duplicate)", got)
	}
}

// countingCombiner counts the rows folded into a combiner — i.e. what
// the producer made visible on the edge.
type countingCombiner struct {
	stream.ColCombiner
	seen *atomic.Int64
}

func (c *countingCombiner) Fold(in stream.Columns, rows []int32, capacity int) (int, bool) {
	m, ok := c.ColCombiner.Fold(in, rows, capacity)
	c.seen.Add(int64(m))
	return m, ok
}

// TestDropAndLogDrainReleasesBatches: an executor that cannot recover
// drains its pending input — whole batches included — by dropping and
// counting rows, releases every batch exactly once, and keeps
// forwarding markers.
func TestDropAndLogDrainReleasesBatches(t *testing.T) {
	in := testStream(5, 100, 5)
	top := colTopology(in, 1, plainColSum, nil)
	top.SetRecovery(RecoveryPolicy{Enabled: true, MaxRestarts: 1, OnUnrecoverable: DropAndLog})
	top.SetFaultPlan(NewFaultPlan().CrashTimes("sum", 0, 150, 50))
	res, err := top.Run()
	if err != nil {
		t.Fatalf("drop-and-log must keep the topology alive: %v", err)
	}
	_, _, dropped := res.Stats.Recovery()
	// Block 1 committed before the crash; every later row is dropped.
	if dropped != 400 {
		t.Fatalf("dropped = %d rows, want the 400 of the four uncommitted blocks", dropped)
	}
	markers := 0
	for _, e := range res.Sinks["sink"] {
		if e.IsMarker {
			markers++
		}
	}
	if markers != 5 {
		t.Fatalf("sink saw %d markers, want all 5 forwarded", markers)
	}
}

// trackedCols counts the Releases of the batch it wraps.
type trackedCols struct {
	stream.Columns
	released *atomic.Int64
}

func (c trackedCols) Release() {
	c.released.Add(1)
	c.Columns.Release()
}

// TestFailedExecutorReleasesItsBatches: an executor outside the recovery
// policy that fails for good (the run aborts) still releases every batch
// it was handed, once — the one in flight when the bolt panicked, the
// ones the merger held, and the ones that arrive while it drains to its
// EOS. The messages are placed in the inbox before the run starts, ahead
// of the (empty) source's EOS.
func TestFailedExecutorReleasesItsBatches(t *testing.T) {
	for _, aligned := range []bool{false, true} {
		var released [3]atomic.Int64
		msgs := make([]message, 0, 3)
		for i := range released {
			c := intKind.Get()
			c.AppendEvent(stream.Item(i, i))
			msgs = append(msgs, message{cols: trackedCols{c, &released[i]}})
			if i == 0 {
				// Aligned, the first batch waits in the merger for this
				// marker; raw, the bolt has already failed on the batch.
				msgs[0].punct, msgs[0].mark = markPunct, mk(0, 10).Marker
			}
		}
		top := NewTopology("leak")
		top.AddSpout("src", 1, func(int) Spout { return SliceSpout(nil) })
		top.AddBolt("boom", 1, func(int) Bolt {
			return BoltFunc(func(stream.Event, func(stream.Event)) { panic("boom") })
		}).ShuffleGrouping("src", aligned)
		top.AddSink("sink", "boom")
		rts, err := top.resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			rts["boom"].inboxes[0] <- m
		}
		if _, err := top.execute(rts); err == nil {
			t.Fatalf("aligned=%v: the run must fail", aligned)
		}
		for i := range released {
			if n := released[i].Load(); n != 1 {
				t.Errorf("aligned=%v: batch %d released %d times, want once", aligned, i, n)
			}
		}
	}
}

// TestRawBoltDropAndLogForwardsMarkers pins what a bolt on raw
// (unaligned) inputs does once it fails under the drop-and-log policy:
// the run survives, what it emitted before the failure stays, the
// offending item and everything after it is dropped and counted, and it
// keeps forwarding markers — once each — so the aligned consumer behind
// it completes every cut instead of draining at EOS.
func TestRawBoltDropAndLogForwardsMarkers(t *testing.T) {
	in := testStream(3, 8, 2) // 24 items, a marker after every 8
	top := NewTopology("raw-drop")
	top.AddSpout("src", 1, func(int) Spout { return SliceSpout(in) })
	top.AddBolt("frail", 1, func(int) Bolt { return &fragileBolt{after: 10} }).ShuffleGrouping("src", false)
	top.AddSink("sink", "frail")
	top.SetRecovery(RecoveryPolicy{Enabled: true, OnUnrecoverable: DropAndLog})
	res, err := top.Run()
	if err != nil {
		t.Fatalf("drop-and-log must keep the topology alive: %v", err)
	}
	items, markers := 0, 0
	for _, e := range res.Sinks["sink"] {
		if e.IsMarker {
			markers++
		} else {
			items++
		}
	}
	if items != 10 || markers != 3 {
		t.Fatalf("sink saw %d items and %d markers, want the 10 items before the failure and all 3 markers", items, markers)
	}
	if _, _, dropped := res.Stats.Recovery(); dropped != 14 {
		t.Fatalf("dropped = %d, want the 14 items from the offending one on", dropped)
	}
	for _, c := range res.Stats.Snapshot().ByComponent() {
		if c.Component == "sink" && c.Cuts != 3 {
			t.Fatalf("the sink completed %d cuts, want 3", c.Cuts)
		}
	}
}

// TestQueueDepthCountsBatchRows pins the unit of the inbox-depth gauge
// on a columnar edge: a cols message weighs its rows, on the sender's
// add and the receiver's subtract alike. One 2000-key block reaches
// "max" as a single drained batch; the small blocks behind it must
// observe a drained inbox again.
func TestQueueDepthCountsBatchRows(t *testing.T) {
	var in []stream.Event
	for k := 0; k < 2000; k++ {
		in = append(in, stream.Item(k, 1))
	}
	in = append(in, mk(0, 10))
	for b := 1; b <= 40; b++ {
		in = append(in, stream.Item(b%3, 1), mk(int64(b), int64(10*(b+1))))
	}
	top := NewTopology("depth")
	top.AddSpout("src", 1, func(int) Spout { return SliceSpout(in) })
	spec := maxSpec(nil)
	spec.Cap = 4096
	top.AddBolt("max", 1, identityBolt).FieldsGrouping("src", true).ColCombineWith(spec)
	top.AddSink("sink", "max")
	top.SetObservability(metrics.ObsConfig{Enabled: true, SampleEvery: 4, SpanRing: 32})
	// No idle flush to speak of: only the marker drains the combiner, so
	// the block arrives as one batch however slowly the source runs.
	top.SetTransport(TransportOptions{FlushInterval: time.Hour})
	res, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Stats.Snapshot().ByComponent() {
		if c.Component != "max" {
			continue
		}
		if c.MaxQueueDepth < 2000 {
			t.Fatalf("high-water queue depth = %d events, want ≥ 2000 (the drained batch's rows)", c.MaxQueueDepth)
		}
		if c.QueueDepth > 64 {
			t.Fatalf("last observed queue depth = %d events, want a drained inbox (sender and receiver must weigh a batch alike)", c.QueueDepth)
		}
		return
	}
	t.Fatal("no stats for component max")
}
