package storm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"slices"
	"strings"
	"testing"
	"time"

	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// sumBolt is a recoverable per-key running-sum bolt: on each item it
// emits (key, running total). Its state round-trips through gob, so
// the runtime can checkpoint it at marker cuts.
type sumBolt struct {
	sums map[int]int
}

func newSumBolt(int) Bolt { return &sumBolt{sums: map[int]int{}} }

func (s *sumBolt) Next(e stream.Event, emit func(stream.Event)) {
	if e.IsMarker {
		emit(e)
		return
	}
	k := e.Key.(int)
	s.sums[k] += e.Value.(int)
	emit(stream.Item(k, s.sums[k]))
}

func (s *sumBolt) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.sums); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (s *sumBolt) Restore(data []byte) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(&s.sums)
}

// sumTopology wires src → sum ×par → sink with aligned edges and
// fields grouping, so every instance owns its keys.
func sumTopology(in []stream.Event, par int) *Topology {
	top := NewTopology("sums")
	top.AddSpout("src", 1, func(int) Spout { return SliceSpout(in) })
	top.AddBolt("sum", par, newSumBolt).FieldsGrouping("src", true)
	top.AddSink("sink", "sum")
	return top
}

// referenceRun executes a fault-free copy and returns its sink trace.
func referenceRun(t *testing.T, build func() *Topology) []stream.Event {
	t.Helper()
	res, err := build().Run()
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	return res.Sinks["sink"]
}

func TestCrashedRecoverableBoltMatchesFailureFreeRun(t *testing.T) {
	in := testStream(6, 8, 4)
	// Parallelism 1 so instance 0 sees every event and each crash
	// point in the sweep is guaranteed to fire.
	ref := referenceRun(t, func() *Topology { return sumTopology(in, 1) })

	for _, atEvent := range []int64{1, 7, 23, 40} {
		top := sumTopology(in, 1)
		top.SetRecovery(RecoveryPolicy{Enabled: true})
		top.SetFaultPlan(NewFaultPlan().CrashAt("sum", 0, atEvent))
		res, err := top.Run()
		if err != nil {
			t.Fatalf("crash at %d: recovery did not keep the topology alive: %v", atEvent, err)
		}
		if !stream.Equivalent(stream.U("Int", "Int"), res.Sinks["sink"], ref) {
			t.Fatalf("crash at %d: recovered output not trace-equivalent:\n ref %s\n got %s",
				atEvent, stream.Render(ref), stream.Render(res.Sinks["sink"]))
		}
		restarts, replayed, dropped := res.Stats.Recovery()
		if restarts < 1 {
			t.Fatalf("crash at %d: no restart recorded", atEvent)
		}
		if replayed < 0 || dropped != 0 {
			t.Fatalf("crash at %d: unexpected counters replayed=%d dropped=%d", atEvent, replayed, dropped)
		}
	}
}

func TestCrashedParallelBoltMatchesFailureFreeRun(t *testing.T) {
	in := testStream(6, 8, 4)
	ref := referenceRun(t, func() *Topology { return sumTopology(in, 2) })

	// Markers are broadcast, so every instance sees at least 6 events
	// whatever the key distribution: small crash points always fire.
	for instance := 0; instance < 2; instance++ {
		for _, atEvent := range []int64{1, 5} {
			top := sumTopology(in, 2)
			top.SetRecovery(RecoveryPolicy{Enabled: true})
			top.SetFaultPlan(NewFaultPlan().CrashAt("sum", instance, atEvent))
			res, err := top.Run()
			if err != nil {
				t.Fatalf("crash of instance %d at %d: %v", instance, atEvent, err)
			}
			if !stream.Equivalent(stream.U("Int", "Int"), res.Sinks["sink"], ref) {
				t.Fatalf("crash of instance %d at %d: output not trace-equivalent", instance, atEvent)
			}
			restarts, _, _ := res.Stats.Recovery()
			if restarts < 1 {
				t.Fatalf("crash of instance %d at %d: no restart recorded", instance, atEvent)
			}
		}
	}
}

func TestRepeatedCrashesRecoverWithinBudget(t *testing.T) {
	in := testStream(5, 10, 3)
	ref := referenceRun(t, func() *Topology { return sumTopology(in, 2) })

	top := sumTopology(in, 2)
	top.SetRecovery(RecoveryPolicy{Enabled: true, MaxRestarts: 4})
	top.SetFaultPlan(NewFaultPlan().CrashTimes("sum", 1, 5, 3))
	res, err := top.Run()
	if err != nil {
		t.Fatalf("repeated crashes within budget must recover: %v", err)
	}
	if !stream.Equivalent(stream.U("Int", "Int"), res.Sinks["sink"], ref) {
		t.Fatal("recovered output not trace-equivalent after repeated crashes")
	}
	restarts, _, _ := res.Stats.Recovery()
	if restarts != 3 {
		t.Fatalf("restarts = %d, want 3", restarts)
	}
}

func TestRestartBudgetExhaustionAborts(t *testing.T) {
	in := testStream(4, 10, 3)
	top := sumTopology(in, 1)
	top.SetRecovery(RecoveryPolicy{Enabled: true, MaxRestarts: 2})
	top.SetFaultPlan(NewFaultPlan().CrashTimes("sum", 0, 3, 100))
	_, err := top.Run()
	if err == nil || !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("want restart-budget error, got %v", err)
	}
}

func TestRestartBudgetExhaustionDropsAndLogs(t *testing.T) {
	in := testStream(4, 10, 3)
	var logged []string
	top := sumTopology(in, 1)
	top.SetRecovery(RecoveryPolicy{
		Enabled: true, MaxRestarts: 2, OnUnrecoverable: DropAndLog,
		Logf: func(format string, args ...any) { logged = append(logged, format) },
	})
	top.SetFaultPlan(NewFaultPlan().CrashTimes("sum", 0, 3, 100))
	res, err := top.Run()
	if err != nil {
		t.Fatalf("drop-and-log must keep the topology alive: %v", err)
	}
	_, _, dropped := res.Stats.Recovery()
	if dropped == 0 {
		t.Fatal("degraded executor must count dropped items")
	}
	if len(logged) == 0 {
		t.Fatal("degradation must be logged")
	}
	// Markers must still be forwarded, deduplicated per sequence, so
	// the aligned sink stays aligned.
	seqs := map[int64]int{}
	for _, e := range res.Sinks["sink"] {
		if e.IsMarker {
			seqs[e.Marker.Seq]++
		}
	}
	for seq, n := range seqs {
		if n != 1 {
			t.Fatalf("marker %d forwarded %d times, want exactly once", seq, n)
		}
	}
	if len(seqs) == 0 {
		t.Fatal("degraded executor forwarded no markers at all")
	}
}

// fragileBolt has no Snapshot/Restore: recovery cannot bring it back.
type fragileBolt struct{ after int }

func (p *fragileBolt) Next(e stream.Event, emit func(stream.Event)) {
	if !e.IsMarker {
		p.after--
		if p.after < 0 {
			panic("fragile bolt failure")
		}
	}
	emit(e)
}

// poisonBolt is a stateless Recoverable bolt that fails on one item
// value, live and on every replay.
type poisonBolt struct{ poison int }

func (p poisonBolt) Next(e stream.Event, emit func(stream.Event)) {
	if !e.IsMarker && e.Value == p.poison {
		panic("poison item")
	}
	emit(e)
}
func (poisonBolt) Snapshot() ([]byte, error) { return nil, nil }
func (poisonBolt) Restore([]byte) error      { return nil }

// TestPoisonItemDropsWholeBlocks: an aligned Recoverable bolt that
// fails mid-batch live and again mid-replay runs out of restarts and
// degrades. Aligned blocks are dropped whole, so every item is either at
// the sink or counted in Dropped — the rows the failed deliveries had got
// through are not subtracted from the count.
func TestPoisonItemDropsWholeBlocks(t *testing.T) {
	in := testStream(3, 8, 2) // 24 items, a marker after every 8
	top := NewTopology("poison")
	top.AddSpout("src", 1, func(int) Spout { return SliceSpout(in) })
	top.AddBolt("frail", 1, func(int) Bolt { return poisonBolt{poison: 13} }).ShuffleGrouping("src", true)
	top.AddSink("sink", "frail")
	top.SetRecovery(RecoveryPolicy{Enabled: true, MaxRestarts: 1, OnUnrecoverable: DropAndLog})
	res, err := top.Run()
	if err != nil {
		t.Fatalf("drop-and-log must keep the topology alive: %v", err)
	}
	items := 0
	for _, e := range res.Sinks["sink"] {
		if !e.IsMarker {
			items++
		}
	}
	_, _, dropped := res.Stats.Recovery()
	if items != 8 || dropped != 16 {
		t.Fatalf("sink saw %d items, dropped = %d; want the committed block's 8 and the other 16", items, dropped)
	}
}

func TestNonSnapshottableBoltAbortsByDefault(t *testing.T) {
	in := testStream(3, 8, 2)
	top := NewTopology("fragile")
	top.AddSpout("src", 1, func(int) Spout { return SliceSpout(in) })
	top.AddBolt("frail", 1, func(int) Bolt { return &fragileBolt{after: 5} }).ShuffleGrouping("src", true)
	top.AddSink("sink", "frail")
	top.SetRecovery(RecoveryPolicy{Enabled: true})
	_, err := top.Run()
	if err == nil || !strings.Contains(err.Error(), "not snapshottable") {
		t.Fatalf("want not-snapshottable abort, got %v", err)
	}
}

func TestNonSnapshottableBoltCanDropAndLog(t *testing.T) {
	in := testStream(3, 8, 2)
	top := NewTopology("fragile-drop")
	top.AddSpout("src", 1, func(int) Spout { return SliceSpout(in) })
	// Crash in the second block: the first block's items flush at the
	// first marker cut and must survive degradation.
	top.AddBolt("frail", 1, func(int) Bolt { return &fragileBolt{after: 10} }).ShuffleGrouping("src", true)
	top.AddSink("sink", "frail")
	top.SetRecovery(RecoveryPolicy{Enabled: true, OnUnrecoverable: DropAndLog})
	res, err := top.Run()
	if err != nil {
		t.Fatalf("drop-and-log must keep the topology alive: %v", err)
	}
	_, _, dropped := res.Stats.Recovery()
	if dropped == 0 {
		t.Fatal("degraded executor must count dropped items")
	}
	items := 0
	for _, e := range res.Sinks["sink"] {
		if !e.IsMarker {
			items++
		}
	}
	if items == 0 {
		t.Fatal("items processed before the failure must reach the sink")
	}
}

func TestSlowExecutorOnlyDelays(t *testing.T) {
	in := testStream(3, 6, 2)
	ref := referenceRun(t, func() *Topology { return sumTopology(in, 2) })

	top := sumTopology(in, 2)
	top.SetFaultPlan(NewFaultPlan().SlowExecutor("sum", 0, 500*time.Microsecond))
	res, err := top.Run()
	if err != nil {
		t.Fatalf("a slow executor must not fail the topology: %v", err)
	}
	if !stream.Equivalent(stream.U("Int", "Int"), res.Sinks["sink"], ref) {
		t.Fatal("slow executor changed the trace")
	}
}

func TestCorruptEdgeRecoversProducer(t *testing.T) {
	in := testStream(6, 8, 4)
	ref := referenceRun(t, func() *Topology { return sumTopology(in, 2) })

	top := sumTopology(in, 2)
	top.SetRecovery(RecoveryPolicy{Enabled: true})
	top.SetFaultPlan(NewFaultPlan().CorruptEdge("sum", 0, "sink", 4))
	res, err := top.Run()
	if err != nil {
		t.Fatalf("corruption on a recoverable producer must recover: %v", err)
	}
	if !stream.Equivalent(stream.U("Int", "Int"), res.Sinks["sink"], ref) {
		t.Fatal("recovered output not trace-equivalent after edge corruption")
	}
	restarts, _, _ := res.Stats.Recovery()
	if restarts < 1 {
		t.Fatal("corruption must surface as a producer restart")
	}
}

// appendSumBolt is sumBolt with the buffer-appending snapshot, so the
// executor writes each cut into its spare buffer. It also counts its
// items, and every Restore records the count it came back with.
type appendSumBolt struct {
	sumBolt
	items    int
	restored *[]int
}

func (b *appendSumBolt) Next(e stream.Event, emit func(stream.Event)) {
	if !e.IsMarker {
		b.items++
	}
	b.sumBolt.Next(e, emit)
}

func (b *appendSumBolt) AppendSnapshot(dst []byte) ([]byte, error) {
	state, err := b.sumBolt.Snapshot()
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b.items))
	return append(dst, state...), err
}

func (b *appendSumBolt) Snapshot() ([]byte, error) { return b.AppendSnapshot(nil) }

func (b *appendSumBolt) Restore(data []byte) error {
	b.items = int(binary.LittleEndian.Uint64(data))
	*b.restored = append(*b.restored, b.items)
	return b.sumBolt.Restore(data[8:])
}

// TestCrashInCutFlushRestoresPreviousCut crashes the executor inside
// cut N+1's flush — after that cut's snapshot was written into the spare
// buffer, before it was committed. The restart must restore exactly
// cut N: the spare's bytes must not have become the checkpoint, and the
// buffer swap must not have corrupted cut N's.
func TestCrashInCutFlushRestoresPreviousCut(t *testing.T) {
	const blocks, perBlock, cutN = 6, 8, 3
	in := testStream(blocks, perBlock, 4)
	var restored []int
	build := func() *Topology {
		top := NewTopology("sums")
		top.AddSpout("src", 1, func(int) Spout { return SliceSpout(in) })
		top.AddBolt("sum", 1, func(int) Bolt {
			return &appendSumBolt{sumBolt: sumBolt{sums: map[int]int{}}, restored: &restored}
		}).FieldsGrouping("src", true)
		top.AddSink("sink", "sum")
		return top
	}
	ref := referenceRun(t, build)

	// A cut's flush sends its block's perBlock rows and the marker; the
	// crash hits the second row of the flush of cut cutN+1 (1-based).
	top := build()
	top.SetRecovery(RecoveryPolicy{Enabled: true})
	top.SetFaultPlan(NewFaultPlan().CorruptEdge("sum", 0, "sink", int64(cutN*(perBlock+1)+2)))
	res, err := top.Run()
	if err != nil {
		t.Fatalf("crash inside a cut's flush must recover: %v", err)
	}
	if want := []int{cutN * perBlock}; !slices.Equal(restored, want) {
		t.Fatalf("restored item counts %v, want %v (cut %d's snapshot)", restored, want, cutN)
	}
	if !stream.Equivalent(stream.U("Int", "Int"), res.Sinks["sink"], ref) {
		t.Fatalf("recovered output not trace-equivalent:\n ref %s\n got %s", stream.Render(ref), stream.Render(res.Sinks["sink"]))
	}
}

func TestCorruptEdgeWithoutRecoveryAborts(t *testing.T) {
	in := testStream(3, 8, 2)
	top := sumTopology(in, 1)
	top.SetFaultPlan(NewFaultPlan().CorruptEdge("sum", 0, "sink", 2))
	_, err := top.Run()
	if err == nil || !strings.Contains(err.Error(), "injected serializer corruption") {
		t.Fatalf("want corruption error, got %v", err)
	}
}

func TestSpoutCrashTruncatesUnderDropPolicy(t *testing.T) {
	in := testStream(5, 10, 2)
	top := sumTopology(in, 1)
	top.SetRecovery(RecoveryPolicy{Enabled: true, OnUnrecoverable: DropAndLog})
	top.SetFaultPlan(NewFaultPlan().CrashAt("src", 0, 20))
	res, err := top.Run()
	if err != nil {
		t.Fatalf("spout crash under drop policy must not fail the run: %v", err)
	}
	items := 0
	for _, e := range res.Sinks["sink"] {
		if !e.IsMarker {
			items++
		}
	}
	if items == 0 || items >= 50 {
		t.Fatalf("truncated spout should deliver a proper prefix, got %d items", items)
	}
}

func TestFaultPlanValidation(t *testing.T) {
	in := testStream(1, 2, 1)
	cases := []struct {
		name string
		plan *FaultPlan
		want string
	}{
		{"unknown component", NewFaultPlan().CrashAt("ghost", 0, 1), "unknown component"},
		{"instance out of range", NewFaultPlan().CrashAt("sum", 7, 1), "parallelism"},
		{"unknown corrupt consumer", NewFaultPlan().CorruptEdge("sum", 0, "ghost", 1), "unknown component"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			top := sumTopology(in, 2)
			top.SetFaultPlan(tc.plan)
			_, err := top.Run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestRecoveryDisabledKeepsSeedFailureSemantics(t *testing.T) {
	in := testStream(3, 8, 2)
	top := sumTopology(in, 2)
	top.SetFaultPlan(NewFaultPlan().CrashAt("sum", 0, 3))
	_, err := top.Run()
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("with recovery disabled an injected crash must fail the run, got %v", err)
	}
}

func TestRecoveryEnabledNoFaultsIsTransparent(t *testing.T) {
	in := testStream(4, 10, 3)
	ref := referenceRun(t, func() *Topology { return sumTopology(in, 3) })

	top := sumTopology(in, 3)
	top.SetRecovery(RecoveryPolicy{Enabled: true})
	res, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equivalent(stream.U("Int", "Int"), res.Sinks["sink"], ref) {
		t.Fatal("recovery-enabled run changed the trace")
	}
	restarts, replayed, dropped := res.Stats.Recovery()
	if restarts != 0 || replayed != 0 || dropped != 0 {
		t.Fatalf("fault-free run recorded recovery activity: %d/%d/%d", restarts, replayed, dropped)
	}
}

// passRecoverable forwards every event; its checkpoint is empty.
type passRecoverable struct{}

func (passRecoverable) Next(e stream.Event, emit func(stream.Event)) { emit(e) }
func (passRecoverable) Snapshot() ([]byte, error)                    { return nil, nil }
func (passRecoverable) Restore([]byte) error                         { return nil }

// TestRestartDiscardsBufferedRows: a delivery that panics inside a cut's
// flush — the first destination's channel is closed, an in-process
// stand-in for a failed link — stops the flush there, so the buffers
// behind it still hold the block's rows. The restart must discard them:
// the replay regenerates the block, and rows kept from the failed
// attempt would reach the second, healthy destination twice.
func TestRestartDiscardsBufferedRows(t *testing.T) {
	top := NewTopology("restart-discard")
	top.AddSpout("src", 1, func(int) Spout { return SliceSpout(nil) })
	top.AddBolt("mid", 1, func(int) Bolt { return passRecoverable{} }).ShuffleGrouping("src", true)
	top.AddBolt("dst", 2, func(int) Bolt { return passRecoverable{} }).ShuffleGrouping("mid", false)
	top.SetTransport(TransportOptions{BatchSize: 1024, FlushInterval: -1})
	rts, err := top.resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	dead, healthy := make(chan message), make(chan message, 64)
	close(dead)
	rts["dst"].inboxes[0], rts["dst"].inboxes[1] = dead, healthy
	in := rts["mid"].inboxes[0]
	rows := intKind.Get().(*stream.Cols[int, int])
	for i := 0; i < 10; i++ {
		rows.Append(i, i)
	}
	in <- message{cols: rows, punct: markPunct, mark: stream.Marker{Seq: 1, Timestamp: 1}}
	in <- message{punct: eosPunct}
	pol := RecoveryPolicy{Enabled: true, MaxRestarts: 2, Logf: t.Logf}
	if err := runBolt(rts["mid"], 0, metrics.NewStats().Instance("mid", 0), nil, pol, nil, nil); err == nil {
		t.Fatal("every flush into the closed channel panics, yet the executor reported no failure")
	}
	close(healthy)
	seen := map[any]int{}
	for m := range healthy {
		if m.cols == nil {
			continue
		}
		for i := 0; i < m.cols.Len(); i++ {
			e := m.cols.EventAt(i)
			if seen[e.Key]++; seen[e.Key] > 1 {
				t.Fatalf("row %v reached the healthy destination %d times", e, seen[e.Key])
			}
		}
		m.cols.Release()
	}
	if len(seen) == 0 {
		t.Fatal("no row reached the healthy destination: the test exercises nothing")
	}
}
