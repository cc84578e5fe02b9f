package storm

import (
	"bytes"
	"encoding/gob"
	"errors"
	"slices"
	"testing"

	"datatrace/internal/codec"
	"datatrace/internal/stream"
)

// deliveredCut is what a recording sink consumer saw of one cut: the
// cut and its rows, boxed and sorted (the rows of one block are a
// multiset under U(K,V)).
type deliveredCut struct {
	cut  Cut
	rows []string
}

// recordCuts installs a consumer on the topology's sinks that records
// every call.
func recordCuts(top *Topology) *[]deliveredCut {
	var got []deliveredCut
	top.SetSinkConsumer(func(string) SinkFunc {
		return func(c Cut, rows []stream.Columns) {
			d := deliveredCut{cut: c}
			for _, b := range rows {
				for i := range b.Len() {
					d.rows = append(d.rows, b.EventAt(i).String())
				}
			}
			slices.Sort(d.rows)
			got = append(got, d)
		}
	})
	return &got
}

// sumInput is blocks blocks of per items each over five keys, every
// block closed by its marker.
func sumInput(blocks, per int) []stream.Event {
	var in []stream.Event
	for b := range blocks {
		for i := range per {
			in = append(in, stream.Item(i%5, b*per+i))
		}
		in = append(in, stream.Mark(stream.Marker{Seq: int64(b), Timestamp: int64(b + 1)}))
	}
	return in
}

// TestSinkCutsExactlyOnceUnderRecovery crashes the sink's upstream in
// the middle of a block, under marker-cut recovery: the sink's consumer
// still sees cuts 0…n−1 once each, in order, each closed by its marker
// and holding exactly the failure-free run's rows — never a row of the
// failed attempt — then the empty trailing block once.
func TestSinkCutsExactlyOnceUnderRecovery(t *testing.T) {
	const blocks = 6
	in := sumInput(blocks, 20)
	run := func(plan *FaultPlan) ([]deliveredCut, int64) {
		top := sumTopology(in, 2)
		top.SetRecovery(RecoveryPolicy{Enabled: true})
		top.SetFaultPlan(plan)
		got := recordCuts(top)
		res, err := top.Run()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := res.Sinks["sink"]; ok {
			t.Fatal("a sink with its own consumer was also collected into Result.Sinks")
		}
		var restarts int64
		for _, is := range res.Stats.Instances() {
			restarts += is.Restarts()
		}
		return *got, restarts
	}
	want, _ := run(nil)
	// sum[0] owns keys 0, 2 and 4 of each block's 20 items: its 30th
	// event is in the middle of the third block.
	got, restarts := run(NewFaultPlan().CrashAt("sum", 0, 30))
	if restarts == 0 {
		t.Fatal("the crash did not fire")
	}
	if len(got) != blocks+1 || len(want) != blocks+1 {
		t.Fatalf("got %d cuts, want %d and the failure-free run delivered %d", len(got), blocks+1, len(want))
	}
	for n, d := range got {
		if d.cut.N != uint64(n) {
			t.Fatalf("call %d delivered cut %d", n, d.cut.N)
		}
		if end := n == blocks; d.cut.End != end || !end && d.cut.Marker.Seq != int64(n) {
			t.Fatalf("cut %d: %+v, want End=%t and marker %d", n, d.cut, end, n)
		}
		if !slices.Equal(d.rows, want[n].rows) {
			t.Fatalf("cut %d rows after the crash:\n%v\nfailure-free:\n%v", n, d.rows, want[n].rows)
		}
	}
}

// sinkFrames encodes cuts — rows per cut, in batches of 1 000, the last
// cut the trailing block — as the netSinkData a worker's sinkStream
// sends.
func sinkFrames(t *testing.T, cuts [][]int64) []*netSinkData {
	t.Helper()
	var buf bytes.Buffer
	s := &sinkStream{sink: "sink", cw: &ctrlWriter{enc: gob.NewEncoder(&buf)}, w: codec.NewBatchWriter()}
	kind := stream.ColKindFor[int64, float64]()
	for n, rows := range cuts {
		var batches []stream.Columns
		for lo := 0; lo < len(rows); lo += 1000 {
			b := kind.Get().(*stream.Cols[int64, float64])
			for _, k := range rows[lo:min(lo+1000, len(rows))] {
				b.Append(k, float64(k))
			}
			batches = append(batches, b)
		}
		end := n == len(cuts)-1
		s.consume(Cut{N: uint64(n), Marker: stream.Marker{Seq: int64(n), Timestamp: int64(n + 1)}, End: end}, batches)
		for _, b := range batches {
			b.Release()
		}
	}
	if s.err != nil {
		t.Fatal(s.err)
	}
	dec := gob.NewDecoder(&buf)
	var out []*netSinkData
	for buf.Len() > 0 {
		var env netEnvelope
		if err := dec.Decode(&env); err != nil {
			t.Fatal(err)
		}
		out = append(out, env.Sink)
	}
	return out
}

// TestCoordinatorKeepsEachCutOnce replays a sink's cuts the way a
// cluster restart does: attempt 0 delivers cuts 0 and 1 and its
// trailing block, then fails; attempt 1, a fresh frame stream, delivers
// every cut again. The coordinator keeps each cut once, by its number,
// and the trailing block of the attempt that succeeded.
func TestCoordinatorKeepsEachCutOnce(t *testing.T) {
	r := &coordinator{sinks: map[string]*sinkState{}, logf: func(string, ...any) {}}
	first := sinkFrames(t, [][]int64{{1, 2}, {3}, {99}})
	for _, d := range first {
		if err := r.onSink(0, d, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, ss := range r.sinks { // the attempt failed
		ss.tail, ss.dec = nil, nil
	}
	for _, d := range sinkFrames(t, [][]int64{{1, 2}, {3}, {4, 5}, {6}}) {
		if err := r.onSink(1, d, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r.replayedCuts != 2 {
		t.Fatalf("replayed cuts %d, want 2", r.replayedCuts)
	}
	traces := r.traces()
	got := stream.Render(traces["sink"])
	want := stream.Render([]stream.Event{
		stream.Item(int64(1), 1.0), stream.Item(int64(2), 2.0), stream.Mark(stream.Marker{Seq: 0, Timestamp: 1}),
		stream.Item(int64(3), 3.0), stream.Mark(stream.Marker{Seq: 1, Timestamp: 2}),
		stream.Item(int64(4), 4.0), stream.Item(int64(5), 5.0), stream.Mark(stream.Marker{Seq: 2, Timestamp: 3}),
		stream.Item(int64(6), 6.0),
	})
	if got != want {
		t.Fatalf("coordinator kept\n%s\nwant\n%s", got, want)
	}
	// A cut beyond the next one is a protocol error, not a gap to skip.
	if err := r.onSink(1, &netSinkData{Sink: "sink", Cut: Cut{N: 9}}, nil, nil); err == nil {
		t.Fatal("an out-of-order cut was accepted")
	}
}

// TestSinkStreamSplitsLargeCuts sends a cut of more than sinkFrameRows
// rows: it crosses as several frames of one message, and the
// coordinator keeps all of its rows, in order, once.
func TestSinkStreamSplitsLargeCuts(t *testing.T) {
	big := make([]int64, 0, 3*sinkFrameRows)
	for k := range int64(3 * sinkFrameRows) {
		big = append(big, k)
	}
	d := sinkFrames(t, [][]int64{big, nil})[0]
	frames := 0
	for dec := codec.NewFrameDecoder(bytes.NewReader(d.Frames)); ; frames++ {
		_, msgs, err := dec.DecodeVector(nil)
		if err != nil {
			break
		}
		for _, m := range msgs {
			m.Cols.Release()
		}
	}
	if frames < 3 {
		t.Fatalf("a cut of %d rows crossed in %d frames", len(big), frames)
	}
	r := &coordinator{sinks: map[string]*sinkState{}, logf: func(string, ...any) {}}
	if err := r.onSink(0, d, nil, nil); err != nil {
		t.Fatal(err)
	}
	traces := r.traces()
	got := traces["sink"]
	if len(got) != len(big)+1 || !got[len(big)].IsMarker {
		t.Fatalf("kept %d events, want the %d rows and the marker", len(got), len(big))
	}
	for i, k := range big {
		if got[i].Key != k {
			t.Fatalf("row %d is %v, want key %d", i, got[i], k)
		}
	}
}

// TestSinkStreamReportsUnregisteredTypes checks that a worker's sink
// stream records a row the codec cannot carry as an error — the worker
// fails its run with it — instead of dropping the row.
func TestSinkStreamReportsUnregisteredTypes(t *testing.T) {
	type unregistered struct{ X int }
	var buf bytes.Buffer
	s := &sinkStream{sink: "sink", cw: &ctrlWriter{enc: gob.NewEncoder(&buf)}, w: codec.NewBatchWriter()}
	b := stream.AnyKind.Get()
	b.AppendEvent(stream.Item(unregistered{1}, 1))
	s.consume(Cut{N: 0, Marker: stream.Marker{Seq: 0}}, []stream.Columns{b})
	b.Release()
	if s.err == nil {
		t.Fatal("an unregistered key type was sent")
	}
	if !errors.Is(s.err, codec.ErrUnregisteredType) {
		t.Fatalf("error %v is not ErrUnregisteredType", s.err)
	}
}
