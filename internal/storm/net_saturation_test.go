package storm

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"datatrace/internal/stream"
)

// This file reproduces the networked runtime's saturation deadlock as a
// test: two workers that send to each other at two depths of the DAG,
// tiny inboxes, sources that never wait. With synchronous socket writes
// as backpressure each worker's frame dispatcher ends up blocked on a
// full inbox while the executor that would drain it is blocked on the
// socket the other dispatcher no longer reads; with credit windows a
// dispatcher never blocks and the cycle cannot close.

// satVal is a fat pointer-free value: 64 bytes a row, so that the run's
// cross-worker traffic (≈ 75 MB each way on the first edge alone)
// overflows what a loopback socket pair buffers (up to 36 MB here) and
// the senders really do block. Only [0] is summed; the rest is ballast
// no varint can shrink.
type satVal [8]int64

func satRow(row int) (int64, satVal) {
	v := satVal{1}
	for i := 1; i < len(v); i++ {
		v[i] = math.MaxInt64 - int64(row)
	}
	return int64(row % satKeys), v
}

var satKind = stream.ColKindFor[int64, satVal]()

const (
	satRowsPerSource = 1 << 21 // two sources: 2^22 rows in all
	satRowsPerMarker = 1 << 18
	satKeys          = 64
)

// satSpout generates rows satRow rows as fast as it is asked, with a
// marker every perMarker rows — no window, no pacing.
type satSpout struct {
	rows, perMarker int
	row, markers    int
}

func (s *satSpout) ColKind() *stream.ColKind { return satKind }

// due reports whether the next event is a marker.
func (s *satSpout) due() bool { return s.row == (s.markers+1)*s.perMarker }

func (s *satSpout) Next() (stream.Event, bool) {
	if s.row >= s.rows && !s.due() {
		return stream.Event{}, false
	}
	if s.due() {
		s.markers++
		return stream.Mark(stream.Marker{Seq: int64(s.markers), Timestamp: int64(s.markers)}), true
	}
	s.row++
	return stream.Item(satRow(s.row)), true
}

func (s *satSpout) NextCols(out stream.Columns, max int) int {
	c := out.(*stream.Cols[int64, satVal])
	n := 0
	for ; n < max && !s.due() && s.row < s.rows; n++ {
		s.row++
		c.Append(satRow(s.row))
	}
	return n
}

// satSlowPass forwards every row and marker, burning a few microseconds
// of arithmetic per batch: the deliberately slow middle stage that lets
// the sources fill every queue in front of it.
type satSlowPass struct{ burnt uint64 }

func (*satSlowPass) InColKind() *stream.ColKind  { return satKind }
func (*satSlowPass) OutColKind() *stream.ColKind { return satKind }

func (s *satSlowPass) ProcessCols(in, out stream.Columns) {
	for i := uint64(0); i < 3000; i++ {
		s.burnt = s.burnt*31 + i
	}
	tin, tout := in.(*stream.Cols[int64, satVal]), out.(*stream.Cols[int64, satVal])
	tout.Keys = append(tout.Keys, tin.Keys...)
	tout.Vals = append(tout.Vals, tin.Vals...)
}

func (*satSlowPass) Next(e stream.Event, emit func(stream.Event)) { emit(e) }

// satSum sums values per key and reports the sums, in key order, at
// every marker.
type satSum struct{ sums map[int64]int64 }

func (s *satSum) InColKind() *stream.ColKind  { return satKind }
func (s *satSum) OutColKind() *stream.ColKind { return nil }

func (s *satSum) ProcessCols(in, _ stream.Columns) {
	tin := in.(*stream.Cols[int64, satVal])
	for i, k := range tin.Keys {
		s.sums[k] += tin.Vals[i][0]
	}
}

func (s *satSum) Next(e stream.Event, emit func(stream.Event)) {
	if !e.IsMarker {
		s.sums[e.Key.(int64)] += e.Value.(satVal)[0]
		return
	}
	keys := make([]int64, 0, len(s.sums))
	for k := range s.sums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		emit(stream.Item(k, s.sums[k]))
	}
	emit(e)
}

// satTopology is the Query IV shape — spout → bolt → fields bolt → sink
// at parallelism 2 — which the GID-mod-workers placement spreads so
// that both workers send to each other on both inner edges.
func satTopology() *Topology {
	top := NewTopology("net-saturation")
	top.ChannelCap = 2
	top.SetTransport(TransportOptions{BatchSize: 16})
	top.AddSpout("src", 2, func(int) Spout { return &satSpout{rows: satRowsPerSource, perMarker: satRowsPerMarker} })
	top.AddBolt("mid", 2, func(int) Bolt { return &satSlowPass{} }).ShuffleGrouping("src", true).ColumnarWith(satKind)
	top.AddBolt("sum", 2, func(int) Bolt { return &satSum{sums: map[int64]int64{}} }).FieldsGrouping("mid", true).ColumnarWith(satKind)
	top.AddSink("sink", "sum")
	return top
}

// waitGoroutines waits for the goroutine count to fall back to base
// (network teardown finishes asynchronously) and returns the last count.
func waitGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// TestNetworkedSaturationNoDeadlock runs the saturating topology on two
// goroutine workers over real loopback sockets. A deadlocked run never
// returns, so the test fails by -timeout (the attempt timeout below
// turns that into a message first).
func TestNetworkedSaturationNoDeadlock(t *testing.T) {
	oracle, err := satTopology().Run()
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	res, err := RunNetworked(NetOptions{
		Workers:        2,
		spawn:          spawnGoroutine(satTopology),
		MaxRestarts:    -1,
		AttemptTimeout: 90 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		buf := make([]byte, 1<<20)
		t.Fatalf("saturated networked run did not finish: %v\n%s", err, buf[:runtime.Stack(buf, true)])
	}
	if !stream.Equivalent(stream.U("Int64", "Int64"), oracle.Sinks["sink"], res.Sinks["sink"]) {
		t.Fatalf("networked trace differs from Run(): %d vs %d events", len(res.Sinks["sink"]), len(oracle.Sinks["sink"]))
	}
	if got, _ := res.Stats.Component("src"); got != 2*(satRowsPerSource+satRowsPerSource/satRowsPerMarker) {
		t.Fatalf("sources executed %d events, want %d", got, 2*(satRowsPerSource+satRowsPerSource/satRowsPerMarker))
	}
	if n := waitGoroutines(base); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines leaked:\n%s", n-base, buf[:runtime.Stack(buf, true)])
	}
}
