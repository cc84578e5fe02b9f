// Observability: executor-level latency histograms, backpressure
// gauges, marker-cut lag and sampled event spans, on both backends.
//
// A typed three-stage pipeline (scale → per-key sum) is compiled with
// the observability subsystem enabled and marker-cut recovery on. While
// the storm topology runs, a monitor goroutine polls
// Topology.LiveStats() — the collector is race-safe to read mid-run —
// and prints a live per-component table. After the run the final
// snapshot is rendered: per-component p50/p99 execute latency, queue
// latency, the high-water inbox depth (the backpressure gauge),
// marker-cut lag (cut start → snapshot committed) and a sampled span
// trace. The same DAG then runs on the micro-batch engine with
// observability on, whose analogs are per-partition batch backlog
// (queue gauge) and per-batch task duration (marker lag).
//
//	go run ./examples/observability
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"datatrace/internal/compile"
	"datatrace/internal/core"
	"datatrace/internal/metrics"
	"datatrace/internal/microbatch"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

const (
	blocks   = 150
	perBlock = 40
	keys     = 32
	par      = 2
)

// input is a keyed integer stream with one marker per block.
func input() []stream.Event {
	r := rand.New(rand.NewSource(11))
	out := make([]stream.Event, 0, blocks*(perBlock+1))
	for b := 0; b < blocks; b++ {
		for i := 0; i < perBlock; i++ {
			out = append(out, stream.Item(r.Intn(keys), r.Intn(1000)))
		}
		out = append(out, stream.Mark(stream.Marker{Seq: int64(b), Timestamp: int64(b)}))
	}
	return out
}

// pipeline is the typed DAG: scale every value, then sum per key at
// each marker. The scale stage sleeps ~20µs per item so the run lasts
// long enough to watch live.
func pipeline() *core.DAG {
	d := core.NewDAG()
	src := d.Source("src", stream.U("Int", "Int"))
	f := d.Op(&core.Stateless[int, int, int, int]{
		OpName: "scale", In: stream.U("Int", "Int"), Out: stream.U("Int", "Int"),
		OnItem: func(emit core.Emit[int, int], k, v int) {
			time.Sleep(20 * time.Microsecond)
			emit(k, v*2)
		},
	}, par, src)
	s := d.Op(&core.KeyedUnordered[int, int, int, int64, int64, int64]{
		OpName: "sum", InT: stream.U("Int", "Int"), OutT: stream.U("Int", "Long"),
		In:           func(_, v int) int64 { return int64(v) },
		ID:           func() int64 { return 0 },
		Combine:      func(x, y int64) int64 { return x + y },
		InitialState: func() int64 { return 0 },
		UpdateState:  func(old, agg int64) int64 { return old + agg },
		OnMarker: func(emit core.Emit[int, int64], st int64, k int, m stream.Marker) {
			emit(k, st)
		},
	}, par, f)
	d.Sink("out", s)
	return d
}

func main() {
	in := input()
	obs := metrics.DefaultObsConfig()
	opts := compile.Defaults()
	opts.Recovery = &storm.RecoveryPolicy{Enabled: true}
	opts.Observability = &obs

	top, err := compile.Compile(pipeline(), map[string]compile.SourceSpec{
		"src": {Parallelism: 1, Factory: func(int) storm.Spout { return storm.SliceSpout(in) }},
	}, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Monitor: poll the live collector while the topology runs.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			s := top.LiveStats()
			if s == nil {
				continue // Run not started yet
			}
			snap := s.Snapshot()
			var executed int64
			for _, c := range snap.ByComponent() {
				executed += c.Executed
			}
			fmt.Printf("-- live poll %d: %d events executed --\n%s\n", n, executed, snap.ObsTable())
			if n >= 3 {
				return // a few polls are enough for the demo
			}
		}
	}()

	res, err := top.Run()
	close(stop)
	<-done
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== storm backend: final snapshot (wall %s) ==\n", res.Wall.Round(time.Millisecond))
	final := res.Stats.Snapshot()
	fmt.Println(final.ObsTable())
	fmt.Println("sampled span trace (most recent per executor ring):")
	fmt.Println(final.SpanTrace())

	// The same DAG on the micro-batch engine, observability on.
	mb, err := microbatch.RunDAG(pipeline(), map[string][]stream.Event{"src": in},
		&microbatch.Options{Obs: metrics.DefaultObsConfig()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== micro-batch backend (wall %s; marker lag = per-batch task duration) ==\n",
		mb.Wall.Round(time.Millisecond))
	fmt.Println(mb.Stats.Snapshot().ObsTable())

	equal := stream.Equivalent(stream.U("Int", "Long"), res.Sinks["out"], mb.Sinks["out"])
	fmt.Println("storm output ≡ micro-batch output:", equal)
}
