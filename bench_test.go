package datatrace

// This file holds one testing.B benchmark per evaluation artifact of
// the paper — each Figure 4 panel in both variants, the Figure 6
// pipeline, and the section 2 experiment — plus micro-benchmarks for
// the building blocks (trace normal form, merge, sort, the
// OpKeyedUnordered runner, DB lookups, REPTree inference, k-means).
//
// Topology benchmarks report two custom metrics:
//
//	tuples/s   — wall-clock source-tuple throughput of the run
//	sim8_tps   — simulated throughput on an 8-worker cluster
//	             (busy-time makespan model, see DESIGN.md)
//
// The full parameter sweeps behind EXPERIMENTS.md, and the variants of
// Query IV the CI gate compares (batch-1, passes off, dense, recovery),
// come from cmd/dttbench; these benches regenerate each figure's
// headline number in a form `go test -bench` can track over time.

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"datatrace/internal/bench"
	"datatrace/internal/compile"
	"datatrace/internal/core"
	"datatrace/internal/db"
	"datatrace/internal/iot"
	"datatrace/internal/microbatch"
	"datatrace/internal/ml"
	"datatrace/internal/queries"
	"datatrace/internal/smarthome"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/trace"
	"datatrace/internal/workload"
)

// benchYahooCfg is the per-iteration Figure 4 workload.
func benchYahooCfg() workload.YahooConfig {
	cfg := workload.DefaultYahooConfig()
	cfg.EventsPerSecond = 1000
	cfg.Seconds = 12
	cfg.Users = 200
	return cfg
}

// benchQuery runs one query variant once per b.N iteration and
// reports throughput metrics.
func benchQuery(b *testing.B, name string, variant queries.Variant) {
	cfg := benchYahooCfg()
	spec := queries.Spec{Query: name, Variant: variant, Par: 4, SourcePar: 2}
	items := int64(cfg.EventsPerSecond * cfg.Seconds)
	var simTPS, wallTPS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env, err := queries.NewEnv(cfg, 2*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		// Start every iteration with empty sync.Pools, as the sweeps of
		// internal/bench do (see its interleave): cold, allocs/op
		// repeats to ~1%; warm, it is bimodal.
		runtime.GC()
		runtime.GC()
		b.StartTimer()
		res, err := queries.Run(env, spec)
		if err != nil {
			b.Fatal(err)
		}
		wallTPS = float64(items) / res.Wall.Seconds()
		simTPS = res.Stats.Throughput(items, 8)
	}
	b.ReportMetric(wallTPS, "tuples/s")
	b.ReportMetric(simTPS, "sim8_tps")
}

// --- Figure 4: Queries I–VI, generated vs handcrafted ----------------------

func BenchmarkQueryIGenerated(b *testing.B)    { benchQuery(b, "I", queries.Generated) }
func BenchmarkQueryIHandcrafted(b *testing.B)  { benchQuery(b, "I", queries.Handcrafted) }
func BenchmarkQueryIIGenerated(b *testing.B)   { benchQuery(b, "II", queries.Generated) }
func BenchmarkQueryIIHandcrafted(b *testing.B) { benchQuery(b, "II", queries.Handcrafted) }
func BenchmarkQueryIIIGenerated(b *testing.B)  { benchQuery(b, "III", queries.Generated) }
func BenchmarkQueryIIIHandcrafted(b *testing.B) {
	benchQuery(b, "III", queries.Handcrafted)
}
func BenchmarkQueryIVGenerated(b *testing.B)   { benchQuery(b, "IV", queries.Generated) }
func BenchmarkQueryIVHandcrafted(b *testing.B) { benchQuery(b, "IV", queries.Handcrafted) }
func BenchmarkQueryVGenerated(b *testing.B)    { benchQuery(b, "V", queries.Generated) }
func BenchmarkQueryVHandcrafted(b *testing.B)  { benchQuery(b, "V", queries.Handcrafted) }
func BenchmarkQueryVIGenerated(b *testing.B)   { benchQuery(b, "VI", queries.Generated) }
func BenchmarkQueryVIHandcrafted(b *testing.B) { benchQuery(b, "VI", queries.Handcrafted) }

// --- Figure 6: Smart Homes power prediction --------------------------------

func BenchmarkSmartHomePrediction(b *testing.B) {
	cfg := workload.DefaultSmartHomeConfig()
	cfg.Seconds = 120
	env, err := smarthome.NewEnv(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	items := int64(len(env.Gen.Events()))
	var simTPS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := smarthome.Run(env, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		simTPS = res.Stats.Throughput(items, 8)
	}
	b.ReportMetric(simTPS, "sim8_tps")
}

// --- Section 2: motivation experiment ---------------------------------------

func BenchmarkSection2Motivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Section2(2)
		if err != nil {
			b.Fatal(err)
		}
		if res.NaiveEquivalent || !res.TypedEquivalent {
			b.Fatal("section 2 experiment produced unexpected equivalences")
		}
	}
}

// --- micro-benchmarks: the building blocks ----------------------------------

func BenchmarkTraceNormalForm(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	items := make([]trace.Item, 200)
	for i := range items {
		if r.Intn(5) == 0 {
			items[i] = trace.It("#", nil)
		} else {
			items[i] = trace.It("M", r.Intn(10))
		}
	}
	dep := trace.MarkerUnordered{Marker: "#"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.NormalForm(dep, items)
	}
}

func BenchmarkTraceEquivalent(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	u := make([]trace.Item, 100)
	for i := range u {
		u[i] = trace.It("M", r.Intn(10))
	}
	v := make([]trace.Item, len(u))
	copy(v, u)
	v[3], v[50] = v[50], v[3]
	dep := trace.MarkerUnordered{Marker: "#"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Equivalent(dep, u, v)
	}
}

func benchStream(n, keys int) []stream.Event {
	r := rand.New(rand.NewSource(3))
	out := make([]stream.Event, 0, n+n/100+1)
	for i := 0; i < n; i++ {
		out = append(out, stream.Item(r.Intn(keys), r.Intn(1000)))
		if i%100 == 99 {
			out = append(out, stream.Mark(stream.Marker{Seq: int64(i / 100), Timestamp: int64(i)}))
		}
	}
	return out
}

func BenchmarkMergeAlignment(b *testing.B) {
	in := benchStream(10000, 64)
	parts := stream.SplitRoundRobin(in, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.MergeEvents(parts...)
	}
	b.ReportMetric(float64(len(in)), "events/op")
}

func BenchmarkHashSplit(b *testing.B) {
	in := benchStream(10000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.SplitHash(in, 4, nil)
	}
}

func BenchmarkSortOperator(b *testing.B) {
	in := benchStream(10000, 64)
	srt := &core.Sort[int, int]{
		OpName: "SORT", In: stream.U("Int", "Int"), Out: stream.O("Int", "Int"),
		Less: func(x, y int) bool { return x < y },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunInstance(srt, in)
	}
}

func BenchmarkKeyedUnorderedRunner(b *testing.B) {
	in := benchStream(10000, 64)
	op := &core.KeyedUnordered[int, int, int, int64, int64, int64]{
		OpName: "sum", InT: stream.U("Int", "Int"), OutT: stream.U("Int", "Long"),
		In:           func(_, v int) int64 { return int64(v) },
		ID:           func() int64 { return 0 },
		Combine:      func(x, y int64) int64 { return x + y },
		InitialState: func() int64 { return 0 },
		UpdateState:  func(old, agg int64) int64 { return old + agg },
		OnMarker: func(emit core.Emit[int, int64], st int64, k int, m stream.Marker) {
			emit(k, st)
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunInstance(op, in)
	}
	b.ReportMetric(float64(len(in)), "events/op")
}

func BenchmarkDBPointLookup(b *testing.B) {
	d := db.New()
	tab, err := d.CreateTable("t", []db.Column{
		{Name: "k", Type: db.Int}, {Name: "v", Type: db.Int},
	}, "k")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := tab.Insert(i, i*2); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tab.Get(i % 10000); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkREPTreePredict(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	var data ml.Dataset
	for i := 0; i < 5000; i++ {
		x := []float64{r.Float64() * 86400, r.Float64() * 2000, r.Float64() * 120000}
		data.Append(x, x[1]*0.9+r.NormFloat64()*20)
	}
	tree, err := ml.TrainREPTree(data, ml.DefaultREPTreeConfig())
	if err != nil {
		b.Fatal(err)
	}
	q := []float64{40000, 1000, 60000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(q)
	}
}

func BenchmarkKMeans(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	pts := make([][]float64, 300)
	for i := range pts {
		pts[i] = []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.KMeans(pts, 3, 50, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIoTTypedPipeline(b *testing.B) {
	cfg := iot.DefaultSensorConfig()
	cfg.Seconds = 120
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := iot.RunTyped(cfg, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation: specialized sliding-window template (section 8) --------------
//
// The paper's future-work template vs the same computation written
// with plain OpKeyedUnordered (recompute the window at every marker).
// With W = 256 blocks the two-stacks template does O(1) amortized
// work per block while the naive version pays O(W) per key per
// marker.

func slidingBenchStream(blocks, perBlock, keys int) []stream.Event {
	r := rand.New(rand.NewSource(6))
	out := make([]stream.Event, 0, blocks*(perBlock+1))
	for b := 0; b < blocks; b++ {
		for i := 0; i < perBlock; i++ {
			out = append(out, stream.Item(r.Intn(keys), 1))
		}
		out = append(out, stream.Mark(stream.Marker{Seq: int64(b), Timestamp: int64(b)}))
	}
	return out
}

const ablationWindow = 256

func BenchmarkSlidingWindowTwoStacks(b *testing.B) {
	in := slidingBenchStream(2000, 20, 16)
	op := &core.SlidingAggregate[int, int, int]{
		OpName: "win", InT: stream.U("Int", "Int"), OutT: stream.U("Int", "Int"),
		WindowBlocks: ablationWindow,
		In:           func(_, v int) int { return v },
		ID:           func() int { return 0 },
		Combine:      func(x, y int) int { return x + y },
		EmitEmpty:    true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunInstance(op, in)
	}
	b.ReportMetric(float64(len(in)), "events/op")
}

func BenchmarkSlidingWindowNaiveRecompute(b *testing.B) {
	in := slidingBenchStream(2000, 20, 16)
	op := &core.KeyedUnordered[int, int, int, int, []int, int]{
		OpName: "naive", InT: stream.U("Int", "Int"), OutT: stream.U("Int", "Int"),
		In:           func(_, v int) int { return v },
		ID:           func() int { return 0 },
		Combine:      func(x, y int) int { return x + y },
		InitialState: func() []int { return nil },
		UpdateState: func(old []int, agg int) []int {
			blocks := append(append([]int(nil), old...), agg)
			if len(blocks) > ablationWindow {
				blocks = blocks[len(blocks)-ablationWindow:]
			}
			return blocks
		},
		OnMarker: func(emit core.Emit[int, int], st []int, key int, m stream.Marker) {
			total := 0
			for _, v := range st {
				total += v
			}
			emit(key, total)
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunInstance(op, in)
	}
	b.ReportMetric(float64(len(in)), "events/op")
}

// --- ablation: SORT fusion (section 5's second fusion rule) -----------------

func benchIoTFusion(b *testing.B, fuse bool) {
	cfg := iot.DefaultSensorConfig()
	cfg.Seconds = 200
	cfg.Sensors = 8
	events := iot.Stream(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := compile.Compile(iot.PipelineDAG(cfg, 2), map[string]compile.SourceSpec{
			"hub": {Parallelism: 1, Factory: func(int) storm.Spout { return storm.SliceSpout(events) }},
		}, &compile.Options{FuseSort: fuse})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := top.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIoTPipelineFusedSort(b *testing.B)   { benchIoTFusion(b, true) }
func BenchmarkIoTPipelineUnfusedSort(b *testing.B) { benchIoTFusion(b, false) }

// --- backend comparison: storm vs micro-batch (section 8) -------------------
//
// The same type-checked DAG executed by the record-at-a-time storm
// backend and by the discretized-streams micro-batch backend; both
// are trace-equivalent, the benchmark shows their cost profiles.

func backendDAG(par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("src", stream.U("Int", "Int"))
	f := d.Op(&core.Stateless[int, int, int, int]{
		OpName: "scale", In: stream.U("Int", "Int"), Out: stream.U("Int", "Int"),
		OnItem: func(emit core.Emit[int, int], k, v int) { emit(k, v*2) },
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

func BenchmarkBackendStorm(b *testing.B) {
	in := benchStream(20000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := compile.Compile(backendDAG(4), map[string]compile.SourceSpec{
			"src": {Parallelism: 1, Factory: func(int) storm.Spout { return storm.SliceSpout(in) }},
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := top.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(in)), "events/op")
}

func BenchmarkBackendMicroBatch(b *testing.B) {
	in := benchStream(20000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := microbatch.RunDAG(backendDAG(4), map[string][]stream.Event{"src": in}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(in)), "events/op")
}

// --- section 2 fixes compared: typed markers vs sequence numbers ------------

func BenchmarkSection2Typed(b *testing.B) {
	cfg := iot.DefaultSensorConfig()
	cfg.Seconds = 300
	cfg.Sensors = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := iot.RunTyped(cfg, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection2Seqnum(b *testing.B) {
	cfg := iot.DefaultSensorConfig()
	cfg.Seconds = 300
	cfg.Sensors = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := iot.RunSeqnum(cfg, 2); err != nil {
			b.Fatal(err)
		}
	}
}
