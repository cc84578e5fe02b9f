package storm_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"datatrace/internal/compile"
	"datatrace/internal/metrics"
	"datatrace/internal/queries"
	"datatrace/internal/storm"
	"datatrace/internal/workload"
)

// compileQueryIV compiles generated Query IV over items source items
// with a marker every perMarker items, on two source partitions and
// parallelism 2, with marker-cut recovery on or off.
func compileQueryIV(tb testing.TB, items, perMarker int, recovery bool) *storm.Topology {
	return compileQuery(tb, "IV", workload.DefaultYahooConfig().Users, items, perMarker, recovery)
}

// compileQuery is compileQueryIV for any generated query, over a user
// space of users.
func compileQuery(tb testing.TB, query string, users, items, perMarker int, recovery bool) *storm.Topology {
	tb.Helper()
	cfg := workload.DefaultYahooConfig()
	cfg.Users, cfg.EventsPerSecond, cfg.Seconds = users, perMarker, items/perMarker
	env, err := queries.NewEnv(cfg, 0)
	if err != nil {
		tb.Fatal(err)
	}
	def, err := queries.ByName(query)
	if err != nil {
		tb.Fatal(err)
	}
	cols := def.ColSources(env, 2)
	opts := &compile.Options{FuseSort: true, FuseChains: true, Combiners: true}
	if recovery {
		opts.Recovery = &storm.RecoveryPolicy{Enabled: true}
	}
	top, err := compile.Compile(def.DAG(env, 2), map[string]compile.SourceSpec{
		"yahoo": {Parallelism: 2, Cols: cols[0].ColKind(), Factory: func(i int) storm.Spout { return cols[i] }},
	}, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return top
}

// BenchmarkMarkerCost is the per-marker cost of ROADMAP item 13: Query IV
// over the same 400 000 items with a marker every 20 000 and every 2 000
// items, recovery off and on, and Query VI over 5 000 users with a marker
// every 20 000 items, where every marker emits all the users' feature
// vectors. Per marker it reports the run's wall time (ns/marker), its
// heap allocation (B/marker, allocs/marker) and the sink stage's share of
// it: the sink executor's busy time (sink-ns/marker), which covers
// delivering each cut to the default collecting consumer. At equal input
// the difference between the two densities is what the extra markers
// cost.
func BenchmarkMarkerCost(b *testing.B) {
	const items = 400_000
	type arm struct {
		name, query      string
		users, perMarker int
		recovery         bool
	}
	var arms []arm
	for _, perMarker := range []int{20_000, 2_000} {
		for _, recovery := range []bool{false, true} {
			name := fmt.Sprintf("perMarker=%d/recovery=%t", perMarker, recovery)
			arms = append(arms, arm{name, "IV", workload.DefaultYahooConfig().Users, perMarker, recovery})
		}
	}
	arms = append(arms, arm{"query=VI/perMarker=20000", "VI", 5000, 20_000, false})
	for _, a := range arms {
		b.Run(a.name, func(b *testing.B) {
			markers := float64(items / a.perMarker)
			var wall, sinkBusy time.Duration
			var bytes, mallocs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				top := compileQuery(b, a.query, a.users, items, a.perMarker, a.recovery)
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.StartTimer()
				res, err := top.Run()
				b.StopTimer()
				runtime.ReadMemStats(&after)
				if err != nil {
					b.Fatal(err)
				}
				wall += res.Wall
				sinkBusy += busy(res.Stats, "sink")
				bytes += after.TotalAlloc - before.TotalAlloc
				mallocs += after.Mallocs - before.Mallocs
			}
			n := float64(b.N) * markers
			b.ReportMetric(float64(wall.Nanoseconds())/n, "ns/marker")
			b.ReportMetric(float64(sinkBusy.Nanoseconds())/n, "sink-ns/marker")
			b.ReportMetric(float64(bytes)/n, "B/marker")
			b.ReportMetric(float64(mallocs)/n, "allocs/marker")
		})
	}
}

// busy is the summed busy time of a component's executors.
func busy(stats *metrics.Stats, component string) time.Duration {
	var d time.Duration
	for _, is := range stats.Instances() {
		if is.Component == component {
			d += is.Busy()
		}
	}
	return d
}
