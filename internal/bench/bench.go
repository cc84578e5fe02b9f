// Package bench regenerates the paper's evaluation artifacts: the six
// throughput-scaling panels of Figure 4 (Queries I–VI, generated vs
// handcrafted) and the Smart Homes scaling curve of Figure 6, plus
// the section 2 semantics experiment.
//
// Machine-count scaling is simulated (see DESIGN.md): every topology
// runs for real on the concurrent runtime, each executor's busy time
// is measured, and "throughput on W workers" is input tuples divided
// by the LPT makespan of packing those busy times onto W workers.
// This reproduces the *shape* of the paper's figures — who scales,
// who wins, by how much — on a single machine; absolute tuples/sec
// are not comparable to the paper's cluster.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"datatrace/internal/iot"
	"datatrace/internal/metrics"
	"datatrace/internal/microbatch"
	"datatrace/internal/queries"
	"datatrace/internal/smarthome"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// Point is one measurement: simulated throughput at a worker count.
type Point struct {
	Workers    int
	Throughput float64 // tuples/second
}

// Series is one line of a panel (e.g. "generated").
type Series struct {
	Label  string
	Points []Point
	// Stats is the run the points were computed from, when the series
	// comes from one run (Figures 4 and 6): its per-instance busy times.
	Stats *metrics.Stats
}

// Panel is one subplot (e.g. "Query IV").
type Panel struct {
	Title  string
	Series []Series
}

// Figure is a reproduced evaluation figure.
type Figure struct {
	Name    string
	Caption string
	Panels  []Panel
}

// Config parameterizes the benchmark harness.
type Config struct {
	// Yahoo is the Figure 4 workload.
	Yahoo workload.YahooConfig
	// OpDelay models the out-of-process database's per-call latency.
	OpDelay time.Duration
	// SmartHome is the Figure 6 workload.
	SmartHome workload.SmartHomeConfig
	// MaxWorkers is the largest simulated cluster (paper: 8).
	MaxWorkers int
	// SourcePar is the number of source partitions per run.
	SourcePar int
}

// DefaultConfig returns a configuration sized for minutes-scale runs.
func DefaultConfig() Config {
	y := workload.DefaultYahooConfig()
	y.EventsPerSecond = 2000
	y.Seconds = 15
	sh := workload.DefaultSmartHomeConfig()
	sh.Seconds = 300
	return Config{
		Yahoo:      y,
		OpDelay:    2 * time.Microsecond,
		SmartHome:  sh,
		MaxWorkers: 8,
		SourcePar:  2,
	}
}

// countItems counts non-marker events produced by all spouts.
func countItems(stats *metrics.Stats, spout string) int64 {
	executed, _ := stats.Component(spout)
	return executed
}

// scaling converts one run's stats into a throughput-vs-workers
// series using the simulated-cluster makespan.
func scaling(stats *metrics.Stats, inputTuples int64, maxWorkers int) []Point {
	pts := make([]Point, 0, maxWorkers)
	for w := 1; w <= maxWorkers; w++ {
		pts = append(pts, Point{Workers: w, Throughput: stats.Throughput(inputTuples, w)})
	}
	return pts
}

// arm is one side of an interleaved comparison: a label and the query
// spec it runs.
type arm struct {
	label string
	spec  queries.Spec
	// home, when set, makes the arm a Smart Homes run on that workload
	// at spec's parallelism and source partitions.
	home *workload.SmartHomeConfig
}

// sample is one measured run of an arm.
type sample struct {
	wall    time.Duration
	mallocs uint64
	stats   *metrics.Stats
}

// queryIV is the spec every sweep varies: generated Query IV, the
// evaluation's centerpiece, at the configured parallelism (capped at 4).
func queryIV(cfg Config) queries.Spec {
	return queries.Spec{Query: "IV", Variant: queries.Generated, Par: min(cfg.MaxWorkers, 4), SourcePar: cfg.SourcePar}
}

// interleave runs every arm once per repetition, round-robin inside
// each repetition so machine-load drift hits the arms equally, and
// returns samples[arm][rep]. Every run starts with empty sync.Pools
// (two collections: the first moves pooled objects to the victim cache,
// the second drops them) — otherwise the transport's vector and column
// pools carry over from the previous run or not, depending on how many
// collections its set-up happened to trigger, and the malloc count of
// these small workloads is bimodal; cold, it repeats to ~1%.
func interleave(cfg Config, sweep string, reps int, arms []arm) ([][]sample, error) {
	out := make([][]sample, len(arms))
	var before, after runtime.MemStats
	for i := 0; i < reps; i++ {
		for ai, a := range arms {
			run, err := a.prepare(cfg)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			r, err := run()
			if err != nil {
				return nil, fmt.Errorf("bench: %s sweep (%s): %w", sweep, a.label, err)
			}
			runtime.ReadMemStats(&after)
			out[ai] = append(out[ai], sample{r.Wall, after.Mallocs - before.Mallocs, r.Stats})
		}
	}
	return out, nil
}

// prepare sets up the arm's environment and returns its run.
func (a arm) prepare(cfg Config) (func() (*storm.Result, error), error) {
	if a.home != nil {
		env, err := smarthome.NewEnv(*a.home, nil)
		if err != nil {
			return nil, err
		}
		return func() (*storm.Result, error) { return smarthome.Run(env, a.spec.Par, a.spec.SourcePar) }, nil
	}
	env, err := queries.NewEnv(cfg.Yahoo, cfg.OpDelay)
	if err != nil {
		return nil, err
	}
	return func() (*storm.Result, error) { return queries.Run(env, a.spec) }, nil
}

// minWall is the least-perturbed run of a fixed workload.
func minWall(runs []sample) time.Duration {
	best := runs[0].wall
	for _, r := range runs[1:] {
		best = min(best, r.wall)
	}
	return best
}

// Figure4 runs every query in both variants and returns the six
// scaling panels. Each variant runs once at parallelism MaxWorkers;
// worker counts below that leave some replicas co-scheduled, exactly
// as the paper's fixed-topology/varying-cluster setup does.
func Figure4(cfg Config) (*Figure, error) {
	fig := &Figure{
		Name:    "figure4",
		Caption: "Queries I–VI: simulated throughput vs workers, generated (transduction) vs handcrafted",
	}
	for _, def := range queries.All() {
		panel := Panel{Title: "Query " + def.Name + " — " + def.Description}
		for _, variant := range []queries.Variant{queries.Generated, queries.Handcrafted} {
			env, err := queries.NewEnv(cfg.Yahoo, cfg.OpDelay)
			if err != nil {
				return nil, err
			}
			res, err := queries.Run(env, queries.Spec{
				Query:     def.Name,
				Variant:   variant,
				Par:       cfg.MaxWorkers,
				SourcePar: cfg.SourcePar,
			})
			if err != nil {
				return nil, fmt.Errorf("query %s %s: %w", def.Name, variant, err)
			}
			items := countItems(res.Stats, "yahoo")
			panel.Series = append(panel.Series, Series{
				Label:  string(variant),
				Points: scaling(res.Stats, items, cfg.MaxWorkers),
				Stats:  res.Stats,
			})
		}
		fig.Panels = append(fig.Panels, panel)
	}
	return fig, nil
}

// Figure6 runs the Smart Homes prediction pipeline and returns its
// scaling panel.
func Figure6(cfg Config) (*Figure, error) {
	env, err := smarthome.NewEnv(cfg.SmartHome, nil)
	if err != nil {
		return nil, err
	}
	res, err := smarthome.Run(env, cfg.MaxWorkers, cfg.SourcePar)
	if err != nil {
		return nil, err
	}
	items := countItems(res.Stats, "hub")
	return &Figure{
		Name:    "figure6",
		Caption: "Smart Homes energy prediction: simulated throughput vs workers",
		Panels: []Panel{{
			Title: "Smart Homes — power prediction (REPTree)",
			Series: []Series{{
				Label:  "transduction",
				Points: scaling(res.Stats, items, cfg.MaxWorkers),
				Stats:  res.Stats,
			}},
		}},
	}, nil
}

// Section2Result summarizes the motivation experiment.
type Section2Result struct {
	// NaiveEquivalent is whether the naive shuffle-parallelized
	// deployment matched the reference trace (expected: false).
	NaiveEquivalent bool
	// TypedEquivalent is whether the typed deployment matched
	// (expected: true).
	TypedEquivalent bool
	// TypeCheckRejectsNaive is whether the framework statically
	// rejected the sort-free pipeline (expected: true).
	TypeCheckRejectsNaive bool
	// Parallelism used for both deployments.
	Parallelism int
}

// Section2 runs the motivation experiment of section 2.
func Section2(par int) (*Section2Result, error) {
	if par < 2 {
		par = 2
	}
	cfg := iot.DefaultSensorConfig()
	ref, err := iot.Reference(cfg)
	if err != nil {
		return nil, err
	}
	naive, err := iot.RunNaive(cfg, par)
	if err != nil {
		return nil, err
	}
	typed, err := iot.RunTyped(cfg, par)
	if err != nil {
		return nil, err
	}
	return &Section2Result{
		NaiveEquivalent:       stream.Equivalent(iot.SinkType(), naive.Sinks["sink"], ref["sink"]),
		TypedEquivalent:       stream.Equivalent(iot.SinkType(), typed.Sinks["sink"], ref["sink"]),
		TypeCheckRejectsNaive: iot.IllTypedDAG(cfg, par).Check() != nil,
		Parallelism:           par,
	}, nil
}

// Table renders the figure as aligned text, one block per panel.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.Name, f.Caption)
	for _, p := range f.Panels {
		header := []string{"workers"}
		for _, s := range p.Series {
			header = append(header, s.Label)
		}
		ratio := len(p.Series) == 2
		if ratio {
			header = append(header, "ratio")
		}
		t := &table{header: header}
		for i, pt := range p.Series[0].Points {
			row := []string{fmt.Sprint(pt.Workers)}
			for _, s := range p.Series {
				row = append(row, fmt.Sprintf("%.0f", s.Points[i].Throughput))
			}
			if ratio && p.Series[1].Points[i].Throughput > 0 {
				row = append(row, fmt.Sprintf("%.2f", p.Series[0].Points[i].Throughput/p.Series[1].Points[i].Throughput))
			}
			t.rows = append(t.rows, row)
		}
		fmt.Fprintf(&b, "\n%s\n%s", p.Title, t.text())
	}
	return b.String()
}

// CSV renders the figure as comma-separated records.
func (f *Figure) CSV() string {
	t := newTable("figure,panel,series,workers,throughput")
	for _, p := range f.Panels {
		for _, s := range p.Series {
			for _, pt := range s.Points {
				t.addf("%s,%q,%s,%d,%.1f", f.Name, p.Title, s.Label, pt.Workers, pt.Throughput)
			}
		}
	}
	return t.csv()
}

// SpeedupAt reports a series' throughput ratio between w workers and
// 1 worker — the scaling factor the paper's figures visualize.
func (s Series) SpeedupAt(w int) float64 {
	var t1, tw float64
	for _, p := range s.Points {
		if p.Workers == 1 {
			t1 = p.Throughput
		}
		if p.Workers == w {
			tw = p.Throughput
		}
	}
	if t1 == 0 {
		return 0
	}
	return tw / t1
}

// BackendComparison is an additional figure this reproduction
// contributes (anticipated by the paper's §8 "other frameworks"
// future work): the same compiled Query IV DAG executed by the
// record-at-a-time storm backend and by the discretized-streams
// micro-batch backend, with simulated throughput vs workers for both.
func BackendComparison(cfg Config) (*Figure, error) {
	def, err := queries.ByName("IV")
	if err != nil {
		return nil, err
	}
	panel := Panel{Title: "Query IV — storm (record-at-a-time) vs micro-batch (discretized streams)"}

	// Storm backend.
	env, err := queries.NewEnv(cfg.Yahoo, cfg.OpDelay)
	if err != nil {
		return nil, err
	}
	res, err := queries.Run(env, queries.Spec{
		Query: "IV", Variant: queries.Generated, Par: cfg.MaxWorkers, SourcePar: cfg.SourcePar,
	})
	if err != nil {
		return nil, err
	}
	items := countItems(res.Stats, "yahoo")
	// The micro-batch engine pre-materializes its input and collects
	// sinks inline, so compare operator work only on both sides.
	opsOnly := res.Stats.Filtered(func(c string) bool {
		return c != "yahoo" && c != "sink"
	})
	panel.Series = append(panel.Series, Series{
		Label:  "storm",
		Points: scaling(opsOnly, items, cfg.MaxWorkers),
	})

	// Micro-batch backend on the same DAG and input.
	env2, err := queries.NewEnv(cfg.Yahoo, cfg.OpDelay)
	if err != nil {
		return nil, err
	}
	input := def.ReferenceInput(env2)
	mbRes, err := microbatch.RunDAG(def.DAG(env2, cfg.MaxWorkers),
		map[string][]stream.Event{"yahoo": input}, nil)
	if err != nil {
		return nil, err
	}
	var mbItems int64
	for _, e := range input {
		if !e.IsMarker {
			mbItems++
		}
	}
	panel.Series = append(panel.Series, Series{
		Label:  "microbatch",
		Points: scaling(mbRes.Stats, mbItems, cfg.MaxWorkers),
	})

	return &Figure{
		Name:    "backends",
		Caption: "Query IV on both execution backends: simulated throughput vs workers",
		Panels:  []Panel{panel},
	}, nil
}
