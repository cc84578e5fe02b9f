package main

import (
	"fmt"
	"time"

	"datatrace/internal/compile"
	"datatrace/internal/metrics"
	"datatrace/internal/queries"
	"datatrace/internal/smarthome"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// The deployment every workload runs: the reference box has two cores.
const (
	par        = 2
	sourcePar  = 2
	tcpWorkers = 2
)

// markerPeriod is the schedule spacing of markers in the open loop,
// paceTick the length of schedule whose items a source releases together
// (a whole number of ticks make a marker period), and
// lateLimit is the fixed latency limit: the share of cuts that reach the
// tap later than this after their due time is reported as
// harness.late_share.
const (
	markerPeriod = 10 * time.Millisecond
	paceTick     = 2 * time.Millisecond
	lateLimit    = 100 * time.Millisecond
)

// spec is one workload's committed sizing. The sizes were calibrated
// once on the reference box (README, "Calibration") so that a
// closed-loop trial lasts about two seconds; nothing here is derived
// from a measurement at run time.
type spec struct {
	Name string `json:"name"`
	// Why is the reason the workload exists, one sentence.
	Why string `json:"why"`
	// Loop is "closed" (sources emit as fast as the runtime takes) or
	// "open" (sources follow a fixed schedule).
	Loop string `json:"loop"`

	// Query is the generated Yahoo query, "" for Smart Homes.
	Query    string `json:"query,omitempty"`
	Recovery bool   `json:"recovery,omitempty"`
	TCP      bool   `json:"tcp,omitempty"`

	// ItemsPerMarker counts items between two markers over all source
	// partitions; Markers is the number of cuts in one trial (in the open
	// loop a cut is markerPeriod of schedule, so a trial lasts two
	// seconds).
	ItemsPerMarker int `json:"items_per_marker,omitempty"`
	Markers        int `json:"markers_per_trial,omitempty"`
	// Window is the closed loop's bound: the number of cuts that may be
	// outstanding between the sources and the tap (0 in the open loop).
	Window int `json:"window_cuts,omitempty"`
	// BlockMarkers is the length of the materialised block the replay
	// sources cycle, in marker periods.
	BlockMarkers int `json:"block_markers,omitempty"`
	Users        int `json:"users,omitempty"`
	// Rate is the open loop's fixed input rate over all partitions, in
	// items per second.
	Rate int `json:"rate_items_per_s,omitempty"`

	// Smart Homes deployment: plugs and event-time length of one trial
	// (a marker every ten event-time seconds).
	Buildings        int `json:"buildings,omitempty"`
	UnitsPerBuilding int `json:"units_per_building,omitempty"`
	PlugsPerUnit     int `json:"plugs_per_unit,omitempty"`
	Seconds          int `json:"event_seconds,omitempty"`
}

// specs lists the workloads in the order a full set runs them. The
// names and reasons are repeated in BENCHMARK.json; the schema test
// holds the two together.
var specs = []spec{
	{
		Name: "q4-dense", Loop: "closed", Query: "IV",
		Why:            "generated Query IV in-process at saturation: the runtime does almost all the work, so transport, columnar, fusion and executor-loop changes show here",
		ItemsPerMarker: 20000, Markers: 300, Window: 4, BlockMarkers: 10, Users: 1000,
	},
	{
		Name: "q4-recovery", Loop: "closed", Query: "IV", Recovery: true,
		Why:            "same DAG and input with marker-cut recovery on and a cut every 2000 items: snapshots and the recoverable executor dominate; q4-dense is its control",
		ItemsPerMarker: 2000, Markers: 1500, Window: 40, BlockMarkers: 100, Users: 1000,
	},
	{
		Name: "q4-tcp", Loop: "closed", Query: "IV", TCP: true,
		Why:            "same DAG and input on two worker processes over localhost TCP: codec and socket writes dominate; q4-dense bypasses the wire entirely",
		ItemsPerMarker: 20000, Markers: 300, Window: 4, BlockMarkers: 10, Users: 1000,
	},
	{
		Name: "q4-paced", Loop: "open", Query: "IV",
		Why:            "same DAG at a fixed 4.8 M items/s (a third of saturation) with a marker every 10 ms: flushes are timer- and marker-triggered, so throughput bought with lazier flushing shows as latency lost",
		ItemsPerMarker: 48000, Markers: 200, BlockMarkers: 30, Users: 1000, Rate: 4800000,
	},
	{
		Name: "q6-state", Loop: "closed", Query: "VI",
		Why:            "generated Query VI with a large user space: map-merging monoid, k-means per cut and keyed state dominate, so transport and codec changes predict no change here",
		ItemsPerMarker: 20000, Markers: 60, Window: 8, BlockMarkers: 10, Users: 5000,
	},
	{
		Name: "smarthome-ordered", Loop: "closed",
		Why:       "the Figure 6 Smart Homes pipeline: the only workload on O(K,V) types, KeyedOrdered, fused SORT and boxed edges, guarding the boxed path",
		Buildings: 4, UnitsPerBuilding: 25, PlugsPerUnit: 10, Seconds: 1200, Window: 32,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// buildOpts are the per-run choices on top of a spec.
type buildOpts struct {
	// markers is the number of cuts this run makes.
	markers int
	// obs turns the runtime's observability on (the traced pass).
	obs bool
	// workers > 0 places the executors on that many worker processes,
	// which share the closed loop's window through windowFile.
	workers    int
	windowFile string
}

// collector gathers what a run's benchmark-owned components saw.
type collector struct {
	// sources[p] is source partition p's own record; nil when another
	// process hosts the partition.
	sources []*sourceLog
	// arrived[seq] is when the tap received marker seq.
	arrived markerLog
	// pace is the run's open-loop schedule, nil in a closed loop; win is
	// the closed loop's window, nil in an open loop.
	pace *pacer
	win  *window
}

// tapBolt subscribes to whatever feeds the sink, marker-aligned, and
// stamps marker arrivals: every result of a cut is ahead of its marker
// on that edge, so the stamp is the time the cut's output was complete.
type tapBolt struct {
	arrived markerLog
	win     *window
}

// Next implements storm.Bolt.
func (t *tapBolt) Next(e stream.Event, _ func(stream.Event)) {
	if e.IsMarker && e.Marker.Seq < int64(len(t.arrived)) {
		//lint:ignore DTT002 the benchmark's own stamp: when the cut's marker reached the tap, read once per marker and never emitted
		t.arrived[e.Marker.Seq] = time.Now().UnixNano()
		t.win.complete(e.Marker.Seq)
	}
}

// Component names: the DAGs' sources and sink, and the benchmark's tap.
const (
	yahooSource = "yahoo"
	homeSource  = "hub"
	sinkName    = "sink"
	tapName     = "tap"
)

// addTap wires the tap beside the sink.
func addTap(top *storm.Topology, col *collector, markers int) {
	col.arrived = make(markerLog, markers)
	top.AddBolt(tapName, 1, func(int) storm.Bolt { return &tapBolt{arrived: col.arrived, win: col.win} }).
		GlobalGrouping(top.Inputs(sinkName)[0], true)
}

// instance is a workload set up for one seed: its environment and
// materialised input, ready to build topologies from.
type instance interface {
	// fullMarkers is the number of cuts in one full-size closed-loop trial.
	fullMarkers() int
	// items is the number of source items in a run of that many cuts.
	items(markers int) int64
	// reference is the sequential denotation of a run of that many cuts
	// and the sink's data-trace type.
	reference(markers int) ([]stream.Event, stream.Type, error)
	// build compiles a fresh topology (with tap) for one run.
	build(o buildOpts) (*storm.Topology, *compile.Plan, *collector, error)
}

// setUp builds a workload's environment, materialises its input and
// compiles it once: everything a run needs before its first trial.
func setUp(sp spec, seed int64, sc *spanLog) (instance, error) {
	if sp.Query == "" {
		return setUpHome(sp, seed, sc)
	}
	return setUpYahoo(sp, seed, sc)
}

// newCollector prepares a run's collector with the loop control the
// spec asks for.
func newCollector(sp spec, o buildOpts, perPartitionPerMarker int) (*collector, error) {
	col := &collector{sources: make([]*sourceLog, sourcePar)}
	switch {
	case sp.Rate > 0:
		if want := int(float64(sp.Rate) * markerPeriod.Seconds()); sp.ItemsPerMarker != want {
			return nil, fmt.Errorf("%s: %d items per marker at %d items/s is not a marker every %v (%d items)", sp.Name, sp.ItemsPerMarker, sp.Rate, markerPeriod, want)
		}
		perSecond := float64(sp.Rate) / sourcePar
		var err error
		if col.pace, err = newPacer(wallClock{}, perSecond, perPartitionPerMarker, int(perSecond*paceTick.Seconds())); err != nil {
			return nil, err
		}
	case o.windowFile != "":
		var err error
		if col.win, err = openWindow(o.windowFile, sp.Window); err != nil {
			return nil, err
		}
	default:
		col.win = newWindow(sp.Window)
	}
	return col, nil
}

func compileOpts(sp spec, o buildOpts) *compile.Options {
	opts := &compile.Options{FuseSort: true, FuseChains: true, Combiners: true, Workers: o.workers}
	if sp.Recovery {
		opts.Recovery = &storm.RecoveryPolicy{Enabled: true}
	}
	if o.obs {
		cfg := metrics.DefaultObsConfig()
		opts.Observability = &cfg
	}
	return opts
}

// yahooInstance is a Yahoo-query workload (all q4-* and q6-state).
type yahooInstance struct {
	sp    spec
	env   *queries.Env
	def   queries.Def
	input *yahooInput
}

func setUpYahoo(sp spec, seed int64, sc *spanLog) (instance, error) {
	def, err := queries.ByName(sp.Query)
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultYahooConfig()
	cfg.Users = sp.Users
	cfg.EventsPerSecond = sp.ItemsPerMarker
	cfg.Seconds = sp.BlockMarkers
	cfg.Seed = seed
	env, err := queries.NewEnv(cfg, 0)
	if err != nil {
		return nil, err
	}
	w := &yahooInstance{sp: sp, env: env, def: def}
	done := sc.begin("materialise")
	w.input, err = materialiseYahoo(env.Gen, sourcePar)
	done()
	if err != nil {
		return nil, err
	}
	done = sc.begin("compile")
	_, _, _, err = w.build(buildOpts{markers: 1})
	done()
	return w, err
}

func (w *yahooInstance) fullMarkers() int { return w.sp.Markers }

func (w *yahooInstance) items(markers int) int64 {
	return int64(markers) * int64(w.input.perMarker) * sourcePar
}

func (w *yahooInstance) reference(markers int) ([]stream.Event, stream.Type, error) {
	dag := w.def.DAG(w.env, 1)
	out, err := dag.Eval(map[string][]stream.Event{yahooSource: w.input.events(markers)})
	if err != nil {
		return nil, stream.Type{}, err
	}
	return out[sinkName], dag.Sinks()[0].Type, nil
}

func (w *yahooInstance) build(o buildOpts) (*storm.Topology, *compile.Plan, *collector, error) {
	col, err := newCollector(w.sp, o, w.input.perMarker)
	if err != nil {
		return nil, nil, nil, err
	}
	src := compile.SourceSpec{
		Parallelism: sourcePar,
		Cols:        stream.ColKindFor[stream.Unit, workload.YahooEvent](),
		Factory: func(i int) storm.Spout {
			r := newYahooReplay(w.input, i, int64(o.markers), col.pace, col.win)
			col.sources[i] = r.log
			return r
		},
	}
	top, plan, err := compile.CompileWithPlan(w.def.DAG(w.env, par), map[string]compile.SourceSpec{yahooSource: src}, compileOpts(w.sp, o))
	if err != nil {
		return nil, nil, nil, err
	}
	addTap(top, col, o.markers)
	return top, plan, col, nil
}

// homeInstance is the Smart Homes workload. Its pipeline is ordered in
// event time, so the input is materialised at full length and replayed
// once instead of cycled.
type homeInstance struct {
	sp  spec
	env *smarthome.Env
	// parts[p] is source partition p's boxed event sequence.
	parts [][]stream.Event
}

const homeMarkerPeriod = 10 // event-time seconds, the paper's setting

func setUpHome(sp spec, seed int64, sc *spanLog) (instance, error) {
	cfg := workload.DefaultSmartHomeConfig()
	cfg.Buildings = sp.Buildings
	cfg.UnitsPerBuilding = sp.UnitsPerBuilding
	cfg.PlugsPerUnit = sp.PlugsPerUnit
	cfg.Seconds = sp.Seconds
	cfg.MarkerPeriod = homeMarkerPeriod
	cfg.Seed = seed
	env, err := smarthome.NewEnv(cfg, nil)
	if err != nil {
		return nil, err
	}
	w := &homeInstance{sp: sp, env: env}
	done := sc.begin("materialise")
	w.parts = make([][]stream.Event, sourcePar)
	for _, e := range env.Gen.Events() {
		if e.IsMarker {
			for p := range w.parts {
				w.parts[p] = append(w.parts[p], e)
			}
			continue
		}
		p := e.Value.(workload.PlugMeasurement).Key.Building % sourcePar
		w.parts[p] = append(w.parts[p], e)
	}
	done()
	done = sc.begin("compile")
	_, _, _, err = w.build(buildOpts{markers: 1})
	done()
	return w, err
}

func (w *homeInstance) fullMarkers() int { return w.sp.Seconds / homeMarkerPeriod }

// prefix cuts an event sequence after its markers-th marker.
func prefix(events []stream.Event, markers int) []stream.Event {
	seen := 0
	for i, e := range events {
		if e.IsMarker {
			if seen++; seen == markers {
				return events[:i+1]
			}
		}
	}
	return events
}

func (w *homeInstance) items(markers int) int64 {
	var n int64
	for _, part := range w.parts {
		n += int64(len(prefix(part, markers)) - markers)
	}
	return n
}

func (w *homeInstance) reference(markers int) ([]stream.Event, stream.Type, error) {
	// The merged stream is generated afresh: only the output check needs
	// it, and that runs in a process of its own.
	out, err := smarthome.PipelineDAG(w.env, 1).Eval(map[string][]stream.Event{homeSource: prefix(w.env.Gen.Events(), markers)})
	if err != nil {
		return nil, stream.Type{}, err
	}
	return out[sinkName], smarthome.SinkType(), nil
}

func (w *homeInstance) build(o buildOpts) (*storm.Topology, *compile.Plan, *collector, error) {
	if o.markers > w.fullMarkers() {
		return nil, nil, nil, fmt.Errorf("%s: %d cuts asked, %d materialised", w.sp.Name, o.markers, w.fullMarkers())
	}
	col, err := newCollector(w.sp, o, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	src := compile.SourceSpec{
		Parallelism: sourcePar,
		Factory: func(i int) storm.Spout {
			r := newEventReplay(prefix(w.parts[i], o.markers), o.markers, col.win)
			col.sources[i] = r.log
			return r
		},
	}
	top, plan, err := compile.CompileWithPlan(smarthome.PipelineDAG(w.env, par), map[string]compile.SourceSpec{homeSource: src}, compileOpts(w.sp, o))
	if err != nil {
		return nil, nil, nil, err
	}
	addTap(top, col, o.markers)
	return top, plan, col, nil
}

// equivalentByCut compares two sink streams as data traces of type t.
// Markers depend on every item, so trace equivalence decomposes into
// the equivalence of corresponding cuts; comparing cut by cut keeps the
// quadratic normal-form comparison to one block at a time.
func equivalentByCut(t stream.Type, got, want []stream.Event) error {
	g, w := splitCuts(got), splitCuts(want)
	if len(g) != len(w) {
		return fmt.Errorf("sink has %d cuts, reference has %d", len(g), len(w))
	}
	for i := range g {
		if !stream.Equivalent(t, g[i], w[i]) {
			return fmt.Errorf("cut %d differs from the reference as a %s trace (%d vs %d events)", i, t, len(g[i]), len(w[i]))
		}
	}
	return nil
}

// splitCuts splits a stream after every marker; a trailing run of items
// without a marker is its own block.
func splitCuts(events []stream.Event) [][]stream.Event {
	var cuts [][]stream.Event
	start := 0
	for i, e := range events {
		if e.IsMarker {
			cuts = append(cuts, events[start:i+1])
			start = i + 1
		}
	}
	if start < len(events) {
		cuts = append(cuts, events[start:])
	}
	return cuts
}
