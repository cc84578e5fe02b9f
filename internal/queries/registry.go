package queries

import (
	"fmt"

	"datatrace/internal/compile"
	"datatrace/internal/core"
	"datatrace/internal/metrics"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// Variant selects a query implementation.
type Variant string

const (
	// Generated is the transduction-DAG implementation compiled by
	// package compile (the paper's orange line).
	Generated Variant = "generated"
	// Handcrafted is the hand-written storm topology (the blue line).
	Handcrafted Variant = "handcrafted"
)

// Def describes one registered query.
type Def struct {
	// Name is the roman numeral, "I" through "VI".
	Name string
	// Stages is the number of processing stages (for reporting).
	Stages int
	// Description is the paper's one-line characterization.
	Description string
	// KeyedSource is true when the source stream is keyed by user
	// (Query II) instead of unit-keyed.
	KeyedSource bool
	// DAG builds the typed DAG at a given per-stage parallelism.
	DAG func(env *Env, par int) *core.DAG
	// Handcrafted builds the hand-written topology.
	Handcrafted func(env *Env, par int, sources []workload.Iterator) *storm.Topology
}

// All returns the registered queries in evaluation order.
func All() []Def {
	return []Def{
		{Name: "I", Stages: 1, Description: "stateless DB enrichment",
			DAG: QueryIDAG, Handcrafted: QueryIHandcrafted},
		{Name: "II", Stages: 1, Description: "per-key aggregation persisted to DB", KeyedSource: true,
			DAG: QueryIIDAG, Handcrafted: QueryIIHandcrafted},
		{Name: "III", Stages: 2, Description: "location enrichment + historical summarization",
			DAG: QueryIIIDAG, Handcrafted: QueryIIIHandcrafted},
		{Name: "IV", Stages: 3, Description: "Yahoo benchmark pipeline (10s sliding windows)",
			DAG: QueryIVDAG, Handcrafted: QueryIVHandcrafted},
		{Name: "V", Stages: 3, Description: "Yahoo pipeline with tumbling windows",
			DAG: QueryVDAG, Handcrafted: QueryVHandcrafted},
		{Name: "VI", Stages: 3, Description: "location enrichment + features + k-means",
			DAG: QueryVIDAG, Handcrafted: QueryVIHandcrafted},
	}
}

// ByName looks a query up by its roman numeral.
func ByName(name string) (Def, error) {
	for _, d := range All() {
		if d.Name == name {
			return d, nil
		}
	}
	return Def{}, fmt.Errorf("queries: unknown query %q (have I..VI)", name)
}

// KeyByUser rewrites a unit-keyed iterator into a user-keyed one
// (Query II's source type U(UID, YItem)).
func KeyByUser(it workload.Iterator) workload.Iterator {
	return func() (stream.Event, bool) {
		e, ok := it()
		if !ok || e.IsMarker {
			return e, ok
		}
		return stream.Item(e.Value.(workload.YahooEvent).UserID, e.Value), true
	}
}

// Sources builds the query's partitioned source iterators.
func (d Def) Sources(env *Env, n int) []workload.Iterator {
	parts := env.Gen.Partitions(n)
	if d.KeyedSource {
		for i, p := range parts {
			parts[i] = KeyByUser(p)
		}
	}
	return parts
}

// ColSources builds the query's partitioned sources in columnar form:
// the same event/marker sequence as Sources, usable as storm.ColSpout
// so the compiled topology's source edges can move typed batches.
func (d Def) ColSources(env *Env, n int) []*workload.YahooColSource {
	return env.Gen.ColPartitions(n, d.KeyedSource)
}

// ReferenceInput materializes the full (merged) source stream, for
// reference evaluations.
func (d Def) ReferenceInput(env *Env) []stream.Event {
	it := env.Gen.Iter()
	if d.KeyedSource {
		it = KeyByUser(it)
	}
	return workload.Collect(it)
}

// Reference computes the query's denotation: the generated DAG
// evaluated sequentially on the merged input.
func (d Def) Reference(env *Env) (map[string][]stream.Event, error) {
	return d.DAG(env, 1).Eval(map[string][]stream.Event{"yahoo": d.ReferenceInput(env)})
}

// Spec selects one benchmark run.
type Spec struct {
	// Query is the roman numeral.
	Query string
	// Variant picks generated or handcrafted.
	Variant Variant
	// Par is the per-stage parallelism.
	Par int
	// SourcePar is the number of source partitions (≥1).
	SourcePar int
	// Recovery enables marker-cut checkpointing in the compiled
	// topology (Generated variant only; handcrafted topologies use raw
	// edges and have no marker cuts to recover to).
	Recovery bool
	// Obs enables the runtime observability subsystem (latency
	// histograms, queue gauges, marker-lag tracking) with default
	// sampling for the run.
	Obs bool
	// Transport, when set, overrides the batched edge transport
	// configuration of the topology (both variants); nil keeps the
	// runtime defaults.
	Transport *storm.TransportOptions
	// NoFuseChains disables the compiler's stateless chain-fusion pass
	// (Generated variant only; the pass is on by default).
	NoFuseChains bool
	// NoCombiners disables the compiler's shuffle-side combiner pass
	// (Generated variant only; the pass is on by default).
	NoCombiners bool
	// Rescale, when set, schedules live rescaling steps at marker cuts
	// (requires Recovery; in-process runs only — networked runs rescale
	// through storm.NetOptions.Rescale). Excluded from the networked
	// payload: plans are coordinator-side state, not worker config.
	Rescale *storm.RescalePlan `json:"-"`
	// Autoscale, when set, attaches the feedback controller that issues
	// rescales from queue-depth and latency telemetry (requires
	// Recovery and Obs; in-process runs only).
	Autoscale *storm.AutoscalePolicy `json:"-"`
}

// Run executes the selected query variant to completion on the
// environment's workload and returns the runtime result.
func Run(env *Env, spec Spec) (*storm.Result, error) {
	def, err := ByName(spec.Query)
	if err != nil {
		return nil, err
	}
	if spec.SourcePar < 1 {
		spec.SourcePar = 1
	}
	return runWith(env, spec, def, def.Sources(env, spec.SourcePar), def.ColSources(env, spec.SourcePar))
}

// RunOn executes the selected query variant on explicit per-partition
// event slices instead of the environment's generated workload. The
// conformance tests use it to feed permuted inputs; spec.SourcePar is
// taken from len(parts).
func RunOn(env *Env, spec Spec, parts [][]stream.Event) (*storm.Result, error) {
	def, err := ByName(spec.Query)
	if err != nil {
		return nil, err
	}
	spec.SourcePar = len(parts)
	sources := make([]workload.Iterator, len(parts))
	for i, p := range parts {
		sources[i] = workload.Iterator(storm.SliceSpout(p))
	}
	// Explicit event slices have no columnar source form; edges between
	// compiled bolts are typed all the same.
	return runWith(env, spec, def, sources, nil)
}

func runWith(env *Env, spec Spec, def Def, sources []workload.Iterator, cols []*workload.YahooColSource) (*storm.Result, error) {
	top, err := buildWith(env, spec, def, sources, cols, 0)
	if err != nil {
		return nil, err
	}
	return top.Run()
}

// buildWith constructs the selected variant's topology without
// running it. workers > 0 places the executors (the networked runtime
// builds with its worker count and serves its share; see netrun.go).
// cols, when non-nil, provides the generator-backed columnar source
// spouts the Generated variant prefers; explicit-input runs (RunOn)
// pass nil and read their sources event by event.
func buildWith(env *Env, spec Spec, def Def, sources []workload.Iterator, cols []*workload.YahooColSource, workers int) (*storm.Topology, error) {
	if spec.Par < 1 {
		spec.Par = 1
	}
	switch spec.Variant {
	case Generated:
		dag := def.DAG(env, spec.Par)
		opts := &compile.Options{
			FuseSort:   true,
			FuseChains: !spec.NoFuseChains,
			Combiners:  !spec.NoCombiners,
			Workers:    workers,
		}
		if spec.Recovery {
			opts.Recovery = &storm.RecoveryPolicy{Enabled: true}
		}
		if spec.Obs {
			cfg := metrics.DefaultObsConfig()
			opts.Observability = &cfg
		}
		opts.Transport = spec.Transport
		opts.Rescale = spec.Rescale
		opts.Autoscale = spec.Autoscale
		srcSpec := compile.SourceSpec{Parallelism: spec.SourcePar, Factory: func(i int) storm.Spout {
			return storm.SpoutFunc(sources[i])
		}}
		if len(cols) > 0 {
			srcSpec.Cols = cols[0].ColKind()
			srcSpec.Factory = func(i int) storm.Spout { return cols[i] }
		}
		return compile.Compile(dag, map[string]compile.SourceSpec{"yahoo": srcSpec}, opts)
	case Handcrafted:
		top := def.Handcrafted(env, spec.Par, sources)
		if spec.Obs {
			top.SetObservability(metrics.DefaultObsConfig())
		}
		if spec.Transport != nil {
			top.SetTransport(*spec.Transport)
		}
		// Handcrafted topologies use raw edges without marker-cut
		// recovery, so an attached plan fails the run's upfront
		// validation with the reason — set it anyway and let the runtime
		// report it rather than silently dropping the request.
		if spec.Rescale != nil {
			top.SetRescalePlan(spec.Rescale)
		}
		if spec.Autoscale != nil {
			top.SetAutoscale(spec.Autoscale)
		}
		if workers > 0 {
			top.SetWorkers(workers)
		}
		return top, nil
	default:
		return nil, fmt.Errorf("queries: unknown variant %q", spec.Variant)
	}
}

// SinkType returns the data-trace type of the query's sink channel,
// used to compare outputs as traces.
func (d Def) SinkType(env *Env) stream.Type {
	dag := d.DAG(env, 1)
	return dag.Sinks()[0].Type
}
