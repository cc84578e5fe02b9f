package queries

import (
	"fmt"

	"datatrace/internal/compile"
	"datatrace/internal/core"
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

// Spec selects one run: a query, its variant and its parallelism,
// deployed with Options.
type Spec struct {
	// Query is the roman numeral.
	Query string
	// Variant picks generated or handcrafted.
	Variant Variant
	// Par is the per-stage parallelism (≥1; 0 selects 1).
	Par int
	// SourcePar is the number of source partitions (≥1; 0 selects 1).
	SourcePar int
	// Options are the compiler's passes and the runtime knobs; nil
	// selects compile.Defaults(). The Generated variant compiles with
	// them; the Handcrafted one takes their runtime knobs (see
	// compile.Options.Configure) and has no passes to run. Its bolts
	// sit on raw edges and keep no snapshots: recovery covers only its
	// sinks, and a rescale plan or autoscaler fails the run's upfront
	// validation with the reason.
	Options *compile.Options
}

// Run executes the selected query variant to completion on the
// environment's workload and returns the runtime result.
func Run(env *Env, spec Spec) (*storm.Result, error) {
	top, err := build(env, spec, nil)
	if err != nil {
		return nil, err
	}
	return top.Run()
}

// RunOn executes the selected query variant on explicit per-partition
// event slices instead of the environment's generated workload. The
// conformance tests use it to feed permuted inputs; spec.SourcePar is
// taken from len(parts).
func RunOn(env *Env, spec Spec, parts [][]stream.Event) (*storm.Result, error) {
	spec.SourcePar = len(parts)
	top, err := build(env, spec, parts)
	if err != nil {
		return nil, err
	}
	return top.Run()
}

// build constructs the selected variant's topology without running
// it. parts, when non-nil, are explicit per-partition inputs (RunOn);
// otherwise the sources are the environment's generator, which the
// Generated variant reads as columnar source spouts.
func build(env *Env, spec Spec, parts [][]stream.Event) (*storm.Topology, error) {
	def, err := ByName(spec.Query)
	if err != nil {
		return nil, err
	}
	spec.Par, spec.SourcePar = max(spec.Par, 1), max(spec.SourcePar, 1)
	var sources []workload.Iterator
	var cols []*workload.YahooColSource
	if parts == nil {
		sources, cols = def.Sources(env, spec.SourcePar), def.ColSources(env, spec.SourcePar)
	} else {
		// Explicit event slices have no columnar source form; edges
		// between compiled bolts are typed all the same.
		for _, p := range parts {
			sources = append(sources, workload.Iterator(storm.SliceSpout(p)))
		}
	}
	switch spec.Variant {
	case Generated:
		srcSpec := compile.SourceSpec{Parallelism: spec.SourcePar, Factory: func(i int) storm.Spout {
			return storm.SpoutFunc(sources[i])
		}}
		if len(cols) > 0 {
			srcSpec.Cols = cols[0].ColKind()
			srcSpec.Factory = func(i int) storm.Spout { return cols[i] }
		}
		return compile.Compile(def.DAG(env, spec.Par), map[string]compile.SourceSpec{"yahoo": srcSpec}, spec.Options)
	case Handcrafted:
		top := def.Handcrafted(env, spec.Par, sources)
		if spec.Options != nil {
			spec.Options.Configure(top)
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
