package datatrace

import (
	"datatrace/internal/compile"
	"datatrace/internal/core"
	"datatrace/internal/metrics"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// --- stream model ----------------------------------------------------------

// Event is one element of a stream: a key-value item or a marker.
type Event = stream.Event

// Marker is a periodic synchronization marker (linearly ordered,
// carries an event-time watermark).
type Marker = stream.Marker

// Unit is the unit key type Ut.
type Unit = stream.Unit

// Type is a practical data-trace type: U(K,V) or O(K,V).
type Type = stream.Type

// Item constructs a key-value item event.
func Item(key, value any) Event { return stream.Item(key, value) }

// Mark constructs a marker event.
func Mark(m Marker) Event { return stream.Mark(m) }

// U constructs the unordered data-trace type U(key, val).
func U(key, val string) Type { return stream.U(key, val) }

// O constructs the ordered data-trace type O(key, val).
func O(key, val string) Type { return stream.O(key, val) }

// Equivalent reports whether two event sequences denote the same data
// trace of type t — the library's notion of semantic equality.
func Equivalent(t Type, a, b []Event) bool { return stream.Equivalent(t, a, b) }

// Render formats an event sequence for debugging.
func Render(events []Event) string { return stream.Render(events) }

// MergeEvents merges complete event streams with marker alignment
// (the MRG transduction, batch form).
func MergeEvents(inputs ...[]Event) []Event { return stream.MergeEvents(inputs...) }

// --- operator templates ----------------------------------------------------

// Emit is the output callback of the operator templates.
type Emit[L, W any] = core.Emit[L, W]

// Stateless is the OpStateless template: U(K,V) → U(L,W), output
// depends only on the current event.
type Stateless[K, V, L, W any] = core.Stateless[K, V, L, W]

// KeyedOrdered is the OpKeyedOrdered template: O(K,V) → O(K,W),
// order-dependent per-key state.
type KeyedOrdered[K comparable, V, W, S any] = core.KeyedOrdered[K, V, W, S]

// KeyedUnordered is the OpKeyedUnordered template: U(K,V) → U(L,W),
// per-key state updated at markers through a commutative monoid. Its
// optional MergeInto and Fold hooks run that monoid in place on
// aggregates the runtime owns; In and Combine remain the specification,
// which the sequential evaluator (DAG.Eval) runs with the hooks removed.
type KeyedUnordered[K comparable, V, L, W, S, A any] = core.KeyedUnordered[K, V, L, W, S, A]

// Sort is the SORT built-in: U(K,V) → O(K,V), imposing a per-key
// total order on the items between markers.
type Sort[K comparable, V any] = core.Sort[K, V]

// SlidingAggregate is the specialized sliding-window template
// (section 8's proposed extension): per key, the aggregate of the
// last WindowBlocks marker periods, maintained in O(1) amortized time
// per block.
type SlidingAggregate[K comparable, V, A any] = core.SlidingAggregate[K, V, A]

// Operator is a typed processing vertex (what templates produce and
// DAGs consume).
type Operator = core.Operator

// Instance is one running operator copy.
type Instance = core.Instance

// --- transduction DAGs -----------------------------------------------------

// DAG is a transduction DAG: a typed dataflow graph of sources,
// operators and sinks.
type DAG = core.DAG

// Node is a DAG vertex.
type Node = core.Node

// NewDAG creates an empty transduction DAG.
func NewDAG() *DAG { return core.NewDAG() }

// RunInstance runs a single operator instance over a complete input —
// the operator's sequential denotation.
func RunInstance(op Operator, input []Event) []Event { return core.RunInstance(op, input) }

// RunParallel deploys one operator at the given parallelism (HASH or
// RR splitter per its mode) and merges the results — the right-hand
// side of the Theorem 4.3 equations.
func RunParallel(op Operator, input []Event, parallelism int) []Event {
	return core.RunParallel(op, input, parallelism, nil)
}

// --- compilation and runtime -----------------------------------------------

// SourceSpec tells the compiler how to realize a DAG source as spout
// instances.
type SourceSpec = compile.SourceSpec

// CompileOptions declares every deployment choice once: the compiler's
// optimization passes and the runtime knobs. A nil *CompileOptions
// selects DefaultCompileOptions(); the zero value turns the passes off.
// Compile applies the runtime knobs to the topology it emits, and
// CompileOptions.Configure applies them to a hand-written one.
type CompileOptions = compile.Options

// DefaultCompileOptions returns, as a fresh value to modify, the
// options a nil *CompileOptions selects: every optimization pass on.
func DefaultCompileOptions() *CompileOptions { return compile.Defaults() }

// Topology is a runnable dataflow on the Storm-style runtime.
type Topology = storm.Topology

// Result is a completed topology run: sink streams plus stats.
type Result = storm.Result

// Spout is an event source for the runtime.
type Spout = storm.Spout

// Bolt is a processing vertex for hand-written topologies; template
// instances satisfy it directly.
type Bolt = storm.Bolt

// BoltFunc adapts a function to a Bolt.
type BoltFunc = storm.BoltFunc

// SliceSpout replays a fixed event sequence.
func SliceSpout(events []Event) Spout { return storm.SliceSpout(events) }

// --- columnar batches (DESIGN.md §9) ---------------------------------------

// Columns is a struct-of-arrays batch of item rows, recycled through
// per-kind arenas: the runtime's one carrier of items. The compiler
// declares an edge typed when both endpoints agree on a column kind;
// every other edge carries batches of the universal kind cols[any,any],
// whose rows are boxed (key, value) pairs. Markers never enter batches,
// so recovery and rescaling are unaffected.
type Columns = stream.Columns

// Cols is the concrete columnar batch: parallel Keys/Vals columns.
type Cols[K, V any] = stream.Cols[K, V]

// ColKind is the canonical descriptor of one columnar layout — a
// (key type, value type) pair. Kinds are canonicalized, so kind
// equality is pointer equality.
type ColKind = stream.ColKind

// ColKindFor returns the canonical kind for the (K, V) type pair.
// Declare it in SourceSpec.Cols to type the edges out of a source;
// spouts that additionally implement ColSpout fill typed batches
// directly.
func ColKindFor[K, V any]() *ColKind { return stream.ColKindFor[K, V]() }

// ColSpout is an optional Spout extension: a source that fills typed
// column batches directly, skipping per-event boxing. A source whose
// SourceSpec declares Cols but whose spout only implements Spout emits
// rows of the universal kind instead: slower, not wrong.
type ColSpout = storm.ColSpout

// Compile translates a type-checked DAG into a topology, inserting
// the groupings, marker propagation and merge/sort fusion of the
// paper's section 5. A nil options selects DefaultCompileOptions(),
// which enable the optimization passes (sort fusion, stateless chain
// fusion, shuffle-side combiners).
func Compile(d *DAG, sources map[string]SourceSpec, opts *CompileOptions) (*Topology, error) {
	return compile.Compile(d, sources, opts)
}

// CompilePlan is the compiler's optimization report: which operators
// fused into which bolts and which connections carry sender-side
// combining buffers, with live per-stage delivery counters for fused
// bolts.
type CompilePlan = compile.Plan

// CompileWithPlan is Compile returning, in addition, the optimization
// plan.
func CompileWithPlan(d *DAG, sources map[string]SourceSpec, opts *CompileOptions) (*Topology, *CompilePlan, error) {
	return compile.CompileWithPlan(d, sources, opts)
}

// Combinable is the optional Operator extension that exposes a keyed
// operator's aggregation monoid for sender-side combining; the
// KeyedUnordered and SlidingAggregate templates implement it (and its
// typed refinement), and Compile honours it on any operator.
type Combinable = core.Combinable

// CombinerSpec is a sender-side combining buffer's configuration as an
// untyped monoid, for hand-written topologies (BoltDecl.CombineWith);
// Compile installs combiners automatically when
// CompileOptions.Combiners is on (typed for the templates, over this
// untyped monoid for an operator that is only Combinable).
type CombinerSpec = storm.CombinerSpec

// DefaultCombinerCap is the combining buffer's default distinct-key
// capacity.
const DefaultCombinerCap = storm.DefaultCombinerCap

// NewTopology creates an empty runtime topology for hand-written
// deployments.
func NewTopology(name string) *Topology { return storm.NewTopology(name) }

// TransportOptions configures the batched edge transport: emitters
// accumulate per-destination send buffers and flush them as message
// vectors when a buffer reaches BatchSize, when a marker or EOS must
// cross the edge, or after FlushInterval of idleness. The zero value
// selects the defaults (BatchSize 64, FlushInterval 1ms); BatchSize 1
// reproduces the unbatched one-send-per-event transport exactly.
// Set it as CompileOptions.Transport (or Topology.SetTransport).
type TransportOptions = storm.TransportOptions

// --- fault injection and recovery ------------------------------------------

// FaultPlan deterministically injects failures into a topology run:
// executor crashes at the Nth event, serializer corruption on a
// chosen edge, artificial slowdowns. Set it as CompileOptions.FaultPlan
// (or Topology.SetFaultPlan).
type FaultPlan = storm.FaultPlan

// NewFaultPlan creates an empty fault plan.
func NewFaultPlan() *FaultPlan { return storm.NewFaultPlan() }

// RecoveryPolicy enables marker-cut checkpointing and restart for
// aligned bolt executors. Set it as CompileOptions.Recovery (or
// Topology.SetRecovery).
type RecoveryPolicy = storm.RecoveryPolicy

// Recoverable is the optional Bolt extension that supplies the
// snapshots recovery restores from; core.Snapshotter template
// instances are adapted automatically by Compile.
type Recoverable = storm.Recoverable

// SnapshotAppender is the optional Recoverable extension that appends
// a snapshot to a buffer the runtime reuses across cuts; compiled
// template instances implement it automatically.
type SnapshotAppender = storm.SnapshotAppender

// Degradation selects what an unrecoverable executor does.
type Degradation = storm.Degradation

const (
	// AbortTopology fails the run on an unrecoverable executor.
	AbortTopology = storm.AbortTopology
	// DropAndLog keeps the run alive: items are dropped and counted,
	// markers keep flowing.
	DropAndLog = storm.DropAndLog
)

// --- elastic rescaling -------------------------------------------------------

// RescalePlan schedules live parallelism changes at marker cuts:
// each step names a component, its new parallelism, and the completed
// cut to reconfigure at. Set it as CompileOptions.Rescale (or
// Topology.SetRescalePlan); requires marker-cut recovery.
type RescalePlan = storm.RescalePlan

// NewRescalePlan creates an empty rescale plan.
func NewRescalePlan() *RescalePlan { return storm.NewRescalePlan() }

// RescaleStep is one scheduled parallelism change of a RescalePlan.
type RescaleStep = storm.RescaleStep

// Resharder is the optional Recoverable extension that redistributes
// a component's keyed snapshots across a new parallelism; compiled
// template instances implement it automatically, hand-written bolts
// opt in to become rescalable.
type Resharder = storm.Resharder

// AutoscalePolicy is the feedback controller that rescales one
// component from its queue-depth gauges and queue-latency histograms
// during the run. Set it as CompileOptions.Autoscale (or
// Topology.SetAutoscale); requires recovery and observability.
type AutoscalePolicy = storm.AutoscalePolicy

// --- networked runtime -------------------------------------------------------

// Placed is one executor's process placement: component, instance,
// hosting worker and global executor index.
type Placed = storm.Placed

// WorkerConfig tells ServeWorker which worker a process is and where
// the coordinator listens; WorkerEnvConfig reads it from the
// DTT_NET_* spawn contract.
type WorkerConfig = storm.WorkerConfig

// WorkerEnvConfig reads the networked-worker spawn contract from the
// environment; ok is false when this process was not spawned as a
// worker, and spec is the opaque application payload.
func WorkerEnvConfig() (cfg WorkerConfig, spec string, ok bool) {
	return storm.WorkerEnvConfig()
}

// NetOptions configures a networked multi-process run: worker count,
// worker command, fault injection and restart policy.
type NetOptions = storm.NetOptions

// KillPlan schedules one SIGKILL against a worker process after a
// number of committed marker cuts (chaos testing).
type KillPlan = storm.KillPlan

// NetRescalePlan schedules one cluster-wide rescale of a networked
// run: at the named committed cut the attempt is aborted and every
// subsequent attempt spawns with the revised spec — a revised
// placement table spliced onto the committed prefix, not charged
// against MaxRestarts.
type NetRescalePlan = storm.NetRescalePlan

// NetResult is a networked run's outcome: the sinks' output, kept cut
// by cut across cluster restarts, worker-reported stats, and recovery
// counters.
type NetResult = storm.NetResult

// RunNetworked launches a cluster of worker processes over localhost
// TCP, runs the topology they rebuild from NetOptions.Spec, and
// recovers from worker-process failure by restarting the cluster and
// splicing sink output at the last committed marker cut.
func RunNetworked(opts NetOptions) (*NetResult, error) { return storm.RunNetworked(opts) }

// --- observability -----------------------------------------------------------

// ObsConfig configures the executor-level observability subsystem:
// per-executor execute/queue latency histograms, queue-depth
// (backpressure) gauges, marker-cut lag tracking and sampled event
// spans. Set it as CompileOptions.Observability (or
// Topology.SetObservability); disabled by default (zero overhead).
type ObsConfig = metrics.ObsConfig

// DefaultObsConfig enables observability with the default sampling
// period and span-ring capacity.
func DefaultObsConfig() ObsConfig { return metrics.DefaultObsConfig() }

// Stats is a run's live metrics collector. During Run it is reachable
// via Topology.LiveStats (race-safe to poll); after Run it is
// Result.Stats.
type Stats = metrics.Stats

// StatsSnapshot is a consistent copy-on-read export of a Stats
// collector (Stats.Snapshot), safe to retain and render while the run
// continues.
type StatsSnapshot = metrics.StatsSnapshot

// InstanceSnapshot is one executor's counters, histograms, gauges and
// retained spans inside a StatsSnapshot.
type InstanceSnapshot = metrics.InstanceSnapshot

// ComponentSnapshot aggregates a component's instances: summed
// counters, merged histograms, max queue depth
// (StatsSnapshot.ByComponent).
type ComponentSnapshot = metrics.ComponentSnapshot

// Hist is an immutable log-bucketed latency histogram snapshot; merge
// is a commutative monoid and quantiles carry ≤2× relative error.
type Hist = metrics.Hist

// Span is one sampled event execution (component, instance, executed
// ordinal, wall-clock start/end).
type Span = metrics.Span

// WireStats are a networked run's data-link counters (Stats.Wire):
// frames, bytes, rows sent as raw columns, rows sent through the gob
// fallback, and the time spent in socket writes and waiting for credit.
type WireStats = metrics.WireStats
