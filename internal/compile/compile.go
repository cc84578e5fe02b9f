// Package compile translates type-checked transduction DAGs (package
// core) into executable storm topologies (package storm), the
// counterpart of the paper's section 5 compilation procedure onto
// Apache Storm.
//
// The compiler:
//
//   - maps every DAG source to a spout and every operator to a bolt
//     at its declared parallelism;
//   - selects the grouping each connection needs for the deployment
//     to be semantics-preserving (Theorem 4.3): shuffle for stateless
//     consumers, fields (key hash) for keyed consumers, global for
//     non-parallelizable ones;
//   - inserts the marker-propagation glue: markers are broadcast on
//     every connection and each consumer merges its input channels
//     with the MRG alignment discipline. The merge runs inside the
//     consumer's executor, which is the paper's "fuse MRG with the
//     operator that follows" optimization;
//   - optionally fuses a SORT vertex into its (sole) downstream
//     operator so sorting happens in the consumer's executor without
//     an extra network hop, the paper's second fusion rule;
//   - optionally collapses maximal linear chains of stateless
//     operators into one composite bolt (FuseChains), removing the
//     intermediate shuffle hops entirely;
//   - optionally installs sender-side combining buffers on
//     fields-grouped connections whose consumer admits
//     pre-aggregation (Combiners): partial aggregates are folded at
//     the producer per destination instance and the consumer is
//     rewritten to merge partials, sound exactly because the
//     consumer's aggregation monoid is commutative (Theorem 4.2).
//
// By Corollary 4.4, the resulting topology — at any parallelism and
// under any combination of passes — is equivalent to the DAG's
// reference denotation (core.DAG.Eval); the package tests check
// exactly that, over the truly concurrent runtime.
package compile

import (
	"fmt"

	"datatrace/internal/core"
	"datatrace/internal/metrics"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// SourceSpec tells the compiler how to realize a DAG source as a
// spout.
type SourceSpec struct {
	// Parallelism is the number of spout instances (≥1). Multiple
	// instances model partitioned sources (Yahoo0..YahooN in the
	// paper's Figure 3); each instance must emit the same marker
	// sequence for alignment downstream.
	Parallelism int
	// Factory builds the spout for one instance.
	Factory func(instance int) storm.Spout
	// Cols, when non-nil, declares the column kind the factory's spouts
	// emit batches of (the spouts should implement storm.ColSpout with
	// this kind). The compiler uses it to type the edges out of this
	// source; a spout that emits event by event instead sends rows of
	// the universal kind, which costs speed, not correctness.
	Cols *stream.ColKind
}

// Options are the deployment choices the compiler makes and the runtime
// knobs it sets on the topology it emits. A nil *Options selects
// Defaults(); the zero value turns every optimization pass off.
type Options struct {
	// FuseSort fuses every SORT vertex that has exactly one operator
	// consumer into that consumer's bolt. On in Defaults.
	FuseSort bool
	// FuseChains collapses maximal linear chains of stateless (ParAny)
	// operators — equal parallelism, single producer/consumer edges —
	// into one composite bolt, eliminating the shuffle hops between
	// them. The fused bolt keeps the chain tail's name so downstream
	// wiring is unchanged, snapshots/restores all stages for
	// marker-cut recovery, and reports per-stage delivery counts
	// through the compilation Plan. On in Defaults.
	FuseChains bool
	// Combiners installs a sender-side combining buffer on every
	// fields-grouped connection whose consumer is a lone keyed
	// operator admitting pre-aggregation (core.ColCombinable, folding
	// typed rows, or core.Combinable alone, folding boxed ones, with a
	// usable monoid): producers fold a bounded per-destination map of
	// partial aggregates (storm.DefaultCombinerCap distinct keys) and the
	// consumer is rewritten (PreCombined) to merge partials. Buffers
	// drain into the batched transport on capacity, markers, EOS and
	// transactional send blocks, so they are provably empty at every
	// recovery restart point. On in Defaults.
	Combiners bool
	// Recovery, when non-nil, enables marker-cut checkpointing and
	// executor restart in the compiled topology. Every bolt the
	// compiler emits for a core.Snapshotter instance (all built-in
	// templates, fused or not) participates; see storm.RecoveryPolicy
	// for the degradation knobs.
	Recovery *storm.RecoveryPolicy
	// FaultPlan injects deterministic failures into the compiled
	// topology (see storm.FaultPlan); used by chaos tests. It and the
	// two schedules below act in the process that runs the topology, so
	// they are not serialised.
	FaultPlan *storm.FaultPlan `json:"-"`
	// Rescale, when non-nil, installs a scripted schedule of live
	// parallelism changes at marker cuts (see storm.RescalePlan).
	// Requires Recovery.
	Rescale *storm.RescalePlan `json:"-"`
	// Autoscale, when non-nil, installs a feedback controller that
	// rescales one bolt component from backpressure signals (see
	// storm.AutoscalePolicy). Requires Recovery and Observability.
	Autoscale *storm.AutoscalePolicy `json:"-"`
	// Observability, when non-nil, configures the runtime's
	// observability subsystem (latency histograms, queue gauges,
	// marker-lag tracking, span sampling; see metrics.ObsConfig).
	Observability *metrics.ObsConfig
	// Transport, when non-nil, configures the batched edge transport
	// (see storm.TransportOptions); nil keeps the runtime defaults.
	// BatchSize 1 reproduces the unbatched one-send-per-event
	// transport exactly.
	Transport *storm.TransportOptions
	// Workers places the compiled executors onto this many workers
	// (round-robin in declaration order — the same rule the networked
	// runtime maps to processes). CompileWithPlan surfaces the table as
	// Plan.Placement. 0 leaves placement off.
	Workers int
}

// Defaults returns the options a nil *Options selects: sort fusion,
// chain fusion and shuffle combiners on, every runtime knob at the
// runtime's default. Each call returns a fresh value to modify.
func Defaults() *Options { return &Options{FuseSort: true, FuseChains: true, Combiners: true} }

// combinerCap is the distinct-key capacity of every combining buffer
// the compiler installs. Tests lower it (export_test.go) so buffers
// drain mid-block.
var combinerCap = storm.DefaultCombinerCap

// validate rejects malformed option values with descriptive errors
// before any topology is built.
func (o *Options) validate() error {
	if o.Transport != nil {
		if err := o.Transport.Validate(); err != nil {
			return err
		}
	}
	if o.Workers < 0 {
		return fmt.Errorf("compile: Options.Workers must be ≥ 0 (0 disables placement), got %d", o.Workers)
	}
	return nil
}

// Configure sets o's runtime knobs — everything but the optimization
// passes — on t. CompileWithPlan applies it to every topology it
// emits; a hand-written topology is configured through it too.
func (o *Options) Configure(t *storm.Topology) {
	if o.Recovery != nil {
		t.SetRecovery(*o.Recovery)
	}
	if o.FaultPlan != nil {
		t.SetFaultPlan(o.FaultPlan)
	}
	if o.Rescale != nil {
		t.SetRescalePlan(o.Rescale)
	}
	if o.Autoscale != nil {
		t.SetAutoscale(o.Autoscale)
	}
	if o.Transport != nil {
		t.SetTransport(*o.Transport)
	}
	if o.Observability != nil {
		t.SetObservability(*o.Observability)
	}
	if o.Workers > 0 {
		t.SetWorkers(o.Workers)
	}
}

// sorter is implemented by core.Sort instances' operator; used to
// recognize SORT vertices for fusion. Any keyed operator whose name
// reports itself as a sort could match; we detect by concrete type
// via an interface the core package satisfies.
type sorter interface{ IsSort() bool }

// Compile translates the DAG into a storm topology. sources must
// provide a SourceSpec for every DAG source. A nil opts selects
// Defaults().
func Compile(d *core.DAG, sources map[string]SourceSpec, opts *Options) (*storm.Topology, error) {
	top, _, err := CompileWithPlan(d, sources, opts)
	return top, err
}

// CompileWithPlan is Compile returning, in addition, the optimization
// Plan: which operators fused into which bolts and which connections
// carry combining buffers, plus live per-stage delivery counters for
// fused bolts.
func CompileWithPlan(d *core.DAG, sources map[string]SourceSpec, opts *Options) (*storm.Topology, *Plan, error) {
	if d == nil {
		return nil, nil, fmt.Errorf("compile: nil DAG — build one with core.NewDAG and add nodes before compiling")
	}
	if opts == nil {
		opts = Defaults()
	}
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	if err := d.Check(); err != nil {
		return nil, nil, err
	}
	for _, src := range d.Sources() {
		if _, ok := sources[src.Name]; !ok {
			return nil, nil, fmt.Errorf("compile: no SourceSpec for source %q", src.Name)
		}
	}

	// consumers[node] = downstream nodes.
	consumers := map[int][]*core.Node{}
	for _, n := range d.Nodes() {
		for _, in := range n.Inputs {
			consumers[in.ID] = append(consumers[in.ID], n)
		}
	}

	// Decide sort fusion: fusedInto[sortNodeID] = consumer node. The
	// consumer must have the sort as its only input, so replacing its
	// inputs with the sort's drops no edges.
	fusedInto := map[int]*core.Node{}
	if opts.FuseSort {
		for _, n := range d.Nodes() {
			if n.Kind != core.OpNode || !isSortOp(n.Op) {
				continue
			}
			cs := consumers[n.ID]
			if len(cs) == 1 && cs[0].Kind == core.OpNode && cs[0].Op.Mode() != core.ParNone &&
				len(cs[0].Inputs) == 1 {
				fusedInto[n.ID] = cs[0]
			}
		}
	}

	// Decide chain fusion: chains[tailID] = member nodes head..tail;
	// absorbed marks every member except the tail. A link n→c joins a
	// chain when both are stateless operators at equal parallelism and
	// the edge is n's only outgoing and c's only incoming edge — then
	// shuffling between them routes every event to exactly one
	// consumer instance anyway, and running c in n's executor is
	// trace-equivalent while saving the hop.
	chains := map[int][]*core.Node{}
	absorbed := map[int]bool{}
	if opts.FuseChains {
		next := map[int]*core.Node{}
		hasPrev := map[int]bool{}
		for _, n := range d.Nodes() {
			if n.Kind != core.OpNode || n.Op.Mode() != core.ParAny {
				continue
			}
			cs := consumers[n.ID]
			if len(cs) != 1 {
				continue
			}
			c := cs[0]
			if c.Kind != core.OpNode || c.Op.Mode() != core.ParAny ||
				c.Parallelism != n.Parallelism || len(c.Inputs) != 1 {
				continue
			}
			next[n.ID] = c
			hasPrev[c.ID] = true
		}
		for _, n := range d.Nodes() {
			if next[n.ID] == nil || hasPrev[n.ID] {
				continue // not a chain head
			}
			members := []*core.Node{n}
			for m := next[n.ID]; m != nil; m = next[m.ID] {
				members = append(members, m)
			}
			tail := members[len(members)-1]
			chains[tail.ID] = members
			for _, m := range members[:len(members)-1] {
				absorbed[m.ID] = true
			}
		}
	}

	top := storm.NewTopology("compiled")
	plan := &Plan{Name: "compiled"}

	// outKind[name] is the column kind the emitted component produces
	// batches of, nil when it emits event by event (rows of the
	// universal kind). Node order is topological, so a producer's kind
	// is recorded before any consumer wires an edge from it.
	outKind := map[string]*stream.ColKind{}

	for _, n := range d.Nodes() {
		switch n.Kind {
		case core.SourceNode:
			spec := sources[n.Name]
			par := spec.Parallelism
			if par < 1 {
				par = 1
			}
			top.AddSpout(n.Name, par, spec.Factory)
			outKind[n.Name] = spec.Cols
		case core.OpNode:
			if _, fusedAway := fusedInto[n.ID]; fusedAway {
				continue
			}
			if absorbed[n.ID] {
				continue // emitted with its chain's tail
			}
			nodes := []*core.Node{n}
			if ch := chains[n.ID]; ch != nil {
				nodes = ch
			}
			// The bolt is named after n (the chain tail, or the lone
			// node) so downstream wiring is unchanged; its inputs and
			// grouping come from the chain head. If the head's input is
			// a fused sort, the bolt runs the sort instance in front and
			// takes the sort's inputs. Mid-chain members can never own a
			// fused sort: their single input is the previous (stateless)
			// member.
			head := nodes[0]
			var fusedSort core.Operator
			inputs := head.Inputs
			for _, in := range head.Inputs {
				if fusedInto[in.ID] == head {
					fusedSort = in.Op
					inputs = in.Inputs
					break
				}
			}
			stageOps := make([]core.Operator, 0, len(nodes)+1)
			var stageNames []string
			if fusedSort != nil {
				stageOps = append(stageOps, fusedSort)
				stageNames = append(stageNames, fusedSort.Name())
			}
			for _, m := range nodes {
				stageOps = append(stageOps, m.Op)
				stageNames = append(stageNames, m.Op.Name())
			}
			// Combiner pass: a lone keyed consumer whose operator admits
			// pre-aggregation is rewritten to fold partial aggregates,
			// and every one of its (fields-grouped) connections gets a
			// sender-side combining buffer over the same monoid. A fused
			// sort excludes combining — its consumer needs the items
			// themselves, in order.
			var comb *storm.ColCombinerSpec
			if opts.Combiners && len(stageOps) == 1 && n.Op.Mode() == core.ParKeyed {
				// The edge carries (key, partial aggregate) batches and the
				// consumer is rewritten to merge partials. A typed combiner
				// folds typed rows; an operator exposing only the untyped
				// monoid gets the same buffer over the universal kind.
				if cc, ok := n.Op.(core.ColCombinable); ok {
					if outK, mk, can := cc.ColCombiner(); can {
						comb = &storm.ColCombinerSpec{OutKind: outK, New: mk, Cap: combinerCap}
						stageOps[0] = cc.PreCombined()
					}
				} else if c, ok := n.Op.(core.Combinable); ok {
					if in, combine, can := c.CombinerMonoid(); can {
						mk := func() stream.ColCombiner { return stream.NewAnyCombiner(in, combine) }
						comb = &storm.ColCombinerSpec{OutKind: stream.AnyKind, New: mk, Cap: combinerCap}
						stageOps[0] = c.PreCombined()
					}
				}
			}
			ops := stageOps
			// The bolt's columnar endpoint kinds, computed from the stage
			// pipeline after any PreCombined rewrite (which shifts the
			// consumed kind from raw items to partial aggregates).
			inK, outK := opsColKinds(ops)
			// A marker-driven output goes out typed only to a consumer
			// that reads its kind typed — a typed combiner counts, which
			// is why the consumers' operators are checked before their
			// PreCombined rewrite — and only from a lone stage: a fused
			// pipeline's typed marker step needs a chain. A sink's
			// collector and a boxed tap would each box a typed row again,
			// where the boxed marker step boxes it once for all readers.
			if _, md := ops[len(ops)-1].(core.MarkerDriven); md && (len(ops) > 1 || !readsKind(consumers[n.ID], outK)) {
				outK = nil
			}
			outKind[n.Name] = outK
			counts := plan.addBolt(n.Name, n.Parallelism, stageNames, outK)
			top.AddBolt(n.Name, n.Parallelism, func(int) storm.Bolt {
				if len(ops) == 1 {
					return adapt(ops[0].New(), outK)
				}
				insts := make([]core.Instance, len(ops))
				for i, op := range ops {
					insts[i] = op.New()
				}
				return newFusedBolt(insts, counts)
			})
			decl := boltDecl(top, n.Name)
			grouping := groupingFor(head, fusedSort != nil)
			// Every edge carries column batches, of the kind of the rows
			// its producer emits; the plan records which edges that makes
			// typed: a combined edge (the combiner's output kind) and an
			// edge whose two endpoints expose the same kind.
			for _, in := range inputs {
				connect(decl, in.Name, grouping)
				switch {
				case comb != nil:
					decl.ColCombineWith(*comb)
					plan.CombinedEdges = append(plan.CombinedEdges, PlanEdge{From: in.Name, To: n.Name, Cap: comb.Cap, Columnar: comb.OutKind != stream.AnyKind})
				case inK != nil && outKind[in.Name] == inK:
					plan.ColumnarEdges = append(plan.ColumnarEdges, PlanEdge{From: in.Name, To: n.Name, Columnar: true})
				}
			}
		case core.SinkNode:
			in := n.Inputs[0]
			// A sink consuming a fused-away node cannot occur: both
			// fusion passes require the absorbed node's sole consumer to
			// be an OpNode.
			top.AddSink(n.Name, in.Name)
		}
	}
	opts.Configure(top)
	if opts.Workers > 0 {
		plan.Placement = top.Placement(opts.Workers)
	}
	return top, plan, nil
}

// isSortOp recognizes core.Sort operators structurally: they are the
// only built-in whose input is unordered and whose output is the
// ordered type with identical key and value names.
func isSortOp(op core.Operator) bool {
	if s, ok := op.(sorter); ok {
		return s.IsSort()
	}
	in, out := op.InType(), op.OutType()
	return in.Kind == stream.Unordered && out.Kind == stream.Ordered &&
		in.Key == out.Key && in.Val == out.Val && op.Mode() == core.ParKeyed
}

// opsColKinds computes the typed endpoint kinds of a bolt's stage
// pipeline: the kind its first stage consumes and the kind its last
// stage produces. It returns (nil, nil) unless every stage exposes the
// batch interface and the kinds chain stage to stage — the same
// condition under which fusedBolt runs its batch pipeline — so the
// compiler never declares an edge typed that the bolt would only ever
// drain row by row.
func opsColKinds(ops []core.Operator) (in, out *stream.ColKind) {
	var prev *stream.ColKind
	for i, op := range ops {
		co, ok := op.(core.ColOperator)
		if !ok || co.InColKind() == nil {
			return nil, nil
		}
		if i == 0 {
			in = co.InColKind()
		} else if prev != co.InColKind() {
			return nil, nil
		}
		prev = co.OutColKind()
		if prev == nil && i < len(ops)-1 {
			return nil, nil
		}
	}
	return in, prev
}

// readsKind reports whether an operator among consumers takes batches
// of kind k.
func readsKind(consumers []*core.Node, k *stream.ColKind) bool {
	for _, c := range consumers {
		if co, ok := c.Op.(core.ColOperator); ok && c.Kind == core.OpNode && co.InColKind() == k {
			return true
		}
	}
	return false
}

// groupingFor selects the semantics-preserving grouping for the
// connection into node n (Theorem 4.3). A fused sort forces key
// routing even if the downstream operator alone would allow shuffle.
func groupingFor(n *core.Node, hasFusedSort bool) storm.Grouping {
	if hasFusedSort {
		return storm.Fields
	}
	switch n.Op.Mode() {
	case core.ParAny:
		return storm.Shuffle
	case core.ParKeyed:
		return storm.Fields
	default:
		return storm.Global
	}
}

// boltDecl re-opens a bolt declaration for wiring. The storm builder
// returns the declaration at AddBolt time; this helper exists so the
// compiler can keep its loop flat.
func boltDecl(t *storm.Topology, name string) *storm.BoltDecl {
	return t.Decl(name)
}

func connect(d *storm.BoltDecl, from string, g storm.Grouping) {
	switch g {
	case storm.Shuffle:
		d.ShuffleGrouping(from, true)
	case storm.Fields:
		d.FieldsGrouping(from, true)
	case storm.Global:
		d.GlobalGrouping(from, true)
	default:
		d.BroadcastGrouping(from, true)
	}
}

// instanceBolt adapts a core.Instance to a storm.Bolt (identical
// method sets; the named type keeps the dependency direction
// explicit). out is the kind of batches the bolt emits, as the
// compiler chose it: nil keeps a MarkerDriven instance's output boxed.
type instanceBolt struct {
	inst core.Instance
	out  *stream.ColKind
}

// Next implements storm.Bolt.
func (b instanceBolt) Next(e stream.Event, emit func(stream.Event)) { b.inst.Next(e, emit) }

// InColKind implements storm.ColProcessor: non-nil exactly when the
// wrapped instance consumes typed column batches.
func (b instanceBolt) InColKind() *stream.ColKind {
	if bi, ok := b.inst.(core.BatchInstance); ok {
		return bi.InColKind()
	}
	return nil
}

// OutColKind implements storm.ColProcessor.
func (b instanceBolt) OutColKind() *stream.ColKind { return b.out }

// ProcessCols implements storm.ColProcessor. The runtime calls it only
// when InColKind is non-nil, i.e. the instance is a BatchInstance.
func (b instanceBolt) ProcessCols(in, out stream.Columns) {
	b.inst.(core.BatchInstance).ProcessCols(in, out)
}

// ProcessMarker implements storm.ColMarker. The runtime calls it only
// when OutColKind is non-nil, and every template whose output is typed
// has a typed marker step (core.ColMarker).
func (b instanceBolt) ProcessMarker(m stream.Marker, out stream.Columns) {
	b.inst.(core.ColMarker).ProcessMarker(m, out)
}

// snapshotBolt is an instanceBolt whose instance can checkpoint; it
// additionally implements storm.Recoverable, so the runtime's
// marker-cut recovery can snapshot and restore the bolt.
type snapshotBolt struct{ instanceBolt }

// Snapshot implements storm.Recoverable via core.SnapshotInstance.
func (b snapshotBolt) Snapshot() ([]byte, error) { return core.SnapshotInstance(b.inst) }

// AppendSnapshot implements storm.SnapshotAppender: the runtime's
// per-executor buffer, reused across cuts, receives the snapshot.
func (b snapshotBolt) AppendSnapshot(dst []byte) ([]byte, error) {
	return core.AppendSnapshotInstance(dst, b.inst)
}

// Restore implements storm.Recoverable.
func (b snapshotBolt) Restore(data []byte) error { return core.RestoreInstance(b.inst, data) }

// reshardBolt is a snapshotBolt whose instance additionally supports
// keyed-state re-sharding; it implements storm.Resharder, so the
// runtime can rescale the component live at a marker cut.
type reshardBolt struct{ snapshotBolt }

// Reshard implements storm.Resharder via core.ReshardInstanceSnapshots.
func (b reshardBolt) Reshard(old [][]byte, newPar int, owner func(key any) int) ([][]byte, error) {
	return core.ReshardInstanceSnapshots(b.inst, old, newPar, owner)
}

// adapt wraps a core.Instance as a storm.Bolt emitting batches of out,
// exposing storm.Recoverable exactly when the instance supports
// checkpointing and storm.Resharder when it also supports re-sharding —
// the method set advertises the capability to the runtime.
func adapt(inst core.Instance, out *stream.ColKind) storm.Bolt {
	b := instanceBolt{inst, out}
	switch {
	case core.CanReshard(inst):
		return reshardBolt{snapshotBolt{b}}
	case core.CanSnapshot(inst):
		return snapshotBolt{b}
	default:
		return b
	}
}

// plainBolt hides a fused bolt's Recoverable methods when one of the
// fused instances cannot snapshot, so the runtime sees an accurate
// method set.
type plainBolt struct{ b storm.Bolt }

// Next implements storm.Bolt.
func (p plainBolt) Next(e stream.Event, emit func(stream.Event)) { p.b.Next(e, emit) }
