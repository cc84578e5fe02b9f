// Package storm is a distributed streaming runtime modelled on Apache
// Storm, the deployment platform of section 5 of the paper. It is the
// substitute substrate this reproduction runs on: a topology is a DAG
// of spouts (sources) and bolts (processing/sink vertices), each
// instantiated at a configurable parallelism; instances run as
// concurrent executors connected by bounded channels, and connections
// carry a grouping that says how tuples are partitioned among the
// consumer's instances (shuffle, fields, global, broadcast — Storm's
// groupings).
//
// Two deliberate departures from plain Storm implement the paper's
// section 5 machinery:
//
//   - Synchronization markers are always broadcast to every consumer
//     instance, whatever the grouping, so they can act as stream
//     punctuations.
//   - A connection may be declared marker-aligned, in which case the
//     receiving executor merges its input channels with the MRG
//     discipline (items of block i from every channel, then marker i).
//     The compiler in internal/compile emits marker-aligned edges; the
//     handcrafted baseline topologies use raw edges and do their own
//     synchronization, as hand-written Storm code would.
//
// The runtime interleaves executors nondeterministically — that is
// the point: semantics preservation must hold for every interleaving,
// and the tests assert trace equivalence, not sequence equality.
package storm

import (
	"fmt"
	"sync/atomic"

	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// Grouping is a stream partitioning strategy for a connection, as in
// Storm's stream groupings.
type Grouping int

const (
	// Shuffle distributes items over consumer instances round-robin
	// per producer (Storm's shuffle grouping, made deterministic per
	// sender).
	Shuffle Grouping = iota
	// Fields routes an item by the hash of its key, so all items with
	// one key reach one instance (Storm's fields grouping).
	Fields
	// Global sends every item to instance 0 (Storm's global grouping).
	Global
	// Broadcast replicates every item to all instances (Storm's all
	// grouping).
	Broadcast
)

// String renders the grouping name.
func (g Grouping) String() string {
	switch g {
	case Shuffle:
		return "shuffle"
	case Fields:
		return "fields"
	case Global:
		return "global"
	default:
		return "broadcast"
	}
}

// Spout is a source of events. Each spout instance owns one Spout
// value and calls Next until it returns false.
type Spout interface {
	// Next returns the next event, or ok=false when the source is
	// exhausted (which initiates topology shutdown).
	Next() (e stream.Event, ok bool)
}

// SpoutFunc adapts a function to a Spout.
type SpoutFunc func() (stream.Event, bool)

// Next implements Spout.
func (f SpoutFunc) Next() (stream.Event, bool) { return f() }

// SliceSpout replays a fixed event sequence.
func SliceSpout(events []stream.Event) SpoutFunc {
	i := 0
	return func() (stream.Event, bool) {
		if i >= len(events) {
			return stream.Event{}, false
		}
		e := events[i]
		i++
		return e, true
	}
}

// Bolt processes one event at a time and may emit any number of
// events. It is the same contract as core.Instance, so template
// instances plug in directly. A bolt instance is used by a single
// executor goroutine.
type Bolt interface {
	Next(e stream.Event, emit func(stream.Event))
}

// Flusher is an optional Bolt extension: Flush runs once when all of
// the instance's input channels have reached end-of-stream, before
// shutdown propagates downstream.
type Flusher interface {
	Flush(emit func(stream.Event))
}

// ChannelBolt is an optional Bolt extension for raw (non-aligned)
// inputs: NextFrom also receives the input channel index the event
// arrived on — the analogue of Storm's Tuple.getSourceTask(). Channel
// indexes enumerate (connection, producer instance) pairs in
// declaration order. Handcrafted topologies use this to implement
// their own marker synchronization; on aligned inputs the runtime's
// merger consumes channel identity, so Next is called instead.
type ChannelBolt interface {
	NextFrom(ch int, e stream.Event, emit func(stream.Event))
}

// BoltFunc adapts a function to a Bolt.
type BoltFunc func(e stream.Event, emit func(stream.Event))

// Next implements Bolt.
func (f BoltFunc) Next(e stream.Event, emit func(stream.Event)) { f(e, emit) }

// connection is one edge of the topology.
type connection struct {
	from     string
	grouping Grouping
	// aligned requests receiver-side MRG marker alignment across all
	// input channels of the consumer (all its connections jointly).
	aligned bool
	// colComb, when set, installs a sender-side combining buffer on the
	// edge (combiner.go).
	colComb *ColCombinerSpec
}

// component is a spout or bolt declaration.
type component struct {
	name        string
	parallelism int
	spout       func(instance int) Spout
	bolt        func(instance int) Bolt
	inputs      []connection
	isSink      bool
}

// Topology is a declared (not yet running) dataflow of spouts and
// bolts — Storm's TopologyBuilder.
type Topology struct {
	name       string
	components map[string]*component
	order      []string
	// ChannelCap bounds executor inboxes (backpressure); 0 selects the
	// default of 1024. Each inbox slot holds one message (a batch of up to
	// TransportOptions.BatchSize events and the punctuation closing it),
	// so the in-flight event bound per edge is ChannelCap × BatchSize.
	ChannelCap  int
	workers     int
	faultPlan   *FaultPlan
	rescalePlan *RescalePlan
	autoscale   *AutoscalePolicy
	recovery    RecoveryPolicy
	newSink     func(sink string) SinkFunc
	obs         metrics.ObsConfig
	transport   TransportOptions
	// live is the stats collector of the current (or last) Run,
	// published at Run start so monitors can poll mid-run.
	live atomic.Pointer[metrics.Stats]
	// gate is the reconfiguration barrier of the current (or last) Run
	// (rescale.go), published at Run start so Rescale can reach it.
	gate atomic.Pointer[cutGate]
}

// NewTopology creates an empty topology.
func NewTopology(name string) *Topology {
	return &Topology{name: name, components: map[string]*component{}}
}

// SetWorkers places executors onto n workers (round-robin in
// declaration order, see Placement) — the table the networked runtime
// maps to processes. n ≤ 0 removes the placement.
func (t *Topology) SetWorkers(n int) { t.workers = n }

// SetFaultPlan installs a deterministic failure schedule for the next
// Run (see FaultPlan). nil removes it.
func (t *Topology) SetFaultPlan(p *FaultPlan) { t.faultPlan = p }

// SetRescalePlan installs a scripted schedule of parallelism changes
// for the next Run (see RescalePlan). nil removes it.
func (t *Topology) SetRescalePlan(p *RescalePlan) { t.rescalePlan = p }

// SetAutoscale installs a feedback controller that rescales one bolt
// component from the run's backpressure signals (see AutoscalePolicy).
// nil removes it.
func (t *Topology) SetAutoscale(p *AutoscalePolicy) { t.autoscale = p }

// SetRecovery configures marker-cut checkpointing and executor
// restart (see RecoveryPolicy). The zero policy disables recovery.
func (t *Topology) SetRecovery(p RecoveryPolicy) { t.recovery = p }

// SetObservability configures the observability subsystem for the
// next Run: latency histograms, queue gauges, marker-lag tracking,
// span sampling and pprof executor labels. The zero config (the
// default) disables it all at zero per-event cost.
func (t *Topology) SetObservability(cfg metrics.ObsConfig) { t.obs = cfg }

// SetTransport configures the batched edge transport for the next Run
// (see TransportOptions). The zero value selects the defaults
// (BatchSize 64, FlushInterval 1ms); BatchSize 1 reproduces the
// unbatched one-send-per-event transport exactly.
func (t *Topology) SetTransport(o TransportOptions) { t.transport = o }

// LiveStats returns the stats collector of the running (or most
// recent) Run, or nil before the first Run. It is safe to poll from
// any goroutine while the topology runs; pair with Stats.Snapshot for
// a frozen view.
func (t *Topology) LiveStats() *metrics.Stats { return t.live.Load() }

// ComponentInfo describes one declared component, for tooling and
// fault-plan construction.
type ComponentInfo struct {
	Name        string
	Parallelism int
	// Kind is "spout", "bolt" or "sink".
	Kind string
}

// Components lists the declared components in declaration order.
func (t *Topology) Components() []ComponentInfo {
	out := make([]ComponentInfo, 0, len(t.order))
	for _, name := range t.order {
		c := t.components[name]
		kind := "bolt"
		switch {
		case c.spout != nil:
			kind = "spout"
		case c.isSink:
			kind = "sink"
		}
		out = append(out, ComponentInfo{Name: c.name, Parallelism: c.parallelism, Kind: kind})
	}
	return out
}

// Inputs lists the components feeding the named component, in
// declaration order of its input edges — for tooling and fault-plan
// construction (e.g. picking an edge to corrupt). Unknown names
// return nil.
func (t *Topology) Inputs(name string) []string {
	c, ok := t.components[name]
	if !ok {
		return nil
	}
	froms := make([]string, len(c.inputs))
	for i, in := range c.inputs {
		froms[i] = in.from
	}
	return froms
}

// AddSpout declares a source component with the given parallelism.
// The factory is called once per instance.
func (t *Topology) AddSpout(name string, parallelism int, factory func(instance int) Spout) {
	t.add(&component{name: name, parallelism: parallelism, spout: factory})
}

// BoltDecl configures a bolt's input connections fluently.
type BoltDecl struct {
	t *Topology
	c *component
}

// AddBolt declares a processing component; wire its inputs with the
// returned declaration's grouping methods.
func (t *Topology) AddBolt(name string, parallelism int, factory func(instance int) Bolt) *BoltDecl {
	c := &component{name: name, parallelism: parallelism, bolt: factory}
	t.add(c)
	return &BoltDecl{t: t, c: c}
}

// AddSink declares a single-instance bolt that delivers its input cut
// by cut to its consumer (sink.go), by default into Result.Sinks. Its
// inputs are marker-aligned, so its cuts are the merged markers.
func (t *Topology) AddSink(name string, froms ...string) *BoltDecl {
	c := &component{name: name, parallelism: 1, isSink: true}
	t.add(c)
	d := &BoltDecl{t: t, c: c}
	for _, f := range froms {
		d.GlobalGrouping(f, true)
	}
	return d
}

// Decl re-opens the input declaration of an existing bolt so callers
// (notably the DAG compiler) can wire connections after creating all
// components. It panics if the component does not exist or is a spout.
func (t *Topology) Decl(name string) *BoltDecl {
	c, ok := t.components[name]
	if !ok || c.spout != nil {
		panic(fmt.Sprintf("storm: Decl(%q): no such bolt", name))
	}
	return &BoltDecl{t: t, c: c}
}

func (t *Topology) add(c *component) {
	if c.parallelism < 1 {
		c.parallelism = 1
	}
	if _, dup := t.components[c.name]; dup {
		panic(fmt.Sprintf("storm: duplicate component %q", c.name))
	}
	t.components[c.name] = c
	t.order = append(t.order, c.name)
}

// ShuffleGrouping subscribes the bolt to from with round-robin item
// distribution. aligned selects receiver-side marker alignment.
func (d *BoltDecl) ShuffleGrouping(from string, aligned bool) *BoltDecl {
	return d.input(from, Shuffle, aligned)
}

// FieldsGrouping subscribes the bolt to from with key-hash routing.
func (d *BoltDecl) FieldsGrouping(from string, aligned bool) *BoltDecl {
	return d.input(from, Fields, aligned)
}

// GlobalGrouping subscribes the bolt to from, sending everything to
// instance 0.
func (d *BoltDecl) GlobalGrouping(from string, aligned bool) *BoltDecl {
	return d.input(from, Global, aligned)
}

// BroadcastGrouping subscribes the bolt to from, replicating items to
// every instance.
func (d *BoltDecl) BroadcastGrouping(from string, aligned bool) *BoltDecl {
	return d.input(from, Broadcast, aligned)
}

func (d *BoltDecl) input(from string, g Grouping, aligned bool) *BoltDecl {
	d.c.inputs = append(d.c.inputs, connection{from: from, grouping: g, aligned: aligned})
	return d
}

// validate checks the declared topology: every input exists, no
// cycles, sinks have inputs, alignment is all-or-nothing per bolt.
func (t *Topology) validate() error {
	for _, name := range t.order {
		c := t.components[name]
		if c.spout != nil && len(c.inputs) > 0 {
			return fmt.Errorf("storm: spout %q cannot have inputs", name)
		}
		if c.spout == nil && len(c.inputs) == 0 {
			return fmt.Errorf("storm: bolt %q has no inputs", name)
		}
		aligned := 0
		for _, in := range c.inputs {
			src, ok := t.components[in.from]
			if !ok {
				return fmt.Errorf("storm: component %q subscribes to unknown component %q", name, in.from)
			}
			if src.isSink {
				return fmt.Errorf("storm: component %q subscribes to sink %q", name, in.from)
			}
			if in.aligned {
				aligned++
			}
			if in.colComb != nil {
				if err := in.colComb.validate(name, in.from, in.grouping); err != nil {
					return err
				}
			}
		}
		if aligned != 0 && aligned != len(c.inputs) {
			return fmt.Errorf("storm: bolt %q mixes aligned and raw inputs", name)
		}
		if c.isSink && aligned == 0 {
			return fmt.Errorf("storm: sink %q has raw inputs (a sink delivers aligned cuts)", name)
		}
	}
	// Cycle check by Kahn's algorithm.
	indeg := map[string]int{}
	for _, name := range t.order {
		indeg[name] = len(t.components[name].inputs)
	}
	queue := []string{}
	for n, d := range indeg {
		if d == 0 {
			queue = append(queue, n)
		}
	}
	seen := 0
	downstream := map[string][]string{}
	for _, name := range t.order {
		for _, in := range t.components[name].inputs {
			downstream[in.from] = append(downstream[in.from], name)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		seen++
		for _, d := range downstream[n] {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if seen != len(t.order) {
		return fmt.Errorf("storm: topology %q has a cycle", t.name)
	}
	return nil
}
