package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"time"

	"datatrace/internal/codec"
	"datatrace/internal/compile"
	"datatrace/internal/core"
	"datatrace/internal/metrics"
	"datatrace/internal/ml"
	"datatrace/internal/queries"
	"datatrace/internal/smarthome"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// The layer probes: each times calls into one module's exported
// functions, from outside, with the operator shapes and edge kinds the
// workloads use. They are the same whatever workload the run measures,
// so a traced run of any workload reports all of them. A probe loops for
// at least probeLoop and reports the median of probeReps such loops
// (the run's time budget keeps both small; per-layer metrics have no
// bound). Counts are exact.
const (
	probeLoop = 40 * time.Millisecond
	probeReps = 3
)

// probeSet collects probe results; the first failure is kept and
// reported by runProbes. A -short run loops each probe once, briefly.
type probeSet struct {
	out  map[string]metric
	sc   *spanLog
	err  error
	loop time.Duration
	reps int
}

func (p *probeSet) put(name, unit string, v float64) { p.out[name] = metric{Value: v, Unit: unit} }

func (p *probeSet) fail(name string, err error) {
	if p.err == nil && err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
	}
}

// perOp times body, which performs ops operations per call, and returns
// the median nanoseconds per operation.
func (p *probeSet) perOp(ops int, body func()) float64 {
	reps := make([]float64, p.reps)
	for r := range reps {
		calls := 0
		start := time.Now()
		for time.Since(start) < p.loop {
			body()
			calls++
		}
		reps[r] = float64(time.Since(start).Nanoseconds()) / float64(calls*ops)
	}
	return median(reps)
}

// timed runs one per-operation probe inside its span.
func (p *probeSet) timed(name, unit string, perUnit float64, ops int, body func()) {
	done := p.sc.begin("probe." + name)
	p.put(name, unit, p.perOp(ops, body)/perUnit)
	done()
}

// sunk keeps probe results alive so the compiler cannot drop the calls.
var sunk int

// opNamed returns the operator of the DAG vertex with that name.
func opNamed(d *core.DAG, name string) (core.Operator, error) {
	for _, n := range d.Nodes() {
		if n.Kind == core.OpNode && n.Op.Name() == name {
			return n.Op, nil
		}
	}
	return nil, fmt.Errorf("DAG has no operator %q", name)
}

// runProbes runs every layer probe. It needs no workload: it builds the
// small environments it probes from cfg.seed.
func runProbes(cfg runConfig, sc *spanLog) (map[string]metric, error) {
	p := &probeSet{out: map[string]metric{}, sc: sc, loop: probeLoop, reps: probeReps}
	if cfg.short {
		p.loop, p.reps = time.Millisecond, 1
	}

	ycfg := workload.DefaultYahooConfig()
	ycfg.EventsPerSecond, ycfg.Seconds, ycfg.Seed = 20000, 5, cfg.seed
	env, err := queries.NewEnv(ycfg, 0)
	if err != nil {
		return nil, err
	}
	input, err := materialiseYahoo(env.Gen, sourcePar)
	if err != nil {
		return nil, err
	}
	hcfg := workload.DefaultSmartHomeConfig()
	hcfg.Seconds, hcfg.Seed = 600, cfg.seed
	henv, err := smarthome.NewEnv(hcfg, nil)
	if err != nil {
		return nil, err
	}

	p.workloadProbes(env, henv)
	p.streamProbes()
	p.coreProbes(env, henv, input)
	p.compileProbes(env, input)
	p.stormProbes(input)
	p.codecProbes(input)
	p.netProbes(cfg)
	p.miscProbes(env, henv)
	return p.out, p.err
}

// workloadProbes time the generators with no runtime behind them: the
// cost the replay sources take out of the timed path.
func (p *probeSet) workloadProbes(env *queries.Env, henv *smarthome.Env) {
	drain := func(its []workload.Iterator) int {
		n := 0
		for _, it := range its {
			for {
				if _, ok := it(); !ok {
					break
				}
				n++
			}
		}
		return n
	}
	events := drain(env.Gen.Partitions(sourcePar))
	p.timed("workload.yahoo_iter.ns_per_event", "ns", 1, events, func() { sunk += drain(env.Gen.Partitions(sourcePar)) })

	kind := stream.ColKindFor[stream.Unit, workload.YahooEvent]()
	drainCols := func() int {
		n := 0
		batch := kind.Get().(*stream.Cols[stream.Unit, workload.YahooEvent])
		for _, src := range env.Gen.ColPartitions(sourcePar, false) {
			for {
				if k := src.NextCols(batch, 64); k > 0 {
					n += k
					batch.Keys, batch.Vals = batch.Keys[:0], batch.Vals[:0]
					continue
				}
				if _, ok := src.Next(); !ok {
					break
				}
			}
		}
		batch.Release()
		return n
	}
	p.timed("workload.yahoo_cols.ns_per_row", "ns", 1, drainCols(), func() { sunk += drainCols() })

	homeEvents := drain(henv.Gen.PartitionsByBuilding(sourcePar))
	p.timed("workload.smarthome_iter.ns_per_event", "ns", 1, homeEvents, func() { sunk += drain(henv.Gen.PartitionsByBuilding(sourcePar)) })
}

// streamProbes time the stream package's routing hash, marker
// alignment and column-batch arena.
func (p *probeSet) streamProbes() {
	const keys = 4096
	p.timed("stream.hash.ns_per_key", "ns", 1, keys, func() {
		for k := int64(0); k < keys; k++ {
			sunk += stream.DefaultHash(k)
		}
	})

	const block = 2000 // items between two markers, as in q4-recovery
	item := stream.Item(int64(7), int64(1))
	emitted := 0
	p.timed("stream.merge.ns_per_event", "ns", 1, 10*(block+2), func() {
		m := stream.NewMergeState(2)
		emit := func(stream.Event) { emitted++ }
		for seq := int64(0); seq < 10; seq++ {
			for i := 0; i < block/2; i++ {
				m.Next(0, item, emit)
				m.Next(1, item, emit)
			}
			mark := stream.Mark(periodMarker(seq))
			m.Next(0, mark, emit)
			m.Next(1, mark, emit)
		}
	})
	sunk += emitted

	kind := stream.ColKindFor[int64, stream.Unit]()
	p.timed("stream.cols_cycle.ns_per_row", "ns", 1, 64, func() {
		c := kind.Get().(*stream.Cols[int64, stream.Unit])
		for k := int64(0); k < 64; k++ {
			c.Append(k, stream.Unit{})
		}
		sunk += c.Len()
		c.Release()
	})
}

// countInstance returns a fresh instance of Query IV's Count(10 sec) in
// the form the compiled topology runs it (consuming the combiners'
// partial aggregates), together with a 64-row batch of its input kind
// that touches every one of the 100 campaigns over two batches.
func countInstance(env *queries.Env) (core.BatchInstance, []stream.Columns, error) {
	op, err := opNamed(queries.QueryIVDAG(env, 1), "Count(10 sec)")
	if err != nil {
		return nil, nil, err
	}
	if c, ok := op.(core.Combinable); ok {
		if _, _, sound := c.CombinerMonoid(); sound {
			op = c.PreCombined()
		}
	}
	inst, ok := op.New().(core.BatchInstance)
	if !ok || inst.InColKind() == nil {
		return nil, nil, fmt.Errorf("Count(10 sec) has no columnar input")
	}
	batches := make([]stream.Columns, 2)
	for b := range batches {
		batches[b] = inst.InColKind().Get()
		for i := 0; i < 64; i++ {
			key := int64((b*64 + i) % 100)
			var val any = stream.Unit{}
			if inst.InColKind().ValType().Kind() == reflect.Int64 {
				val = int64(1)
			}
			batches[b].AppendEvent(stream.Item(key, val))
		}
	}
	return inst, batches, nil
}

// coreProbes time the operator templates with the queries' own shapes.
func (p *probeSet) coreProbes(env *queries.Env, henv *smarthome.Env, input *yahooInput) {
	dag := queries.QueryIVDAG(env, 1)
	filterOp, err1 := opNamed(dag, "Filter")
	projectOp, err2 := opNamed(dag, "Project")
	if err1 != nil || err2 != nil {
		p.fail("core.stateless", fmt.Errorf("%v %v", err1, err2))
		return
	}
	filter, fok := filterOp.New().(core.BatchInstance)
	project, pok := projectOp.New().(core.BatchInstance)
	if !fok || !pok {
		p.fail("core.stateless", fmt.Errorf("Filter or Project is not a batch instance"))
		return
	}
	in := filter.InColKind().Get().(*stream.Cols[stream.Unit, workload.YahooEvent])
	for _, ev := range input.parts[0][:64] {
		in.Append(stream.Unit{}, ev)
	}
	p.timed("core.stateless_cols.ns_per_row", "ns", 1, 64, func() {
		mid := filter.OutColKind().Get()
		filter.ProcessCols(in, mid)
		out := project.OutColKind().Get()
		project.ProcessCols(mid, out)
		sunk += out.Len()
		mid.Release()
		out.Release()
	})
	boxed := make([]stream.Event, in.Len())
	for i := range boxed {
		boxed[i] = in.EventAt(i)
	}
	count := func(stream.Event) { sunk++ }
	toProject := func(e stream.Event) { project.Next(e, count) }
	p.timed("core.stateless_boxed.ns_per_event", "ns", 1, len(boxed), func() {
		for _, e := range boxed {
			filter.Next(e, toProject)
		}
	})

	cnt, batches, err := countInstance(env)
	if err != nil {
		p.fail("core.keyed_unordered", err)
		return
	}
	p.timed("core.keyed_unordered_cols.ns_per_row", "ns", 1, 64, func() { cnt.ProcessCols(batches[0], nil) })
	// Marker cost alone: every period folds both batches (all 100 keys)
	// and only the marker call is timed.
	done := p.sc.begin("probe.core.keyed_unordered.us_per_marker")
	reps := make([]float64, p.reps)
	seq := int64(0)
	for r := range reps {
		var inMarker time.Duration
		markers := 0
		for start := time.Now(); time.Since(start) < p.loop; {
			cnt.ProcessCols(batches[0], nil)
			cnt.ProcessCols(batches[1], nil)
			t0 := time.Now()
			cnt.Next(stream.Mark(periodMarker(seq)), count)
			inMarker += time.Since(t0)
			seq++
			markers++
		}
		reps[r] = float64(inMarker.Microseconds()) / float64(markers)
	}
	p.put("core.keyed_unordered.us_per_marker", "us", median(reps))
	done()

	// Snapshot and restore of that state (100 keys, full windows).
	p.snapshotProbes("core.snapshot", "core.restore", cnt, func() core.Instance {
		fresh, _, _ := countInstance(env)
		return fresh
	})

	// Query VI's Features state: one entry per user.
	featOp, err := opNamed(queries.QueryVIDAG(env, 1), "Features")
	if err != nil {
		p.fail("core.snapshot_features", err)
		return
	}
	feat := featOp.New()
	for _, ev := range input.parts[0] {
		feat.Next(stream.Item(ev.UserID, queries.Located{Ev: ev, Location: env.LocationOf(ev.UserID)}), count)
	}
	feat.Next(stream.Mark(periodMarker(0)), count)
	p.snapshotProbes("core.snapshot_features", "core.restore_features", feat, featOp.New)

	p.orderedProbes(henv)
}

// snapshotProbes time SnapshotInstance on inst and RestoreInstance of the
// result into a fresh instance.
func (p *probeSet) snapshotProbes(snapName, restoreName string, inst core.Instance, fresh func() core.Instance) {
	snap, err := core.SnapshotInstance(inst)
	if err != nil || snap == nil {
		p.fail(snapName, fmt.Errorf("no snapshot: %v", err))
		return
	}
	p.put(snapName+".bytes_per_cut", "B", float64(len(snap)))
	p.timed(snapName+".us_per_cut", "us", 1000, 1, func() {
		b, err := core.SnapshotInstance(inst)
		p.fail(snapName, err)
		sunk += len(b)
	})
	target := fresh()
	p.timed(restoreName+".us_per_cut", "us", 1000, 1, func() { p.fail(restoreName, core.RestoreInstance(target, snap)) })
}

// orderedProbes time the O(K,V) templates of the Smart Homes pipeline:
// SORT (per-key sort at the marker) and the KeyedOrdered interpolation.
func (p *probeSet) orderedProbes(henv *smarthome.Env) {
	dag := smarthome.PipelineDAG(henv, 1)
	sortOp, err1 := opNamed(dag, "SORT-plug")
	liOp, err2 := opNamed(dag, "LI")
	if err1 != nil || err2 != nil {
		p.fail("core.sort", fmt.Errorf("%v %v", err1, err2))
		return
	}
	// One marker period of readings for every plug, shuffled as the hub
	// delivers them, and the same readings in per-plug time order.
	var sorted []stream.Event
	for _, k := range henv.Gen.Plugs() {
		for ts := int64(0); ts < 100; ts += 2 {
			sorted = append(sorted, stream.Item(k, smarthome.VT{Value: float64(ts), TS: ts}))
		}
	}
	shuffled := append([]stream.Event(nil), sorted...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	mark := stream.Mark(stream.Marker{Seq: 0, Timestamp: 100})
	count := func(stream.Event) { sunk++ }
	p.timed("core.sort.ns_per_event", "ns", 1, len(shuffled), func() {
		inst := sortOp.New()
		for _, e := range shuffled {
			inst.Next(e, count)
		}
		inst.Next(mark, count)
	})
	p.timed("core.keyed_ordered.ns_per_event", "ns", 1, len(sorted), func() {
		inst := liOp.New()
		for _, e := range sorted {
			inst.Next(e, count)
		}
		inst.Next(mark, count)
	})
}

// compileProbes time Query IV's compilation and report the plan's
// decisions as sentinels: if one of the counts drops, a q4-* throughput
// drop is explained before it is investigated.
func (p *probeSet) compileProbes(env *queries.Env, input *yahooInput) {
	w := &yahooInstance{sp: specs[0], env: env, input: input}
	var err error
	if w.def, err = queries.ByName("IV"); err != nil {
		p.fail("compile.q4", err)
		return
	}
	var plan *compile.Plan
	p.timed("compile.q4.ms", "ms", 1e6, 1, func() {
		_, pl, _, err := w.build(buildOpts{markers: 1})
		p.fail("compile.q4", err)
		plan = pl
	})
	if plan == nil {
		return
	}
	fused := 0
	for _, b := range plan.Bolts {
		if len(b.Stages) > 1 {
			fused++
		}
	}
	p.put("compile.q4.fused_bolts", "count", float64(fused))
	p.put("compile.q4.columnar_edges", "count", float64(len(plan.ColumnarEdges)))
	p.put("compile.q4.combined_edges", "count", float64(len(plan.CombinedEdges)))
}

// rowCounter is the consumer of the columnar hop probe: it accepts
// batches of one kind and counts rows.
type rowCounter struct {
	kind *stream.ColKind
	rows int
}

func (c *rowCounter) Next(e stream.Event, emit func(stream.Event)) {
	if e.IsMarker {
		emit(e)
		return
	}
	c.rows++
}
func (c *rowCounter) InColKind() *stream.ColKind  { return c.kind }
func (c *rowCounter) OutColKind() *stream.ColKind { return nil }
func (c *rowCounter) ProcessCols(in, _ stream.Columns) {
	c.rows += in.Len()
}

// cutCounter is the bolt of the recovery probe: it counts items, forwards
// markers and can snapshot its count.
type cutCounter struct{ n int64 }

func (c *cutCounter) Next(e stream.Event, emit func(stream.Event)) {
	if e.IsMarker {
		emit(e)
		return
	}
	c.n++
}
func (c *cutCounter) Snapshot() ([]byte, error) {
	return []byte(fmt.Sprint(c.n)), nil
}
func (c *cutCounter) Restore(b []byte) error {
	_, err := fmt.Sscan(string(b), &c.n)
	return err
}

// boxedStream is items keyed 0..99 with a marker after every block.
func boxedStream(items, block int) []stream.Event {
	out := make([]stream.Event, 0, items+items/block)
	for i := 0; i < items; i++ {
		out = append(out, stream.Item(int64(i%100), int64(1)))
		if (i+1)%block == 0 {
			out = append(out, stream.Mark(periodMarker(int64(i/block))))
		}
	}
	return out
}

// forwardMarkers is a bolt that consumes items and forwards markers, so
// that a probe times the hop into it and nothing after.
func forwardMarkers() storm.Bolt {
	return storm.BoltFunc(func(e stream.Event, emit func(stream.Event)) {
		if e.IsMarker {
			emit(e)
		}
	})
}

// stormProbes run small topologies through the public API and report
// the wall time of one hop per event.
func (p *probeSet) stormProbes(input *yahooInput) {
	hop := func(name string, events []stream.Event, configure func(*storm.Topology)) {
		p.timed(name, "ns", 1, len(events), func() {
			top := storm.NewTopology(name)
			top.AddSpout("src", 1, func(int) storm.Spout { return storm.SliceSpout(events) })
			configure(top)
			_, err := top.Run()
			p.fail(name, err)
		})
	}
	big, small := boxedStream(200000, 2000), boxedStream(40000, 2000)
	hop("storm.hop_b64.ns_per_event", big, func(top *storm.Topology) { top.AddSink(sinkName, "src") })
	hop("storm.hop_b1.ns_per_event", small, func(top *storm.Topology) {
		top.SetTransport(storm.TransportOptions{BatchSize: 1})
		top.AddSink(sinkName, "src")
	})
	hop("storm.fields_1to2.ns_per_event", big, func(top *storm.Topology) {
		top.AddBolt("keyed", 2, func(int) storm.Bolt { return forwardMarkers() }).FieldsGrouping("src", true)
		top.AddSink(sinkName, "keyed")
	})

	const colMarkers = 20
	kind := stream.ColKindFor[stream.Unit, workload.YahooEvent]()
	p.timed("storm.hop_cols.ns_per_row", "ns", 1, colMarkers*input.perMarker, func() {
		top := storm.NewTopology("hop_cols")
		top.AddSpout("src", 1, func(int) storm.Spout { return newYahooReplay(input, 0, colMarkers, nil, nil) })
		top.AddBolt("rows", 1, func(int) storm.Bolt { return &rowCounter{kind: kind} }).ShuffleGrouping("src", true).ColumnarWith(kind)
		top.AddSink(sinkName, "rows")
		_, err := top.Run()
		p.fail("storm.hop_cols", err)
	})

	// Recovery's cost per cut: the same run with recovery on and off.
	const cuts = 1000
	stream100 := boxedStream(cuts*100, 100)
	run := func(recovery bool) time.Duration {
		top := storm.NewTopology("recovery")
		top.AddSpout("src", 1, func(int) storm.Spout { return storm.SliceSpout(stream100) })
		top.AddBolt("count", 1, func(int) storm.Bolt { return &cutCounter{} }).ShuffleGrouping("src", true)
		top.AddSink(sinkName, "count")
		top.SetRecovery(storm.RecoveryPolicy{Enabled: recovery})
		res, err := top.Run()
		p.fail("storm.recovery", err)
		if res == nil {
			return 0
		}
		return res.Wall
	}
	done := p.sc.begin("probe.storm.recovery.us_per_cut")
	diffs := make([]float64, p.reps)
	for i := range diffs {
		off, on := run(false), run(true)
		diffs[i] = float64((on - off).Microseconds()) / cuts
	}
	p.put("storm.recovery.us_per_cut", "us", median(diffs))
	done()
}

// codecProbes time the frame codec over an in-memory buffer, with the
// kinds Query IV puts on its edges: boxed (campaign, count) events in
// 64-message frames, and one 64-row batch of source rows per frame.
func (p *probeSet) codecProbes(input *yahooInput) {
	const frames = 64
	boxed := codec.Frame{Dest: 1}
	for i := 0; i < 64; i++ {
		boxed.Msgs = append(boxed.Msgs, codec.WireMessage{Ch: 1, Ev: codec.FromEvent(stream.Item(int64(i), int64(i*3)))})
	}
	kind := stream.ColKindFor[stream.Unit, workload.YahooEvent]()
	cols := codec.Frame{Dest: 1, Msgs: []codec.WireMessage{{Ch: 1, Cols: &codec.WireCols{
		Kind: kind.Name(), Keys: unitKeys[:64], Vals: input.parts[0][:64],
	}}}}

	probe := func(prefix, per string, f *codec.Frame, unitsPerFrame int) {
		var buf bytes.Buffer
		enc := codec.NewFrameEncoder(&buf)
		encode := func() {
			buf.Reset()
			for i := 0; i < frames; i++ {
				p.fail(prefix, enc.Encode(f))
			}
		}
		encode() // the first frames carry gob's type descriptors
		p.timed(prefix+".encode_ns_per_"+per, "ns", 1, frames*unitsPerFrame, encode)
		p.put(prefix+".bytes_per_"+per, "B", float64(buf.Len())/float64(frames*unitsPerFrame))

		// Decoding needs the descriptors, so every decode starts from a
		// stream that has them: one encoder's first frames.
		var whole bytes.Buffer
		first := codec.NewFrameEncoder(&whole)
		for i := 0; i < frames; i++ {
			p.fail(prefix, first.Encode(f))
		}
		p.timed(prefix+".decode_ns_per_"+per, "ns", 1, frames*unitsPerFrame, func() {
			dec := codec.NewFrameDecoder(bytes.NewReader(whole.Bytes()))
			var got codec.Frame
			for i := 0; i < frames; i++ {
				p.fail(prefix, dec.Decode(&got))
			}
			sunk += len(got.Msgs)
		})
	}
	probe("codec.frame_boxed", "event", &boxed, 64)
	probe("codec.frame_cols", "row", &cols, 64)
}

// netProbes measure the networked runtime's fixed and steady costs with
// two small q4-tcp runs, and the kernel's loopback floor with raw
// socket writes of frame-sized buffers.
func (p *probeSet) netProbes(cfg runConfig) {
	tcp, _ := specByName("q4-tcp")
	ncfg := runConfig{sp: tcp, seed: cfg.seed, outDir: cfg.outDir}
	done := p.sc.begin("probe.net.startup_s")
	one, err := runNetworked(ncfg, 1, false)
	done()
	if err != nil {
		p.fail("net.startup_s", err)
		return
	}
	steadyMarkers := 100
	if cfg.short {
		steadyMarkers = 5
	}
	done = p.sc.begin("probe.net.steady_eps")
	many, err := runNetworked(ncfg, steadyMarkers, false)
	done()
	if err != nil {
		p.fail("net.steady_eps", err)
		return
	}
	p.put("net.startup_s", "s", one.Wall.Seconds())
	steady := many.Wall - one.Wall
	if steady <= 0 {
		steady = many.Wall
	}
	p.put("net.steady_eps", "items/s", float64(steadyMarkers*tcp.ItemsPerMarker)/steady.Seconds())
	p.put("net.worker_restarts", "count", float64(many.WorkerRestarts))
	p.put("net.replayed_cuts", "count", float64(many.ReplayedCuts))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.fail("net.loopback", err)
		return
	}
	defer ln.Close()
	const writes, size = 2048, 4096
	buf := make([]byte, size)
	p.timed("net.loopback.ns_per_kib", "ns", 1, writes*size/1024, func() {
		read := make(chan error, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				read <- err
				return
			}
			_, err = io.Copy(io.Discard, conn)
			conn.Close()
			read <- err
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			p.fail("net.loopback", err)
			return
		}
		for i := 0; i < writes; i++ {
			if _, err := conn.Write(buf); err != nil {
				p.fail("net.loopback", err)
				break
			}
		}
		conn.Close()
		p.fail("net.loopback", <-read)
	})
}

// miscProbes time the leaf calls the operators and the observability
// subsystem make per event.
func (p *probeSet) miscProbes(env *queries.Env, henv *smarthome.Env) {
	h := metrics.NewHistogram()
	p.timed("metrics.hist_record.ns", "ns", 1, 1024, func() {
		for i := int64(0); i < 1024; i++ {
			h.Record(i * 37)
		}
	})

	// One location's user vectors at q6-state's size.
	q6, _ := specByName("q6-state")
	r := rand.New(rand.NewSource(1))
	points := make([][]float64, q6.Users/10)
	for i := range points {
		points[i] = []float64{float64(r.Intn(50)), float64(r.Intn(50)), float64(r.Intn(50))}
	}
	p.timed("ml.kmeans.us_per_call", "us", 1000, 1, func() {
		res, err := ml.KMeans(points, queries.ClusterK, 50, 7)
		p.fail("ml.kmeans", err)
		if res != nil {
			sunk += res.Iterations
		}
	})

	x := []float64{3600, 500, 30000}
	var acc float64
	p.timed("ml.reptree_predict.ns", "ns", 1, 1024, func() {
		for i := 0; i < 1024; i++ {
			x[0] = float64(i * 80)
			acc += henv.Tree.Predict(x)
		}
	})
	sunk += int(acc)

	ads := int64(env.Gen.Ads())
	p.timed("db.get.ns", "ns", 1, 1024, func() {
		for i := int64(0); i < 1024; i++ {
			if _, ok := env.Ads.GetIntVal(i%ads, 1); ok {
				sunk++
			}
		}
	})
}
