package storm

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// message is one unit of executor input, tagged with the receiver-side
// input channel it arrived on: a piece of a block — a column batch of
// items — optionally closed by the marker that ends the block or by the
// channel's end-of-stream notice. Every inbox slot, channel send and
// network frame carries exactly one message. At rest — in merger
// channels, replay lists and the per-block output buffer — the executor
// holds the parts of messages, each a batch or (cols nil) a marker.
type message struct {
	// ch is the input channel, 32 bits as on the wire: it packs with punct.
	ch int32
	// punct is what follows the batch, if anything; mark is the marker
	// when punct is markPunct.
	punct punct
	// cols, when set, is the batch of items (markers never enter
	// batches; see cols.go). The receiver owns the batch and releases it
	// after consumption.
	cols stream.Columns
	mark stream.Marker
	// sent is the send wall time (UnixNano) when observability is
	// enabled, 0 otherwise; receivers derive emit-to-receive inbox
	// latency from it. A batch carries the stamp of its first row.
	sent int64
}

// punct is the punctuation a message closes with: none, a marker, or
// end-of-stream.
type punct uint8

const (
	noPunct punct = iota
	markPunct
	eosPunct
)

// weight is the message's size in events, the unit of the inbox-depth
// gauges and of the fault hooks: the batch's rows, plus one for a
// punctuation; a marker part counts one.
func (m *message) weight() int {
	switch {
	case m.cols == nil:
		return 1
	case m.punct != noPunct:
		return m.cols.Len() + 1
	}
	return m.cols.Len()
}

const defaultChannelCap = 1024

// queueObsEvery is the sampling period of the queue-side observations
// (inbox depth gauge and emit-to-receive latency): every Nth received
// message pays the two gauge updates, keeping the backpressure signal
// representative while the per-message hot-path cost stays at the
// per-event execute histogram alone.
const queueObsEvery = 8

// Result is the outcome of running a topology to completion.
type Result struct {
	// Sinks maps each collected sink's name to its output trace, built
	// by the collecting consumer (sink.go) from the cuts the sink
	// delivered; a sink with a consumer of its own has no entry.
	Sinks map[string][]stream.Event
	// Stats holds per-instance execution metrics for throughput and
	// scaling analysis.
	Stats *metrics.Stats
	// Wall is the real elapsed time of the run.
	Wall time.Duration
}

// subscription is a resolved outgoing edge of a component.
type subscription struct {
	to       *runtimeComponent
	grouping Grouping
	// chBase is the receiver-side channel index of the sender's
	// instance 0 for this edge; instance k uses chBase + k.
	chBase int
	// colComb, when set, pre-aggregates this edge's traffic in the
	// sender's combining buffers (see combiner.go).
	colComb *ColCombinerSpec
}

// runtimeComponent is a component with resolved wiring.
type runtimeComponent struct {
	*component
	// inboxes[i] is instance i's input channel; nil for a spout (no
	// input) and for an instance on another worker process (its traffic
	// travels the networked transport). The slice always has parallelism
	// entries so routing arithmetic is placement-blind.
	inboxes []chan message
	// depths[i] is inbox i's depth in *events* (a channel slot holds a
	// message, a whole batch of rows): senders add a message's weight
	// at delivery, the receiver subtracts it at dequeue. Maintained only
	// when observability is enabled; feeds the sampled queue-depth gauge.
	depths    []atomic.Int64
	subs      []subscription
	nChannels int // receiver-side input channel count
	aligned   bool
	transport TransportOptions // as set; newEmitter normalizes, once
	// workerOf[i] is the worker hosting instance i.
	workerOf []int
	// gids[i] is instance i's global executor index (declaration
	// order) — the frame destination id of the networked transport.
	gids []int
	// net is the hosting worker's networked-transport state; nil in
	// the single-process runtime.
	net *workerNet
	// sink is a sink's consumer (sink.go).
	sink SinkFunc
}

// localInst reports whether instance i runs in this process.
func (rc *runtimeComponent) localInst(i int) bool {
	return rc.net == nil || rc.workerOf[i] == rc.net.self
}

// Placed is one executor's process placement.
type Placed struct {
	Component string
	Instance  int
	// Worker is the hosting worker (round-robin over executors in
	// declaration order, the placement SetWorkers and the networked
	// runtime share).
	Worker int
	// GID is the executor's global index in declaration order — the
	// destination id carried by networked transport frames.
	GID int
}

// Placement returns the executor placement for the given worker
// count: executors enumerated in declaration order, instance-major,
// each assigned to worker GID mod workers. Every process computes the
// identical table, which is what lets workers resolve frame
// destinations without a placement exchange.
func (t *Topology) Placement(workers int) []Placed {
	workers = max(workers, 1)
	var out []Placed
	gi := 0
	for _, name := range t.order {
		c := t.components[name]
		for i := 0; i < c.parallelism; i++ {
			out = append(out, Placed{Component: name, Instance: i, Worker: gi % workers, GID: gi})
			gi++
		}
	}
	return out
}

// Run executes the topology to completion: every spout is drained,
// end-of-stream propagates through the DAG, and all executors exit.
// It returns the sinks' collected streams and execution statistics.
func (t *Topology) Run() (*Result, error) {
	rts, err := t.resolve(nil)
	if err != nil {
		return nil, err
	}
	return t.execute(rts)
}

// resolve validates the topology and builds the runtime wiring. w is
// the networked worker context, nil in the single-process runtime:
// with w set, only instances placed on worker w.self get inboxes (and
// are registered with w's frame dispatcher); remote instances appear
// in the wiring as frame destinations.
func (t *Topology) resolve(w *workerNet) (map[string]*runtimeComponent, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	if err := t.transport.Validate(); err != nil {
		return nil, err
	}
	if t.faultPlan != nil {
		if err := t.faultPlan.validate(t); err != nil {
			return nil, err
		}
	}
	if t.rescalePlan != nil {
		if w != nil {
			return nil, fmt.Errorf("storm: rescale plans run in the coordinator process (use NetOptions.Rescale for networked runs)")
		}
		if err := t.rescalePlan.validate(t); err != nil {
			return nil, err
		}
	}
	if t.autoscale != nil {
		if w != nil {
			return nil, fmt.Errorf("storm: autoscaling runs in the coordinator process, not inside a networked worker")
		}
		if err := t.autoscale.validate(t); err != nil {
			return nil, err
		}
	}
	workers := t.workers
	if w != nil {
		workers = w.workers
	}

	rts := make(map[string]*runtimeComponent, len(t.order))
	for _, name := range t.order {
		rts[name] = &runtimeComponent{component: t.components[name], transport: t.transport, net: w}
	}
	for _, name := range t.order {
		rc := rts[name]
		for _, in := range rc.inputs {
			src := rts[in.from]
			src.subs = append(src.subs, subscription{to: rc, grouping: in.grouping, colComb: in.colComb})
			rc.aligned = rc.aligned || in.aligned
		}
	}
	t.layout(rts, workers)
	for _, name := range t.order {
		rc := rts[name]
		rc.inboxes = make([]chan message, rc.parallelism)
		rc.depths = make([]atomic.Int64, rc.parallelism)
		for i := range rc.inboxes {
			if rc.spout != nil || !rc.localInst(i) {
				continue
			}
			rc.inboxes[i] = make(chan message, t.channelCap())
			if w != nil {
				w.register(rc.gids[i], rc.inboxes[i], &rc.depths[i])
			}
		}
	}
	return rts, nil
}

// channelCap is the inbox capacity in messages.
func (t *Topology) channelCap() int { return positiveOr(t.ChannelCap, defaultChannelCap) }

// layout derives everything in the wiring that depends on the
// components' parallelism: each executor's global index and worker
// (Placement's rule), each consumer's input channel count and each
// edge's base channel. resolve calls it once; a rescale calls it again
// after changing the target's parallelism, which shifts its consumers'
// widths and every edge declared after one of its own.
func (t *Topology) layout(rts map[string]*runtimeComponent, workers int) {
	for _, rc := range rts {
		rc.workerOf = make([]int, rc.parallelism)
		rc.gids = make([]int, rc.parallelism)
	}
	for _, p := range t.Placement(workers) {
		rc := rts[p.Component]
		rc.gids[p.Instance], rc.workerOf[p.Instance] = p.GID, p.Worker
	}
	// Subscriptions were appended in this same walk order, so a cursor
	// per producer finds each edge's entry.
	cursor := map[*runtimeComponent]int{}
	for _, name := range t.order {
		rc := rts[name]
		offset := 0
		for _, in := range rc.inputs {
			src := rts[in.from]
			src.subs[cursor[src]].chBase = offset
			cursor[src]++
			offset += src.parallelism
		}
		rc.nChannels = offset
	}
}

// execute starts one executor goroutine per locally placed instance
// and waits for the DAG to drain.
func (t *Topology) execute(rts map[string]*runtimeComponent) (*Result, error) {
	stats := metrics.NewStats()
	stats.SetObservability(t.obs)
	t.live.Store(stats)
	var wg sync.WaitGroup
	var failMu sync.Mutex
	var failures []error

	cg := newCutGate(t, rts)
	t.gate.Store(cg)
	if t.rescalePlan != nil && !cg.supported {
		return nil, fmt.Errorf("storm: rescale plan: %s", cg.reason)
	}
	if t.autoscale != nil && !cg.supported {
		return nil, fmt.Errorf("storm: autoscale: %s", cg.reason)
	}

	// launch starts one executor goroutine. Rescales reuse it to spawn
	// the target's new instance set mid-run (g carries the seed).
	launch := func(rc *runtimeComponent, i int, g *execGate) {
		wg.Add(1)
		is := stats.Instance(rc.name, i)
		ef := t.faultPlan.faultsFor(rc.name, i)
		go func() {
			defer wg.Done()
			run := func() error {
				if rc.spout != nil {
					return runSpout(rc, i, is, ef, t.recovery, cg, g)
				}
				return runBolt(rc, i, is, ef, t.recovery, cg, g)
			}
			var err error
			if t.obs.Enabled {
				// Tag the executor goroutine so CPU profiles break
				// down by component/instance.
				labels := pprof.Labels("storm_component", rc.name, "storm_instance", strconv.Itoa(i))
				pprof.Do(context.Background(), labels, func(context.Context) { err = run() })
			} else {
				err = run()
			}
			if err != nil {
				failMu.Lock()
				failures = append(failures, err)
				failMu.Unlock()
			}
		}()
	}
	cg.spawn = func(rc *runtimeComponent, i int, g *execGate) { launch(rc, i, g) }

	collected := map[string]*collector{}
	for _, name := range t.order {
		if rc := rts[name]; rc.isSink && rc.localInst(0) {
			if t.newSink != nil {
				rc.sink = t.newSink(name)
			}
			if rc.sink == nil {
				col := &collector{}
				collected[name], rc.sink = col, col.add
			}
		}
	}
	cg.enqueuePlan(t.rescalePlan)

	// Two phases: every executor's barrier entry is registered before
	// any goroutine starts, so an early barrier cannot fire while the
	// membership is still growing.
	type pending struct {
		rc *runtimeComponent
		i  int
		g  *execGate
	}
	var toStart []pending
	for _, name := range t.order {
		rc := rts[name]
		for i := 0; i < rc.parallelism; i++ {
			if !rc.localInst(i) {
				continue
			}
			var g *execGate
			if cg.supported {
				g = cg.register(rc, i)
			}
			toStart = append(toStart, pending{rc, i, g})
		}
	}
	start := time.Now()
	for _, p := range toStart {
		launch(p.rc, p.i, p.g)
	}

	var autoDone chan struct{}
	var autoStop chan struct{}
	if t.autoscale != nil {
		autoStop, autoDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(autoDone)
			autoscaleLoop(t, cg, t.autoscale, autoStop)
		}()
	}
	wg.Wait()
	cg.shutdown()
	if autoDone != nil {
		close(autoStop)
		<-autoDone
	}
	failures = append(failures, cg.takePlanErrs()...)
	wall := time.Since(start)
	stats.Normalize(wall)
	res := &Result{Sinks: map[string][]stream.Event{}, Stats: stats, Wall: wall}
	for name, col := range collected {
		res.Sinks[name] = col.out
	}
	if len(failures) > 0 {
		msgs := make([]string, len(failures))
		for i, f := range failures {
			msgs[i] = f.Error()
		}
		return res, fmt.Errorf("storm: topology failed: %s", strings.Join(msgs, "; "))
	}
	return res, nil
}

// emitter routes one sender instance's output to subscribers.
type emitter struct {
	rc       *runtimeComponent
	instance int
	// rrNext is the per-subscription round-robin cursor.
	rrNext []int
	stats  *metrics.InstanceStats
	// faults, when set, injects send failures on chosen edges.
	faults *executorFaults
	// stamp turns on send-time stamping of outgoing messages (queue
	// latency observability); derived from the executor's stats record.
	stamp bool
	// now is the executor's current message timestamp (UnixNano), set
	// once per processed input when stamp is on and reused for every
	// send — emitted messages carry it instead of paying time.Now per
	// emission. It under-reports the send time by at most the message's
	// own processing latency, which the exec histogram bounds. A batch
	// carries the stamp of its first row, so the receiver's queue latency
	// includes buffered residency.
	now int64
	// row is the one-row universal batch a boxed emission is routed as.
	row *stream.Cols[any, any]

	// Batched transport state (see transport.go). bufs holds one send
	// buffer per (subscription, destination instance), flattened;
	// bufBase[si] indexes subscription si's instance-0 buffer. pending
	// counts the events held by all bufs — rows of open batches and keys
	// of combining buffers; oldest is the idle-flush deadline anchor
	// (zero when nothing is pending).
	bufs       []outBuf
	bufBase    []int
	pending    int
	oldest     time.Time
	batchSize  int
	flushEvery time.Duration
	// idle is recv's reusable idle-flush timer (nil until first needed).
	idle *time.Timer
	// part is route's reused Fields partition.
	part stream.Partition
}

func newEmitter(rc *runtimeComponent, instance int, is *metrics.InstanceStats, ef *executorFaults) *emitter {
	tr := rc.transport.normalized()
	em := &emitter{
		rc: rc, instance: instance, faults: ef,
		rrNext: make([]int, len(rc.subs)),
		stats:  is, stamp: is.ObsEnabled(),
		row:       stream.AnyKind.Get().(*stream.Cols[any, any]),
		batchSize: tr.BatchSize, flushEvery: tr.FlushInterval,
	}
	em.rebuildBufs()
	return em
}

// rebuildBufs derives empty send buffers from the current wiring,
// releasing what the old ones hold. Called at construction, by the
// executor after a rescale barrier (inbox sets and channel bases may
// have changed; markers left every buffer empty), and by a restart,
// which discards what a failed delivery left behind (boltExec.restart).
func (em *emitter) rebuildBufs() {
	for _, b := range em.bufs {
		if b.buf != nil {
			b.buf.Release()
		}
	}
	rc := em.rc
	em.pending, em.oldest = 0, time.Time{}
	em.bufBase = make([]int, len(rc.subs))
	n := 0
	for si := range rc.subs {
		em.bufBase[si] = n
		n += len(rc.subs[si].to.inboxes)
	}
	em.bufs = make([]outBuf, n)
	for si := range rc.subs {
		sub := &rc.subs[si]
		for k := range sub.to.inboxes {
			b := outBuf{ch: int32(sub.chBase + em.instance)}
			if sub.to.localInst(k) {
				b.sink, b.depth = chanSink{ch: sub.to.inboxes[k]}, &sub.to.depths[k]
			} else {
				b.sink = rc.net.sinkTo(sub.to, k)
			}
			if sub.colComb != nil {
				b.comb, b.combCap, b.kind = sub.colComb.New(), sub.colComb.Cap, sub.colComb.OutKind
			}
			em.bufs[em.bufBase[si]+k] = b
		}
	}
}

// stage fires the send-fault hooks that n emitted rows, or one marker,
// owe on every subscription: one send per row and destination (a marker
// and a broadcast edge reach every instance). Emission is two-phase —
// everything is staged before the first buffer append, so an injected
// failure leaves nothing partially delivered.
func (em *emitter) stage(n int, marker bool) {
	if em.faults == nil || em.faults.corrupt == nil {
		return
	}
	for si := range em.rc.subs {
		sub := &em.rc.subs[si]
		sends := n
		if marker || sub.grouping == Broadcast {
			sends *= len(sub.to.inboxes)
		}
		for ; sends > 0; sends-- {
			em.faults.onSend(em.rc.name, em.instance, sub.to.name)
		}
	}
}

// emit sends one event: a marker to every destination, behind everything
// each buffer holds — markers punctuate every buffer, and aligned
// consumers must not wait on a partial batch to complete a cut — an
// item as one row of the universal kind.
func (em *emitter) emit(e stream.Event) {
	em.stage(1, e.IsMarker)
	if e.IsMarker {
		em.mark(e.Marker)
		return
	}
	r := em.row
	r.Keys, r.Vals = append(r.Keys[:0], e.Key), append(r.Vals[:0], e.Value)
	em.route(r)
}

// emitCols sends one batch of emitted rows, taking ownership of it.
func (em *emitter) emitCols(cols stream.Columns) {
	em.stage(cols.Len(), false)
	em.route(cols)
	cols.Release()
}

// send delivers a block of emissions — batches and markers in emission
// order — transactionally: every fault hook fires before the first
// buffer append. Each batch is consumed (released, its part cleared) as
// it is delivered, so a caller that recovers from a staging panic still
// owns exactly the batches left in block. The caller flushes.
func (em *emitter) send(block []message) {
	for i := range block {
		em.stage(block[i].weight(), block[i].cols == nil)
	}
	for i := range block {
		if c := block[i].cols; c != nil {
			block[i].cols = nil
			em.route(c)
			c.Release()
		} else {
			em.mark(block[i].mark)
		}
	}
}

// mark sends a marker to every destination, each copy in one message
// with the open batch it closes, behind the combiner's aggregates.
func (em *emitter) mark(m stream.Marker) {
	em.stats.AddEmitted(1)
	for i := range em.bufs {
		b := &em.bufs[i]
		em.drain(b)
		em.flushBuf(b, message{punct: markPunct, mark: m, sent: em.now})
	}
	em.oldest = time.Time{}
}

// eos notifies every downstream instance that this sender instance's
// channel has ended, behind everything its buffer still holds. Each
// delivery runs under its own guard, so a failed one (a dead TCP link)
// keeps no other destination from seeing its channel end; the first
// failure is returned.
func (em *emitter) eos() (err error) {
	for i := range em.bufs {
		b := &em.bufs[i]
		if ferr := guard(em.rc.name, em.instance, func() {
			em.drain(b)
			em.flushBuf(b, message{punct: eosPunct})
		}); err == nil {
			err = ferr
		}
	}
	em.oldest = time.Time{}
	return err
}

// guard runs fn, converting a panic into an error so the topology can
// shut down cleanly (the failed executor stops processing but still
// participates in end-of-stream propagation).
func guard(component string, instance int, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("storm: executor %s[%d] panicked: %v", component, instance, r)
		}
	}()
	fn()
	return nil
}

func runSpout(rc *runtimeComponent, instance int, is *metrics.InstanceStats, ef *executorFaults, pol RecoveryPolicy, cg *cutGate, g *execGate) error {
	em := newEmitter(rc, instance, is, ef)
	if g != nil {
		g.em = em
		defer cg.leave(g)
	}
	err := guard(rc.name, instance, func() {
		spout := rc.spout(instance)
		// A ColSpout fills typed batches directly — no per-event boxing,
		// one emitCols per batch. Markers and EOS still come through Next
		// (NextCols returns 0 there). Observability needs per-event stamps
		// and latency, so it reads every source event by event.
		var cs ColSpout
		var kind *stream.ColKind
		var batch stream.Columns
		if c, ok := spout.(ColSpout); ok && !em.stamp && c.ColKind() != nil {
			cs, kind = c, c.ColKind()
			batch = kind.Get()
			defer func() { batch.Release() }()
		}
		// Clock reads and counter updates amortize over strides of
		// events — on a fast per-event source the clock is a measurable share
		// of the loop. The stride stays 1 under observability (exact
		// per-event latency; each read ends one event and starts the next)
		// and on columnar sources (a batch per read already). Otherwise
		// it adapts: it doubles while a whole stride completes well inside
		// the idle-flush interval (so the staleness of tickAt's anchor
		// cannot delay an idle flush by more than ~the interval itself)
		// and collapses to per-event as soon as one runs long, which is
		// exactly the throttled-spout case where flush timeliness
		// matters. Busy time is identical in aggregate: spans concatenate.
		const maxStride = 32
		adaptive := cs == nil && !em.stamp
		stride, n := 1, 0
		t0 := time.Now()
		for {
			if em.stamp {
				em.now = t0.UnixNano()
			}
			// Idle flush between Next calls: a throttled spout parked
			// inside Next cannot flush, but one that merely produces
			// slower than BatchSize per interval bounds its residency
			// here.
			em.tickAt(t0)
			k := 0
			if cs != nil {
				if k = cs.NextCols(batch, em.batchSize); k > 0 {
					if ef != nil {
						for i := 0; i < k; i++ {
							ef.onEvent(rc.name, instance)
						}
					}
					em.emitCols(batch)
					batch = kind.Get()
				}
			}
			if k == 0 {
				e, ok := spout.Next()
				if !ok {
					break
				}
				ef.onEvent(rc.name, instance)
				em.emit(e)
				if e.IsMarker {
					// An emitted (and flushed) marker is a completed cut
					// from the source's point of view, and the spout's
					// barrier entry point — every buffer of this emitter is
					// empty.
					is.AddCuts(1)
					if g != nil {
						cg.cutDone(g)
					}
				}
				k = 1
			}
			if n += k; n < stride {
				continue
			}
			t1 := time.Now()
			d := t1.Sub(t0)
			is.AddBusy(d)
			is.AddExecuted(int64(n))
			is.ObserveExec(t0, d)
			if adaptive {
				if em.flushEvery > 0 && d > em.flushEvery/2 {
					stride = 1
				} else if stride < maxStride {
					stride *= 2
				}
			}
			n, t0 = 0, t1
		}
		is.AddExecuted(int64(n))
		is.AddBusy(time.Since(t0))
	})
	if err != nil && pol.Enabled && pol.OnUnrecoverable == DropAndLog {
		// Spouts have no marker cut to roll back to (their input is
		// external); drop-and-log truncates the source instead of
		// failing the run.
		pol.logf("storm: spout %s[%d] failed, truncating its input: %v", rc.name, instance, err)
		err = nil
	}
	if eerr := em.eos(); err == nil {
		err = eerr
	}
	return err
}

// boltExec is one bolt executor: the single receive loop every bolt
// instance runs, raw or aligned, with or without marker-cut recovery.
// Recovery is a policy on the loop (rec, see recovery.go), not a second
// loop: with it on, a block's emissions park in out until its cut
// commits and a panic rolls the executor back to its last cut; with it
// off, emissions go straight to the transport and a panic fails (or
// degrades) the executor.
type boltExec struct {
	rc       *runtimeComponent
	instance int
	is       *metrics.InstanceStats
	em       *emitter
	ef       *executorFaults
	pol      RecoveryPolicy

	// cg/g are the run's reconfiguration barrier and this executor's
	// entry (rescale.go); g is nil when the run cannot host rescales.
	cg *cutGate
	g  *execGate
	// eosLeft counts input channels still open; a rescale barrier that
	// widens the input resets it (no channel has closed at a barrier).
	eosLeft int
	// retired is set when a rescale replaced this executor's component
	// instance set: exit without finishing or propagating EOS.
	retired bool

	// bolt is the operator instance; cp/inKind/outKind/cm are its columnar
	// surface, chBolt its channel-aware one on raw inputs, ch the input
	// channel of the message being delivered there.
	bolt            Bolt
	cp              ColProcessor
	inKind, outKind *stream.ColKind
	cm              ColMarker
	chBolt          ChannelBolt
	ch              int
	// row is the row being delivered when a batch goes to the bolt row by
	// row; only fail reads it, and only on raw inputs, where the rows
	// before it are done with — their output is out.
	row int
	// merge aligns the input channels on markers; nil on raw inputs.
	merge *colMerge
	// emitFn is the bolt's emit callback, allocated once per executor:
	// park under recovery, the transport otherwise.
	emitFn func(stream.Event)

	// rows, mark and cut are a sink's open block: its batches (the
	// merger's), closing marker and number.
	rows []stream.Columns
	mark stream.Marker
	cut  uint64

	// Recovery policy state (recovery.go). out holds the current
	// block's parked output in emission order; snap/rrSnap are the
	// committed checkpoint — instance state and round-robin cursors at
	// the last completed cut — and hasSnap is false until the first cut
	// (a restart then uses a fresh instance). spare is the buffer the
	// next cut's snapshot is written into before it swaps with snap.
	rec      bool
	out      []message
	snap     []byte
	spare    []byte
	hasSnap  bool
	rrSnap   []int
	restarts int
	// markerSeen maps a marker sequence number to the wall time
	// (UnixNano) its first copy arrived at this executor; the entry
	// survives restarts, so the marker-cut lag recorded at the cut's
	// completion includes any recovery time spent in between. nil unless
	// both recovery and observability are on.
	markerSeen map[int64]int64
	// qskip is the countdown to the next sampled queue observation
	// (see queueObsEvery).
	qskip int

	// fatal is the terminal failure (the executor keeps draining to its
	// EOS); degraded is the drop-and-log mode after an unrecoverable one.
	fatal    error
	degraded *degradeState
}

// runBolt is the executor loop of every bolt instance.
func runBolt(rc *runtimeComponent, instance int, is *metrics.InstanceStats, ef *executorFaults, pol RecoveryPolicy, cg *cutGate, g *execGate) error {
	x := &boltExec{
		rc: rc, instance: instance, is: is, ef: ef, pol: pol, cg: cg, g: g,
		em:      newEmitter(rc, instance, is, ef),
		rec:     pol.Enabled && rc.aligned,
		eosLeft: rc.nChannels,
		rrSnap:  make([]int, len(rc.subs)),
	}
	switch {
	case x.rec:
		x.emitFn = x.park
		if is.ObsEnabled() {
			x.markerSeen = map[int64]int64{}
		}
	default:
		x.emitFn = x.em.emit
	}
	if g != nil {
		g.em = x.em
		g.x = x
		defer cg.leave(g)
	}
	if g != nil && g.seed != nil {
		// Spawned by a rescale: start from the re-sharded shard instead
		// of the factory (the seed bolt was restored under the barrier).
		x.setBolt(g.seed.bolt)
		x.snap = g.seed.snap
		x.hasSnap = len(g.seed.snap) > 0
	} else {
		x.setBolt(x.newBolt())
	}
	if rc.aligned {
		x.merge = x.newMerge()
	}

	inbox := rc.inboxes[instance]
	for x.eosLeft > 0 && !x.retired {
		m, ok := recv(inbox, x.em)
		if !ok {
			continue // idle flush fired; retry the receive
		}
		x.runMessage(m)
		if x.retired {
			return nil
		}
		// Bound buffered-output residency even under a steady trickle
		// of input (which keeps resetting recv's idle timer).
		x.em.tick()
	}
	if x.fatal == nil && x.degraded == nil {
		if left, err := x.finish(); err != nil {
			x.fail(err, left)
		}
	}
	if g != nil {
		cg.leave(g)
	}
	if err := x.em.eos(); x.fatal == nil {
		x.fatal = err
	}
	return x.fatal
}

// newBolt builds a fresh operator instance.
func (x *boltExec) newBolt() Bolt {
	if x.rc.isSink {
		return sinkBolt{}
	}
	return x.rc.bolt(x.instance)
}

// sinkBolt is a sink executor's bolt, which never runs (deliverCut
// hands the blocks on) and checkpoints nothing.
type sinkBolt struct{}

func (sinkBolt) Next(stream.Event, func(stream.Event)) {}
func (sinkBolt) Snapshot() ([]byte, error)             { return nil, nil }
func (sinkBolt) Restore([]byte) error                  { return nil }

// setBolt installs an operator instance and derives its optional
// surfaces. A ChannelBolt sees channel identity only on raw inputs; on
// aligned ones the merger consumes it.
func (x *boltExec) setBolt(b Bolt) {
	x.bolt = b
	x.cp, x.inKind, x.outKind, x.chBolt = nil, nil, nil, nil
	if cp, ok := b.(ColProcessor); ok && cp.InColKind() != nil {
		x.cp, x.inKind, x.outKind = cp, cp.InColKind(), cp.OutColKind()
	}
	x.cm, _ = b.(ColMarker)
	if !x.rc.aligned {
		x.chBolt, _ = b.(ChannelBolt)
	}
}

func (x *boltExec) newMerge() *colMerge {
	return newColMerge(x.rc.nChannels, x.deliver, x.deliverCols)
}

// held returns, per input channel, the received input the executor has
// not finished with: the merger's un-popped parts (the merger is
// abandoned), nothing on raw inputs.
func (x *boltExec) held() [][]message {
	if x.merge == nil {
		return make([][]message, x.rc.nChannels)
	}
	return x.merge.Pending()
}

// runMessage consumes one received message: its batch, then its
// punctuation.
func (x *boltExec) runMessage(m message) {
	if x.is.ObsEnabled() {
		x.rc.depths[x.instance].Add(int64(-m.weight()))
	}
	if m.cols != nil {
		x.runPart(message{ch: m.ch, cols: m.cols, sent: m.sent})
	}
	switch m.punct {
	case markPunct:
		x.runPart(message{ch: m.ch, punct: markPunct, mark: m.mark, sent: m.sent})
	case eosPunct:
		x.eosLeft--
	}
}

// runPart consumes one part of a message — a batch or a marker — under
// one panic guard and one busy-time clock pair. On a panic the part is
// handled exactly once: the guard is re-entered with absorbed and fired
// preserved, so a part the merger already holds is not fed twice and an
// injected Nth-event fault neither re-fires nor loses count of the batch
// rows behind it.
func (x *boltExec) runPart(in message) {
	if x.fatal != nil || x.degraded != nil {
		// A failed executor keeps draining to its EOS.
		x.discard(in, 0)
		return
	}
	name, inst, is, ef := x.rc.name, x.instance, x.is, x.ef
	// fired counts the fault-hook calls already made for the part,
	// absorbed whether it was handed to the merger (or the bolt).
	fired, absorbed := 0, false
	for {
		err := guard(name, inst, func() {
			t0 := time.Now()
			defer func() { is.AddBusy(time.Since(t0)) }()
			obs := is.ObsEnabled()
			if obs && fired == 0 && !absorbed {
				now := t0.UnixNano()
				x.em.now = now
				if x.qskip--; x.qskip <= 0 {
					x.qskip = queueObsEvery
					// Inbox depth in events, plus the part in hand.
					is.ObserveQueueDepth(int(x.rc.depths[inst].Load()) + in.weight())
					if in.sent != 0 {
						is.ObserveQueue(time.Duration(now - in.sent))
					}
				}
				if x.markerSeen != nil && in.cols == nil {
					if _, ok := x.markerSeen[in.mark.Seq]; !ok {
						x.markerSeen[in.mark.Seq] = now
					}
				}
			}
			for n := in.weight(); ef != nil && fired < n; {
				fired++
				ef.onEvent(name, inst)
			}
			if !absorbed {
				absorbed = true
				x.absorb(int(in.ch), in)
			}
			if obs {
				is.ObserveExec(t0, time.Since(t0))
			}
		})
		if err == nil {
			return
		}
		// The executor still owns the merger's input plus the in-flight
		// part, unless the merger already holds that (on raw inputs
		// nothing does: absorb releases a batch only after the bolt
		// returned). Under recovery, roll back to the last cut, replay all
		// of it and resume the same part with absorbed set, so only its
		// remaining fault hooks run; otherwise, or when recovery gives up,
		// fail hands it to discard. On aligned inputs the block is
		// replayed or dropped whole, with its output.
		pending := x.held()
		if !absorbed || x.merge == nil {
			pending[in.ch] = append(pending[in.ch], in)
			absorbed = true
		}
		if x.rec {
			left, rerr := x.recoverFrom(err, pending)
			if rerr == nil {
				continue
			}
			err, pending = rerr, left
		}
		x.fail(err, pending)
		return
	}
}

// absorb hands one live message to the merger, which takes ownership of
// a batch, or on raw inputs straight to the bolt, releasing a batch
// once the bolt returned.
func (x *boltExec) absorb(ch int, in message) {
	if x.merge != nil {
		x.merge.Next(ch, in)
		return
	}
	x.ch = ch
	if in.cols == nil {
		x.deliver(stream.Mark(in.mark))
		return
	}
	x.deliverCols(in.cols)
	in.cols.Release()
}

// park is the emit callback under recovery: the event joins the block's
// parked output, an item as a row of the universal batch at its end.
func (x *boltExec) park(e stream.Event) {
	if e.IsMarker {
		x.out = append(x.out, message{punct: markPunct, mark: e.Marker})
		return
	}
	if n := len(x.out); n == 0 || x.out[n-1].cols == nil || x.out[n-1].cols.Kind() != stream.AnyKind {
		x.out = append(x.out, message{cols: stream.AnyKind.Get()})
	}
	x.out[len(x.out)-1].cols.AppendEvent(e)
}

// deliver runs the bolt on one event: a row of a batch the bolt does
// not consume whole, or a marker (on aligned inputs, the merged one that
// completes the cut). A typed marker step's rows are the batch the
// marker closes.
func (x *boltExec) deliver(e stream.Event) {
	x.is.AddExecuted(1)
	switch {
	case x.rc.sink != nil: // a merged marker; under recovery, flushOut delivers
		x.mark = e.Marker
		if !x.rec {
			x.deliverCut(false)
		}
	case x.chBolt != nil:
		x.chBolt.NextFrom(x.ch, e, x.emitFn)
	case e.IsMarker && x.cm != nil && x.outKind != nil:
		out := x.outKind.Get()
		x.cm.ProcessMarker(e.Marker, out)
		x.sendOut(out)
		x.emitFn(e)
	default:
		x.bolt.Next(e, x.emitFn)
	}
	if x.rec && e.IsMarker {
		x.completeCut(e.Marker.Seq)
	}
}

// deliverCols runs the bolt on one column batch, which stays the
// caller's: whole through ProcessCols when the bolt consumes batches of
// its kind — exactly so under recovery as without — after unboxing a
// universal-kind batch into that kind once, and row by row otherwise,
// which is how every bolt without a columnar surface (a handcrafted
// Bolt or ChannelBolt) and every bolt behind an edge of another typed
// kind sees its items. A sink keeps the batch for its open block.
func (x *boltExec) deliverCols(c stream.Columns) {
	n := c.Len()
	if x.rc.sink != nil {
		x.is.AddExecuted(int64(n))
		x.rows = append(x.rows, c)
		return
	}
	if c.Kind() == stream.AnyKind && x.inKind != nil && x.inKind != stream.AnyKind {
		t := x.inKind.Get()
		for i := range n {
			t.AppendEvent(c.EventAt(i))
		}
		defer t.Release()
		c = t
	}
	if x.inKind == nil || c.Kind() != x.inKind {
		for x.row = 0; x.row < n; x.row++ {
			x.deliver(c.EventAt(x.row))
		}
		x.row = 0
		return
	}
	x.is.AddExecuted(int64(n))
	if x.outKind == nil {
		x.cp.ProcessCols(c, nil)
		return
	}
	out := x.outKind.Get()
	x.cp.ProcessCols(c, out)
	x.sendOut(out)
}

// sendOut hands on a batch of the bolt's output: parked under recovery,
// to the transport otherwise, released when empty.
func (x *boltExec) sendOut(out stream.Columns) {
	if out.Len() == 0 {
		out.Release()
	} else if x.rec {
		x.out = append(x.out, message{cols: out})
	} else {
		x.em.emitCols(out)
	}
}

// String renders the topology's structure for debugging.
func (t *Topology) String() string {
	s := fmt.Sprintf("topology %s:\n", t.name)
	for _, c := range t.Components() {
		s += fmt.Sprintf("  %s %s ×%d", c.Kind, c.Name, c.Parallelism)
		for _, in := range t.components[c.Name].inputs {
			al := ""
			if in.aligned {
				al = ",aligned"
			}
			s += fmt.Sprintf(" ← %s(%s%s)", in.from, in.grouping, al)
		}
		s += "\n"
	}
	return s
}
