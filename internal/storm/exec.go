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

// message is one unit of executor input: an event tagged with the
// receiver-side input channel it arrived on, a typed column batch for
// that channel, or an end-of-stream notice for it. Messages travel in
// vectors — the batched edge transport (transport.go) groups them per
// destination — and receivers unpack a vector one message at a time.
type message struct {
	ch  int
	ev  stream.Event
	eos bool
	// cols, when set, makes this message a column batch of items only
	// (markers never enter batches; see cols.go) and ev is unused. The
	// receiver owns the batch and releases it after consumption.
	cols stream.Columns
	// sent is the send wall time (UnixNano) when observability is
	// enabled, 0 otherwise; receivers derive emit-to-receive inbox
	// latency from it.
	sent int64
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
	// Sinks maps each sink component's name to the event sequence it
	// collected (a representative of the output data trace).
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
	// combiner, when set, pre-aggregates this edge's traffic in the
	// sender's combining buffers (see combiner.go).
	combiner *CombinerSpec
	// cols, when set, declares the edge columnar: items travel as
	// typed batches of this kind (see cols.go). colComb, when set, is
	// the typed sender-side combining pass the rows fold through.
	cols    *stream.ColKind
	colComb *ColCombinerSpec
}

// runtimeComponent is a component with resolved wiring.
type runtimeComponent struct {
	*component
	// inboxes[i] is instance i's input channel; nil when the instance
	// is placed on another worker process (its traffic travels the
	// networked transport instead). The slice always has parallelism
	// entries so routing arithmetic is placement-blind.
	inboxes []chan *[]message
	// depths[i] is inbox i's depth in *events* (a channel slot holds a
	// whole vector, and a cols message a whole batch of rows): senders
	// add a vector's weight (vecWeight) at flush, the receiver subtracts
	// it at dequeue. Maintained only when observability is enabled;
	// feeds the sampled queue-depth gauge.
	depths            []atomic.Int64
	subs              []subscription
	nChannels         int // receiver-side input channel count
	aligned           bool
	transport         TransportOptions // as set; newEmitter normalizes, once
	serializerFactory func() Serializer
	// workerOf[i] is the worker hosting instance i (-1: no placement,
	// every serialized send pays the wire format).
	workerOf []int
	// gids[i] is instance i's global executor index (declaration
	// order) — the frame destination id of the networked transport.
	gids []int
	// net is the hosting worker's networked-transport state; nil in
	// the single-process runtime.
	net *workerNet
	// sinkTap, when set on a sink component, observes every recorded
	// event in arrival order (under sinkMu); the networked worker uses
	// it to stream sink output to the coordinator.
	sinkTap func(e stream.Event)
	sinkMu  sync.Mutex
	sinkOut []stream.Event
}

// localInst reports whether instance i runs in this process.
func (rc *runtimeComponent) localInst(i int) bool {
	return rc.net == nil || rc.workerOf[i] == rc.net.self
}

// appendSink records a block of events a sink instance received,
// feeding the worker's sink tap when one is installed.
func (rc *runtimeComponent) appendSink(block []entry) {
	rc.sinkMu.Lock()
	for i := range block {
		rc.sinkOut = append(rc.sinkOut, block[i].ev)
		if rc.sinkTap != nil {
			rc.sinkTap(block[i].ev)
		}
	}
	rc.sinkMu.Unlock()
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
	if workers < 1 {
		workers = 1
	}
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
		rts[name] = &runtimeComponent{component: t.components[name], transport: t.transport, net: w, serializerFactory: t.serializer}
	}
	for _, name := range t.order {
		rc := rts[name]
		for _, in := range rc.inputs {
			src := rts[in.from]
			src.subs = append(src.subs, subscription{to: rc, grouping: in.grouping, combiner: in.combiner, cols: in.cols, colComb: in.colComb})
			rc.aligned = rc.aligned || in.aligned
		}
	}
	t.layout(rts, workers)
	for _, name := range t.order {
		rc := rts[name]
		rc.inboxes = make([]chan *[]message, rc.parallelism)
		rc.depths = make([]atomic.Int64, rc.parallelism)
		for i := range rc.inboxes {
			if !rc.localInst(i) {
				continue
			}
			rc.inboxes[i] = make(chan *[]message, t.channelCap())
			if w != nil {
				w.register(rc.gids[i], rc.inboxes[i], &rc.depths[i])
			}
		}
	}
	return rts, nil
}

// channelCap is the inbox capacity in vectors.
func (t *Topology) channelCap() int {
	if t.ChannelCap > 0 {
		return t.ChannelCap
	}
	return defaultChannelCap
}

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
		rc.gids[p.Instance] = p.GID
		rc.workerOf[p.Instance] = -1
		if workers > 0 {
			rc.workerOf[p.Instance] = p.Worker
		}
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
	hash := t.hash
	if hash == nil {
		hash = stream.DefaultHash
	}
	stats := metrics.NewStats()
	stats.SetObservability(t.obs)
	t.live.Store(stats)
	var wg sync.WaitGroup
	var failMu sync.Mutex
	var failures []error

	cg := newCutGate(t, rts, hash)
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
					return runSpout(rc, i, is, hash, ef, t.recovery, cg, g)
				}
				return runBolt(rc, i, is, hash, ef, t.recovery, cg, g)
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
	for _, name := range t.order {
		rc := rts[name]
		if rc.isSink && rc.localInst(0) {
			res.Sinks[rc.name] = rc.sinkOut
		}
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

// emitter routes one sender instance's output events to subscribers.
type emitter struct {
	rc       *runtimeComponent
	instance int
	hash     func(any) int
	// rrNext is the per-subscription round-robin cursor.
	rrNext []int
	stats  *metrics.InstanceStats
	// ser, when set, round-trips emitted events through the wire
	// encoding (per send; skipped for same-worker destinations when
	// placement is set).
	ser Serializer
	// worker is this executor's worker, or -1 without placement.
	worker int
	// faults, when set, injects serializer corruption on chosen edges.
	faults *executorFaults
	// stamp turns on send-time stamping of outgoing messages (queue
	// latency observability); derived from the executor's stats record.
	stamp bool
	// now is the executor's current message timestamp (UnixNano), set
	// once per processed input when stamp is on and reused for every
	// send — emitted messages carry it instead of paying time.Now per
	// emission. It under-reports the send time by at most the message's
	// own processing latency, which the exec histogram bounds. A
	// message buffered by the transport keeps the stamp of its emit, so
	// the receiver's queue latency includes buffered residency.
	now int64
	// scratch is the reused routing buffer of emit.
	scratch []routedMsg

	// Batched transport state (see transport.go). bufs holds one send
	// buffer per (subscription, destination instance), flattened;
	// bufBase[si] indexes subscription si's instance-0 buffer. pending
	// counts buffered messages across all bufs; cpending counts partial
	// aggregates held by boxed combining buffers (combiner.go);
	// colpending counts rows held by open column buffers plus keys held
	// by columnar combining buffers (cols.go); oldest is the idle-flush
	// deadline anchor (zero when nothing is pending).
	bufs       []outBuf
	bufBase    []int
	pending    int
	cpending   int
	colpending int
	oldest     time.Time
	batchSize  int
	flushEvery time.Duration
	// idle is recvBatch's reusable idle-flush timer (nil until first
	// needed).
	idle *time.Timer
}

func newEmitter(rc *runtimeComponent, instance int, is *metrics.InstanceStats, hash func(any) int) *emitter {
	tr := rc.transport.normalized()
	em := &emitter{
		rc: rc, instance: instance, hash: hash,
		rrNext: make([]int, len(rc.subs)),
		stats:  is, worker: rc.workerOf[instance], stamp: is.ObsEnabled(),
		batchSize: tr.BatchSize, flushEvery: tr.FlushInterval,
	}
	if rc.serializerFactory != nil && len(rc.subs) > 0 {
		em.ser = rc.serializerFactory()
	}
	em.rebuildBufs()
	return em
}

// rebuildBufs derives the send-buffer table from the current wiring.
// Called at construction, and again by the executor after a rescale
// barrier: destination inbox sets and edge channel bases may have
// changed, and every buffer is empty at a barrier (markers flush),
// so rebuilding drops nothing.
func (em *emitter) rebuildBufs() {
	rc := em.rc
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
			var b outBuf
			if sub.to.localInst(k) {
				b = outBuf{sink: chanSink{ch: sub.to.inboxes[k]}, depth: &sub.to.depths[k]}
			} else {
				b = outBuf{sink: rc.net.sinkTo(sub.to, k)}
			}
			if sub.combiner != nil {
				b.comb = &combBuf{spec: sub.combiner, ch: sub.chBase + em.instance, idx: map[any]int{}}
			}
			if sub.cols != nil {
				b.colKind = sub.cols
				b.colCh = sub.chBase + em.instance
			}
			if sub.colComb != nil {
				b.colComb = sub.colComb.New()
				b.colCap = sub.colComb.Cap
			}
			em.bufs[em.bufBase[si]+k] = b
		}
	}
}

// routedMsg is one event resolved to a concrete destination. A nil sub
// marks a staged typed emission instead: si then indexes the batch in
// the block being sent (see send).
type routedMsg struct {
	sub    *subscription
	si     int // the subscription's index in rc.subs
	target int
	ch     int
	e      stream.Event
}

// route resolves the destinations of one emitted event, advancing the
// round-robin cursors, without serializing or sending.
func (em *emitter) route(e stream.Event, out []routedMsg) []routedMsg {
	em.stats.AddEmitted(1)
	for si := range em.rc.subs {
		out = em.routeTo(si, e, out)
	}
	return out
}

// routeTo is route for one subscription.
func (em *emitter) routeTo(si int, e stream.Event, out []routedMsg) []routedMsg {
	sub := &em.rc.subs[si]
	ch := sub.chBase + em.instance
	g := sub.grouping
	if e.IsMarker {
		// Markers are always broadcast so they reach every consumer
		// instance and can act as punctuations.
		g = Broadcast
	}
	switch g {
	case Shuffle:
		k := em.rrNext[si]
		em.rrNext[si] = (k + 1) % len(sub.to.inboxes)
		out = append(out, routedMsg{sub, si, k, ch, e})
	case Fields:
		out = append(out, routedMsg{sub, si, em.hash(e.Key) % len(sub.to.inboxes), ch, e})
	case Global:
		out = append(out, routedMsg{sub, si, 0, ch, e})
	case Broadcast:
		for k := range sub.to.inboxes {
			out = append(out, routedMsg{sub, si, k, ch, e})
		}
	}
	return out
}

// wire applies the serialization boundary to one routed message in
// place, paying the wire format when the hop crosses a worker
// boundary (or unconditionally when no placement is configured). A
// serialization failure — or an injected corruption fault — panics
// and is converted to an executor failure by guard.
func (em *emitter) wire(r *routedMsg) {
	em.faults.onSend(em.rc.name, em.instance, r.sub.to.name)
	if em.ser != nil && (em.worker < 0 || em.worker != r.sub.to.workerOf[r.target]) {
		roundTripped, err := em.ser.RoundTrip(r.e)
		if err != nil {
			panic(err)
		}
		r.e = roundTripped
	}
}

func (em *emitter) emit(e stream.Event) {
	em.scratch = em.route(e, em.scratch[:0])
	for i := range em.scratch {
		r := &em.scratch[i]
		em.wire(r)
		em.push(r)
	}
	if e.IsMarker {
		// Markers flush everything: they punctuate every buffer (being
		// broadcast), and aligned consumers must not wait on a partial
		// batch to complete a cut.
		em.flushAll()
	}
}

// emitCols routes one batch of emitted rows to every subscription,
// taking ownership of the batch: typed where the edge carries its kind,
// boxed row by row elsewhere.
func (em *emitter) emitCols(cols stream.Columns) {
	one := [1]entry{{cols: cols}}
	em.send(one[:])
}

// send delivers a block of emissions — boxed events and typed batches
// in emission order — in two phases: every destination is routed and
// every fault hook and serialization fires before the first buffer
// append, so a failure leaves nothing partially delivered. Delivery
// itself cannot panic. Each batch is consumed (released, its entry
// cleared) as it is delivered, so a caller that recovers from a staging
// panic still owns exactly the batches left in block.
func (em *emitter) send(block []entry) {
	batch := em.scratch[:0]
	for i := range block {
		switch c := block[i].cols; {
		case c == nil:
			batch = em.route(block[i].ev, batch)
		case c.Len() == 0:
			block[i].cols = nil
			c.Release()
		default:
			batch = em.stageCols(c, i, batch)
		}
	}
	for i := range batch {
		if batch[i].sub != nil {
			em.wire(&batch[i])
		}
	}
	for i := range batch {
		r := &batch[i]
		if r.sub == nil {
			c := block[r.si].cols
			block[r.si].cols = nil
			em.pushCols(c)
			continue
		}
		em.push(r)
	}
	// Keep the grown buffer for the next call (one executor goroutine
	// owns the emitter; emit and send never run concurrently).
	em.scratch = batch[:0]
}

// sendBlock is send for a marker-cut block: transactional, and flushed
// when done — a committed cut leaves nothing buffered, so marker-cut
// recovery can regenerate a failed block without duplicating output
// downstream.
func (em *emitter) sendBlock(block []entry) {
	em.send(block)
	em.flushAll()
}

// eos notifies every downstream instance that this sender instance's
// channel has ended: the notice is appended behind any still-buffered
// events and everything is flushed, so EOS is the last message each
// channel delivers.
func (em *emitter) eos() {
	for si := range em.rc.subs {
		sub := &em.rc.subs[si]
		ch := sub.chBase + em.instance
		for k := range sub.to.inboxes {
			em.pushEOS(&em.bufs[em.bufBase[si]+k], ch)
		}
	}
	em.flushAll()
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

func runSpout(rc *runtimeComponent, instance int, is *metrics.InstanceStats, hash func(any) int, ef *executorFaults, pol RecoveryPolicy, cg *cutGate, g *execGate) error {
	em := newEmitter(rc, instance, is, hash)
	em.faults = ef
	if g != nil {
		g.em = em
		defer cg.leave(g)
	}
	err := guard(rc.name, instance, func() {
		spout := rc.spout(instance)
		// A ColSpout fills typed batches directly — no per-event boxing,
		// one emitCols per batch. Markers and EOS still come through Next
		// (NextCols returns 0 there), so punctuation and shutdown are the
		// boxed path's. Observability needs per-event stamps and latency,
		// so it keeps every source boxed.
		var cs ColSpout
		var kind *stream.ColKind
		var batch stream.Columns
		if c, ok := spout.(ColSpout); ok && !em.stamp && c.ColKind() != nil {
			cs, kind = c, c.ColKind()
			batch = kind.Get()
			defer func() { batch.Release() }()
		}
		// Clock reads and counter updates amortize over strides of
		// events — on a fast boxed source the clock is a measurable share
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
	em.eos()
	return err
}

// boltExec is one bolt executor: the single receive loop every bolt
// instance runs, raw or aligned, boxed or columnar, with or without
// marker-cut recovery. Recovery is a policy on the loop (rec, see
// recovery.go), not a second loop: with it on, a block's emissions park
// in out until its cut commits and a panic rolls the executor back to
// its last cut; with it off, emissions go straight to the transport and
// a panic fails (or degrades) the executor.
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

	// bolt is the operator instance (sinks run an identity bolt whose
	// output is the sink's record); cp/inKind/outKind are its columnar
	// surface, chBolt its channel-aware one on raw inputs, ch the input
	// channel of the message being delivered there.
	bolt            Bolt
	cp              ColProcessor
	inKind, outKind *stream.ColKind
	chBolt          ChannelBolt
	ch              int
	// merge aligns the input channels on markers; nil on raw inputs.
	merge *colMerge
	// emitFn is the bolt's emit callback, allocated once per executor:
	// park under recovery, the sink's record for sinks, the transport
	// otherwise.
	emitFn func(stream.Event)

	// Recovery policy state (recovery.go). out holds the current
	// block's parked output in emission order; snap/rrSnap are the
	// committed checkpoint — instance state and round-robin cursors at
	// the last completed cut — and hasSnap is false until the first cut
	// (a restart then uses a fresh instance).
	rec      bool
	out      []entry
	snap     []byte
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
func runBolt(rc *runtimeComponent, instance int, is *metrics.InstanceStats, hash func(any) int, ef *executorFaults, pol RecoveryPolicy, cg *cutGate, g *execGate) error {
	x := &boltExec{
		rc: rc, instance: instance, is: is, ef: ef, pol: pol, cg: cg, g: g,
		em:      newEmitter(rc, instance, is, hash),
		rec:     pol.Enabled && rc.aligned,
		eosLeft: rc.nChannels,
		rrSnap:  make([]int, len(rc.subs)),
	}
	x.em.faults = ef
	switch {
	case x.rec:
		x.emitFn = func(e stream.Event) { x.out = append(x.out, entry{ev: e}) }
		if is.ObsEnabled() {
			x.markerSeen = map[int64]int64{}
		}
	case rc.isSink:
		x.emitFn = func(e stream.Event) {
			one := [1]entry{{ev: e}}
			rc.appendSink(one[:])
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
		bp := recvBatch(inbox, x.em)
		if bp == nil {
			continue // idle flush fired; retry the receive
		}
		x.runVector(*bp)
		putBatch(bp)
		if x.retired {
			return nil
		}
		// Bound buffered-output residency even under a steady trickle
		// of input (which keeps resetting recvBatch's idle timer).
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
	x.em.eos()
	return x.fatal
}

// newBolt builds a fresh operator instance. A sink is the identity
// bolt: what it "emits" is what the sink records.
func (x *boltExec) newBolt() Bolt {
	if x.rc.isSink {
		return sinkBolt{}
	}
	return x.rc.bolt(x.instance)
}

// sinkBolt is the bolt of a sink executor. It is stateless, so its
// checkpoint is empty.
type sinkBolt struct{}

func (sinkBolt) Next(e stream.Event, emit func(stream.Event)) { emit(e) }
func (sinkBolt) Snapshot() ([]byte, error)                    { return nil, nil }
func (sinkBolt) Restore([]byte) error                         { return nil }

// setBolt installs an operator instance and derives its optional
// surfaces. A ChannelBolt sees channel identity only on raw inputs; on
// aligned ones the merger consumes it.
func (x *boltExec) setBolt(b Bolt) {
	x.bolt = b
	x.cp, x.inKind, x.outKind, x.chBolt = nil, nil, nil, nil
	if cp, ok := b.(ColProcessor); ok && cp.InColKind() != nil {
		x.cp, x.inKind, x.outKind = cp, cp.InColKind(), cp.OutColKind()
	}
	if !x.rc.aligned {
		x.chBolt, _ = b.(ChannelBolt)
	}
}

func (x *boltExec) newMerge() *colMerge {
	return newColMerge(x.rc.nChannels, x.deliver, x.deliverCols)
}

// held returns, per input channel, the received input the executor has
// not finished with: the merger's un-popped entries (the merger is
// abandoned), nothing on raw inputs.
func (x *boltExec) held() [][]entry {
	if x.merge == nil {
		return make([][]entry, x.rc.nChannels)
	}
	return x.merge.Pending()
}

// runVector consumes one received vector. Processing runs under one
// panic guard and
// one busy-time clock pair per vector when observability is off; with
// it on the clock is read once per message, each message's end time
// being the next one's start. On a panic the in-flight message is
// handled exactly once: the guard is re-entered at the same message
// with absorbed and fired preserved, so a message the merger already
// holds is not fed twice and an injected Nth-event fault neither
// re-fires nor loses count of the batch rows behind it.
func (x *boltExec) runVector(batch []message) {
	name, inst, is, ef := x.rc.name, x.instance, x.is, x.ef
	obs := is.ObsEnabled()
	// weight is the vector's not-yet-processed remainder in events, the
	// unit of the inbox-depth gauge (maintained under observability only).
	depth := &x.rc.depths[inst]
	var weight int64
	if obs {
		weight = vecWeight(batch)
		depth.Add(-weight)
	}
	// bi is the message being processed, fired the fault-hook calls
	// already made for it, absorbed whether it was handed to the merger
	// (or the bolt).
	bi, fired, absorbed := 0, 0, false
	for bi < len(batch) && !x.retired {
		if x.fatal != nil || x.degraded != nil {
			// A failed executor keeps draining to its EOS.
			if m := &batch[bi]; m.eos {
				x.eosLeft--
			} else {
				x.discard(entry{ev: m.ev, cols: m.cols})
			}
			bi++
			continue
		}
		err := guard(name, inst, func() {
			t0 := time.Now()
			defer func() { is.AddBusy(time.Since(t0)) }()
			for bi < len(batch) && !x.retired {
				m := &batch[bi]
				if m.eos {
					x.eosLeft--
					bi++
					continue
				}
				in := entry{ev: m.ev, cols: m.cols}
				if obs && fired == 0 && !absorbed {
					now := t0.UnixNano()
					x.em.now = now
					if x.qskip--; x.qskip <= 0 {
						x.qskip = queueObsEvery
						// Inbox depth in events, plus this vector's
						// not-yet-processed remainder (the current
						// message included).
						is.ObserveQueueDepth(int(depth.Load() + weight))
						if m.sent != 0 {
							is.ObserveQueue(time.Duration(now - m.sent))
						}
					}
					weight -= int64(in.rows())
					if x.markerSeen != nil && m.ev.IsMarker && m.cols == nil {
						if _, ok := x.markerSeen[m.ev.Marker.Seq]; !ok {
							x.markerSeen[m.ev.Marker.Seq] = now
						}
					}
				}
				if ef != nil {
					for n := in.rows(); fired < n; {
						fired++
						ef.onEvent(name, inst)
					}
				}
				if !absorbed {
					absorbed = true
					x.absorb(m.ch, in)
				}
				bi, fired, absorbed = bi+1, 0, false
				if obs {
					t1 := time.Now()
					d := t1.Sub(t0)
					is.AddBusy(d)
					is.ObserveExec(t0, d)
					t0 = t1
				}
			}
		})
		if err == nil {
			continue
		}
		// The panic hit message bi. The executor still owns the merger's
		// input plus the in-flight message, unless the merger already
		// holds that (on raw inputs nothing does: absorb releases a batch
		// only after the bolt returned). Under recovery, roll back to the
		// last cut, replay all of it and resume the same message with
		// absorbed set, so only its remaining fault hooks run; otherwise,
		// or when recovery gives up, fail hands it to discard.
		m := &batch[bi]
		pending := x.held()
		if !absorbed || x.merge == nil {
			pending[m.ch] = append(pending[m.ch], entry{ev: m.ev, cols: m.cols})
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
		bi, fired, absorbed = bi+1, 0, false
	}
}

// absorb hands one live message to the merger, or on raw inputs
// straight to the bolt.
func (x *boltExec) absorb(ch int, in entry) {
	switch {
	case x.merge != nil && in.cols != nil:
		x.merge.NextCols(ch, in.cols)
	case x.merge != nil:
		x.merge.Next(ch, in.ev)
	case in.cols != nil:
		x.ch = ch
		x.deliverCols(in.cols)
		in.cols.Release()
	default:
		x.ch = ch
		x.deliver(in.ev)
	}
}

// deliver runs the bolt on one event: a live one on raw inputs, a
// merged one (item, or the cut-completing marker) on aligned inputs.
func (x *boltExec) deliver(e stream.Event) {
	x.is.AddExecuted(1)
	if x.chBolt != nil {
		x.chBolt.NextFrom(x.ch, e, x.emitFn)
	} else {
		x.bolt.Next(e, x.emitFn)
	}
	if x.rec && e.IsMarker {
		x.completeCut(e.Marker.Seq)
	}
}

// deliverCols runs the bolt on one column batch, which stays the
// caller's: whole through ProcessCols when the bolt consumes batches of
// its kind — exactly so under recovery as without — and boxed row by
// row otherwise, so a bolt behind mixed or mismatched edges still sees
// every event.
func (x *boltExec) deliverCols(c stream.Columns) {
	n := c.Len()
	if x.inKind == nil || c.Kind() != x.inKind {
		for i := 0; i < n; i++ {
			x.deliver(c.EventAt(i))
		}
		return
	}
	x.is.AddExecuted(int64(n))
	if x.outKind == nil {
		x.cp.ProcessCols(c, nil)
		return
	}
	out := x.outKind.Get()
	x.cp.ProcessCols(c, out)
	if x.rec {
		x.out = append(x.out, entry{cols: out})
	} else {
		x.em.emitCols(out)
	}
}

// String renders the topology's structure for debugging.
func (t *Topology) String() string {
	s := fmt.Sprintf("topology %s:\n", t.name)
	for _, name := range t.order {
		c := t.components[name]
		kind := "bolt"
		if c.spout != nil {
			kind = "spout"
		}
		if c.isSink {
			kind = "sink"
		}
		s += fmt.Sprintf("  %s %s ×%d", kind, name, c.parallelism)
		for _, in := range c.inputs {
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
