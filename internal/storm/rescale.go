package storm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// This file implements elastic rescaling with live state migration at
// marker cuts — the runtime consequence of the paper's §4
// parallelizability theorems: a typed operator's output trace is
// invariant under the degree of parallelism, so the degree is safe to
// change mid-run, provided the change happens at a consistent cut and
// every key's state moves to the key's new HASH owner.
//
// The marker-cut machinery is reused as a reconfiguration barrier.
// Cut N is the topology's N-th marker: every spout emits the same
// marker sequence and every aligned executor completes cuts in
// sequence, so "executor has completed N cuts" names one global
// consistent point. A rescale request carries a barrier cut; each
// participating executor parks when its own completed-cut count
// reaches the barrier (spouts right after emitting the cut's marker,
// bolts at the end of completeCut, after the cut's snapshot and
// output committed). When the last executor arrives the topology is
// quiescent in a strong sense:
//
//   - every emitter flushed through the cut's marker (markers flush
//     all transport and combining buffers), and parked emitters send
//     nothing more, so every send buffer is empty;
//   - every inbox is drained: a channel's cut-N marker is the last
//     message the channel carries until after the barrier, and an
//     aligned consumer cannot complete cut N before consuming every
//     channel's marker N — hence every earlier message too;
//   - every merger is empty (block N was popped when its cut
//     completed) and no event beyond marker N exists anywhere.
//
// Migration is therefore a plain data-structure rewrite performed by
// the last arriving executor while everyone else is parked: snapshot
// the target's instances (already committed at the cut), re-shard the
// keyed state by the partitioning hash over the new instance count,
// retire the old executors, spawn new ones restored from the
// re-sharded snapshots, and recompute the wiring (inboxes, channel
// bases, placement, merge widths) that depends on the target's
// parallelism. Parked executors refresh their own routing state on
// wake-up; the mutex hand-off orders every rewrite before every
// refresh.

// Resharder is the optional Bolt extension elastic rescaling requires
// of the target component: beyond Recoverable's snapshot/restore, the
// bolt can re-partition a set of instance snapshots taken at one cut
// onto a new instance count. Compile adapts core.Resharder template
// instances automatically; handcrafted bolts may implement it
// directly. The receiver acts only as a type probe — it must not read
// or mutate its own state.
type Resharder interface {
	Recoverable
	Reshard(old [][]byte, newPar int, owner func(key any) int) ([][]byte, error)
}

// RescaleStep is one scripted parallelism change.
type RescaleStep struct {
	// Component is the bolt to rescale.
	Component string
	// NewPar is the parallelism after the step (≥ 1).
	NewPar int
	// AtCut is the 1-based completed-cut count the step waits for: the
	// reconfiguration happens at the barrier after the AtCut-th marker
	// cut commits everywhere.
	AtCut int64
}

// RescalePlan schedules parallelism changes at marker cuts for the
// next Run — the deterministic, scripted counterpart of
// Topology.Rescale, mirroring FaultPlan/KillPlan for tests. Steps must
// target strictly increasing cuts. A step whose cut the stream never
// reaches fails the run (the test asked for a reconfiguration that
// did not happen).
type RescalePlan struct {
	steps []RescaleStep
}

// NewRescalePlan creates an empty rescale plan.
func NewRescalePlan() *RescalePlan { return &RescalePlan{} }

// RescaleAt appends a step: set component's parallelism to newPar at
// the barrier after the atCut-th completed marker cut.
func (p *RescalePlan) RescaleAt(component string, newPar int, atCut int64) *RescalePlan {
	p.steps = append(p.steps, RescaleStep{Component: component, NewPar: newPar, AtCut: atCut})
	return p
}

// validate checks the plan against the declared topology.
func (p *RescalePlan) validate(t *Topology) error {
	var last int64
	for i, s := range p.steps {
		if err := t.validateRescale(s.Component, s.NewPar); err != nil {
			return fmt.Errorf("storm: rescale plan step %d: %w", i, err)
		}
		if s.AtCut < 1 {
			return fmt.Errorf("storm: rescale plan step %d: AtCut %d, want ≥ 1", i, s.AtCut)
		}
		if s.AtCut <= last {
			return fmt.Errorf("storm: rescale plan step %d: AtCut %d not after previous step's %d", i, s.AtCut, last)
		}
		last = s.AtCut
	}
	return nil
}

// validateRescale applies the Topology.validate-style static checks to
// one rescale request.
func (t *Topology) validateRescale(component string, newPar int) error {
	c, ok := t.components[component]
	if !ok {
		return fmt.Errorf("storm: rescale: unknown component %q", component)
	}
	if c.spout != nil {
		return fmt.Errorf("storm: rescale: %q is a spout (sources cannot be rescaled mid-run)", component)
	}
	if c.isSink {
		return fmt.Errorf("storm: rescale: %q is a sink (sinks keep one instance)", component)
	}
	if newPar < 1 {
		return fmt.Errorf("storm: rescale %q: parallelism %d, want ≥ 1", component, newPar)
	}
	if !t.recovery.Enabled {
		return fmt.Errorf("storm: rescale %q: requires marker-cut recovery (SetRecovery)", component)
	}
	return nil
}

// Rescale changes a bolt component's parallelism in the running
// topology, live: it waits for the next topology-wide marker-cut
// barrier, migrates the component's keyed state onto the new instance
// set, and returns once processing has resumed. It fails when the
// topology is not running (or the stream ends first), when the
// request fails validation, or when the run cannot host a barrier
// (recovery disabled, unaligned bolts, networked worker).
func (t *Topology) Rescale(component string, newPar int) error {
	cg := t.gate.Load()
	if cg == nil {
		return fmt.Errorf("storm: Rescale(%q): topology is not running", component)
	}
	return cg.request(component, newPar)
}

// Rescales reports how many live rescales the current (or last) Run
// performed.
func (t *Topology) Rescales() int {
	cg := t.gate.Load()
	if cg == nil {
		return 0
	}
	cg.mu.Lock()
	defer cg.mu.Unlock()
	return cg.rescales
}

// AutoscalePolicy is a feedback controller that rescales one bolt
// component automatically from the observability signals: it polls the
// run's LiveStats every Interval and reacts to the component's
// MaxQueueDepth backpressure gauge, queue-latency histogram and
// executed-count deltas. Scale-out doubles the parallelism (capped at
// Max) after Sustain consecutive polls showing backpressure — the
// high-water queue depth still climbing past HighDepth, or the queue
// latency p99 above HighLatency. Scale-in halves it (floored at Min)
// after Sustain consecutive polls with no high-water growth and a
// per-poll executed delta of at most LowDelta. Requires observability
// (the gauges it polls are otherwise never written).
type AutoscalePolicy struct {
	// Component is the bolt under control.
	Component string
	// Min and Max bound the parallelism (1 ≤ Min ≤ Max).
	Min, Max int
	// Interval is the polling period; 0 selects 20ms.
	Interval time.Duration
	// HighDepth is the backpressure threshold: a poll counts toward
	// scale-out when the component's live inbox depth is at least
	// HighDepth, or its high-water depth grew by at least HighDepth
	// since the last action. 0 selects 256.
	HighDepth int64
	// HighLatency, when positive, also counts a poll toward scale-out
	// when the component's queue-latency p99 is at least this.
	HighLatency time.Duration
	// LowDelta is the idleness threshold: a poll counts toward scale-in
	// when the component's live inbox depth is zero and it executed at
	// most LowDelta events since the previous poll. 0 means the
	// component must be fully idle.
	LowDelta int64
	// Sustain is the consecutive-poll requirement before an action;
	// 0 selects 2.
	Sustain int
	// Logf, when set, receives the controller's decisions.
	Logf func(format string, args ...any)
}

// validate checks the policy against the declared topology.
func (p *AutoscalePolicy) validate(t *Topology) error {
	if p.Min < 1 || p.Max < p.Min {
		return fmt.Errorf("storm: autoscale %q: bounds Min %d, Max %d, want 1 ≤ Min ≤ Max", p.Component, p.Min, p.Max)
	}
	if err := t.validateRescale(p.Component, p.Min); err != nil {
		return fmt.Errorf("storm: autoscale: %w", err)
	}
	if !t.obs.Enabled {
		return fmt.Errorf("storm: autoscale %q: requires observability (SetObservability) for the backpressure gauges it polls", p.Component)
	}
	return nil
}

func (p *AutoscalePolicy) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

// boltSeed carries a pre-restored bolt into an executor spawned by a
// rescale.
type boltSeed struct {
	bolt Bolt
	// snap is the executor's starting checkpoint (the re-sharded
	// snapshot its bolt was restored from); empty when the shard holds
	// no state yet.
	snap []byte
}

// execGate is one executor's entry in the reconfiguration barrier.
type execGate struct {
	rc   *runtimeComponent
	inst int
	// cuts is the executor's completed-cut count (spouts: markers
	// emitted). Guarded by the gate mutex.
	cuts int64
	// em and x are attached by the executor before its first cutDone;
	// x is nil for spouts. Only the owning goroutine and the rewiring
	// of its own component read them.
	em *emitter
	x  *boltExec
	// seed is set on gates created by a rescale: the spawned executor
	// starts from it instead of the component's bolt factory.
	seed *boltSeed
	// retired marks an old instance of a rescaled component: its
	// executor exits without finishing or propagating EOS (its channels
	// no longer exist). Guarded by the gate mutex.
	retired bool
	left    bool
}

// rescaleReq is one pending reconfiguration.
type rescaleReq struct {
	component string
	newPar    int
	// atCut is the barrier: 0 until assigned (dynamic requests take
	// the first cut no executor has completed yet, decided under the
	// gate mutex when the request reaches the queue head).
	atCut int64
	// done receives the outcome for dynamic requests; nil for plan
	// steps, whose failures land in planErrs and fail the run.
	done chan error
}

// cutGate is the topology-wide reconfiguration barrier of one Run.
type cutGate struct {
	mu   sync.Mutex
	cond *sync.Cond

	t     *Topology
	rts   map[string]*runtimeComponent
	spawn func(rc *runtimeComponent, inst int, g *execGate)

	// supported is false when the run cannot host a barrier; reason
	// says why (requests are refused with it).
	supported bool
	reason    string

	gates   []*execGate
	reqs    []*rescaleReq
	waiting int
	// closed flips when any executor leaves (end of stream, fatal
	// failure, degradation): pending and future requests fail, parked
	// executors resume unchanged. The gate never reopens.
	closed bool
	// gen counts completed barriers; parked executors wait for it to
	// move. lastTarget is the component rewired in the current gen.
	gen        uint64
	lastTarget *runtimeComponent
	planErrs   []error
	rescales   int
}

func newCutGate(t *Topology, rts map[string]*runtimeComponent) *cutGate {
	cg := &cutGate{t: t, rts: rts, supported: true}
	cg.cond = sync.NewCond(&cg.mu)
	for _, name := range t.order {
		c := t.components[name]
		rc := rts[name]
		if rc.net != nil {
			cg.supported, cg.reason = false, "live rescaling is not available inside a networked worker (use NetOptions.Rescale)"
			break
		}
		if c.spout != nil {
			continue
		}
		if !t.recovery.Enabled {
			cg.supported, cg.reason = false, "marker-cut recovery is disabled (SetRecovery)"
			break
		}
		if !componentAligned(c) {
			cg.supported, cg.reason = false, fmt.Sprintf("bolt %q has unaligned inputs (no marker cuts to rescale at)", name)
			break
		}
	}
	return cg
}

// componentAligned reports whether a bolt's inputs are marker-aligned
// (validate enforces all-or-nothing per bolt).
func componentAligned(c *component) bool {
	return len(c.inputs) > 0 && c.inputs[0].aligned
}

// register adds one executor to the barrier before its goroutine
// starts. Only called during execute's setup, before any executor
// runs.
func (cg *cutGate) register(rc *runtimeComponent, inst int) *execGate {
	g := &execGate{rc: rc, inst: inst}
	cg.gates = append(cg.gates, g)
	return g
}

// enqueuePlan queues the scripted steps of the run's rescale plan.
func (cg *cutGate) enqueuePlan(p *RescalePlan) {
	if p == nil {
		return
	}
	cg.mu.Lock()
	for _, s := range p.steps {
		cg.reqs = append(cg.reqs, &rescaleReq{component: s.Component, newPar: s.NewPar, atCut: s.AtCut})
	}
	cg.mu.Unlock()
}

// request queues a dynamic rescale and blocks until the barrier
// completes (or the gate closes first).
func (cg *cutGate) request(component string, newPar int) error {
	cg.mu.Lock()
	if !cg.supported {
		cg.mu.Unlock()
		return fmt.Errorf("storm: rescale %q: %s", component, cg.reason)
	}
	if cg.closed {
		cg.mu.Unlock()
		return fmt.Errorf("storm: rescale %q: the stream ended", component)
	}
	if err := cg.t.validateRescale(component, newPar); err != nil {
		cg.mu.Unlock()
		return err
	}
	if rc := cg.rts[component]; rc != nil && rc.parallelism == newPar && len(cg.reqs) == 0 {
		cg.mu.Unlock()
		return nil
	}
	done := make(chan error, 1)
	cg.reqs = append(cg.reqs, &rescaleReq{component: component, newPar: newPar, done: done})
	cg.mu.Unlock()
	return <-done
}

// nextReq returns the queue head with its barrier assigned. A dynamic
// request takes the first cut no executor has completed yet — safe
// because cut counts only advance inside cutDone, under this mutex,
// one at a time, with a barrier check at every increment.
func (cg *cutGate) nextReq() *rescaleReq {
	if len(cg.reqs) == 0 {
		return nil
	}
	req := cg.reqs[0]
	if req.atCut == 0 {
		var max int64
		for _, g := range cg.gates {
			if g.cuts > max {
				max = g.cuts
			}
		}
		req.atCut = max + 1
	}
	return req
}

// cutDone records that g completed one more cut and parks the
// executor when that cut is a barrier. It returns true when the
// executor was retired by a rescale (old instance of the target): the
// caller must exit without finishing or propagating EOS. Called by
// spouts after emitting a marker (and flushing), and by recoverable
// bolts at the end of completeCut — points at which the executor
// holds no unflushed output and no unconsumed input of the cut.
func (cg *cutGate) cutDone(g *execGate) (retired bool) {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	g.cuts++
	if !cg.supported {
		return false
	}
	for {
		req := cg.nextReq()
		if req == nil || cg.closed || g.cuts != req.atCut {
			return g.retired
		}
		cg.waiting++
		if cg.waiting == len(cg.gates) {
			// Last arriver: everyone else is parked, the topology is
			// quiescent at the barrier cut. Rewire, then release.
			cg.waiting = 0
			cg.finishReq(req)
			cg.gen++
			cg.cond.Broadcast()
		} else {
			gen := cg.gen
			for cg.gen == gen && !cg.closed {
				cg.cond.Wait()
			}
			if cg.gen == gen {
				// Closed while parked (another executor left): the
				// barrier dissolved, resume unchanged.
				return g.retired
			}
		}
		if g.retired {
			return true
		}
		cg.refresh(g)
		// Barriers are strictly increasing, so the next queued request
		// (if any) targets a later cut; the loop exits via the check.
	}
}

// finishReq pops the head request and performs its rescale, reporting
// the outcome to the requester (dynamic) or the run (plan step).
func (cg *cutGate) finishReq(req *rescaleReq) {
	cg.reqs = cg.reqs[1:]
	cg.lastTarget = nil
	err := cg.rewire(req)
	if err == nil {
		cg.rescales++
	}
	if req.done != nil {
		req.done <- err
	} else if err != nil {
		cg.planErrs = append(cg.planErrs, err)
	}
}

// rewire performs one rescale at a completed barrier: all executors
// are parked, every buffer, inbox and merger is empty, and the
// target's instances committed their cut snapshots. Runs under the
// gate mutex on the last arriver's goroutine. On error nothing was
// mutated (state collection and restore happen before the first
// wiring write) and the run continues at the old parallelism.
func (cg *cutGate) rewire(req *rescaleReq) error {
	rc := cg.rts[req.component]
	if rc == nil {
		return fmt.Errorf("storm: rescale: unknown component %q", req.component)
	}
	oldPar, q := rc.parallelism, req.newPar
	if q == oldPar {
		return nil
	}

	// Collect the cut-committed snapshots of the old instance set.
	snaps := make([][]byte, oldPar)
	var oldGates []*execGate
	for _, g := range cg.gates {
		if g.rc == rc {
			oldGates = append(oldGates, g)
			if g.x == nil || !g.x.hasSnap {
				return fmt.Errorf("storm: rescale %q: instance %d has no committed snapshot at the cut", rc.name, g.inst)
			}
			snaps[g.inst] = g.x.snap
		}
	}
	if len(oldGates) != oldPar {
		return fmt.Errorf("storm: rescale %q: %d executors at the barrier, want %d", rc.name, len(oldGates), oldPar)
	}

	// Re-shard the keyed state and restore the new instance set —
	// all of it before the first wiring mutation, so a failure aborts
	// the rescale with the topology untouched.
	probe := rc.bolt(0)
	rs, ok := probe.(Resharder)
	if !ok {
		return fmt.Errorf("storm: rescale %q: bolt does not implement Resharder", rc.name)
	}
	owner := func(k any) int { return stream.DefaultHash(k) % q }
	newSnaps, err := rs.Reshard(snaps, q, owner)
	if err != nil {
		return fmt.Errorf("storm: rescale %q: re-sharding state: %w", rc.name, err)
	}
	if len(newSnaps) != q {
		return fmt.Errorf("storm: rescale %q: Reshard returned %d snapshots, want %d", rc.name, len(newSnaps), q)
	}
	bolts := make([]Bolt, q)
	for j := 0; j < q; j++ {
		b := rc.bolt(j)
		r, ok := b.(Recoverable)
		if !ok {
			return fmt.Errorf("storm: rescale %q: instance %d is not recoverable", rc.name, j)
		}
		if len(newSnaps[j]) > 0 {
			if err := r.Restore(newSnaps[j]); err != nil {
				return fmt.Errorf("storm: rescale %q: restoring shard %d: %w", rc.name, j, err)
			}
		}
		bolts[j] = b
	}

	// Point of no return: retire the old executors and rewrite the
	// wiring the target's parallelism participates in.
	for _, g := range oldGates {
		g.retired = true
	}
	cg.gates = slices.DeleteFunc(cg.gates, func(g *execGate) bool { return g.retired })

	rc.parallelism = q
	rc.inboxes = make([]chan message, q)
	rc.depths = make([]atomic.Int64, q)
	for i := range rc.inboxes {
		rc.inboxes[i] = make(chan message, cg.t.channelCap())
	}

	cg.t.layout(cg.rts, cg.t.workers)

	// Spawn the new instance set. The gates are registered here, under
	// the mutex, so the next barrier counts them; the goroutines start
	// after every wiring write above (spawn's go statement orders the
	// writes before the executor's first read).
	for j := 0; j < q; j++ {
		g := &execGate{rc: rc, inst: j, cuts: req.atCut, seed: &boltSeed{bolt: bolts[j], snap: newSnaps[j]}}
		cg.gates = append(cg.gates, g)
		cg.spawn(rc, j, g)
	}
	cg.lastTarget = rc
	return nil
}

// refresh re-derives one parked executor's routing state after a
// rescale, on its own goroutine right after wake-up (the mutex orders
// it after every rewire write). Transport and combining buffers are
// empty at the barrier, so rebuilding them drops nothing.
func (cg *cutGate) refresh(g *execGate) {
	target := cg.lastTarget
	if target == nil || g.em == nil {
		return
	}
	for si := range g.rc.subs {
		if g.rc.subs[si].to == target {
			// The target's instance count changed: restart the edge's
			// round-robin rotation (any start is trace-equivalent for
			// shuffle edges; fields edges re-derive owners from the
			// hash).
			g.em.rrNext[si] = 0
			if g.x != nil {
				g.x.rrSnap[si] = 0
			}
		}
	}
	if len(g.rc.subs) > 0 {
		g.em.rebuildBufs()
	}
	if g.x != nil && g.rc.nChannels != len(g.x.merge.open) {
		// A consumer of the target: new input width, and the merger is
		// empty at the barrier, so a fresh one loses nothing.
		g.x.merge = g.x.newMerge()
		g.x.eosLeft = g.rc.nChannels
	}
}

// leave removes one executor from the barrier (end of stream, fatal
// failure, degradation, retirement) and closes the gate: a rescale
// after part of the topology stopped has no consistent barrier to
// target, so pending requests fail and parked executors resume
// unchanged.
func (cg *cutGate) leave(g *execGate) {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	if g.left {
		return
	}
	g.left = true
	if g.retired {
		// Planned departure: rewire already removed the gate, and the
		// component lives on in its new instances.
		return
	}
	for i, o := range cg.gates {
		if o == g {
			cg.gates = append(cg.gates[:i], cg.gates[i+1:]...)
			break
		}
	}
	cg.close(fmt.Errorf("storm: rescale: the stream ended before the barrier cut (%s[%d] finished)", g.rc.name, g.inst))
}

// close (under mu) fails every pending request and releases parked
// executors.
func (cg *cutGate) close(cause error) {
	if cg.closed {
		return
	}
	cg.closed = true
	for _, req := range cg.reqs {
		if req.done != nil {
			req.done <- cause
		} else {
			cg.planErrs = append(cg.planErrs, fmt.Errorf("storm: rescale plan step (%s → %d at cut %d) did not run: %w",
				req.component, req.newPar, req.atCut, cause))
		}
	}
	cg.reqs = nil
	cg.cond.Broadcast()
}

// shutdown closes the gate at the end of execute (idempotent).
func (cg *cutGate) shutdown() {
	cg.mu.Lock()
	cg.close(fmt.Errorf("storm: rescale: the run ended"))
	cg.mu.Unlock()
}

// takePlanErrs returns the plan-step failures recorded so far.
func (cg *cutGate) takePlanErrs() []error {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	return cg.planErrs
}

// autoscaleLoop is the feedback controller goroutine: poll LiveStats,
// decide, issue gate requests. It runs on wall-clock time by design —
// elasticity reacts to real backpressure, not to event time — which
// is why its effects go through the deterministic cut barrier: *what*
// a rescale does is exact even though *when* one triggers is not.
func autoscaleLoop(t *Topology, cg *cutGate, pol *AutoscalePolicy, stop <-chan struct{}) {
	sustain, highDepth := positiveOr(pol.Sustain, 2), positiveOr(pol.HighDepth, 256)
	ticker := time.NewTicker(positiveOr(pol.Interval, 20*time.Millisecond))
	defer ticker.Stop()

	var baseDepth, lastExec int64
	highStreak, lowStreak := 0, 0
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		stats := t.LiveStats()
		if stats == nil {
			continue
		}
		var comp *metrics.ComponentSnapshot
		for _, c := range stats.Snapshot().ByComponent() {
			if c.Component == pol.Component {
				c := c
				comp = &c
				break
			}
		}
		if comp == nil {
			continue
		}
		cg.mu.Lock()
		par := 0
		if rc := cg.rts[pol.Component]; rc != nil {
			par = rc.parallelism
		}
		closed := cg.closed
		cg.mu.Unlock()
		if par == 0 || closed {
			return
		}

		// The live depth carries sustained backlog; the high-water
		// growth term catches a burst that peaked between polls and
		// drained before this one.
		grew := comp.MaxQueueDepth - baseDepth
		execDelta := comp.Executed - lastExec
		lastExec = comp.Executed
		hot := comp.QueueDepth >= highDepth || grew >= highDepth
		if !hot && pol.HighLatency > 0 && !comp.Queue.Empty() {
			hot = comp.Queue.QuantileDuration(0.99) >= pol.HighLatency
		}
		if hot {
			highStreak++
			lowStreak = 0
		} else if comp.QueueDepth == 0 && execDelta <= pol.LowDelta {
			lowStreak++
			highStreak = 0
		} else {
			highStreak, lowStreak = 0, 0
		}

		target := par
		switch {
		case highStreak >= sustain && par < pol.Max:
			target = min(par*2, pol.Max)
		case lowStreak >= sustain && par > pol.Min:
			target = max(par/2, pol.Min)
		}
		if target == par {
			continue
		}
		pol.logf("storm: autoscale %s: %d → %d (depth %d, high-water +%d, exec Δ%d)", pol.Component, par, target, comp.QueueDepth, grew, execDelta)
		if err := cg.request(pol.Component, target); err != nil {
			pol.logf("storm: autoscale %s: rescale refused: %v", pol.Component, err)
			return
		}
		baseDepth = comp.MaxQueueDepth
		highStreak, lowStreak = 0, 0
	}
}
