package storm

import (
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"net"
	"os"
	"os/exec"
	"strconv"
	"time"

	"datatrace/internal/codec"
	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// This file is the coordinator of the networked runtime. RunNetworked
// launches one worker process per placement slot, rendezvouses them
// (hello → start with the peer address table), collects the cuts the
// sinks deliver, and recovers from worker-process failure by restarting
// the whole cluster and keeping each sink cut once, by its number.
//
// That is sound for the topologies this runtime compiles: sources are
// deterministic replayable generators and markers punctuate every
// stream at fixed source positions, so cut N of a sink fed through an
// aligned merge holds the same multiset of events in every attempt.
// Each cut from the first attempt to deliver it, then the trailing
// block of the attempt that succeeds, is trace-equivalent to an
// uninterrupted run: marker-cut recovery, lifted to processes.

// KillPlan schedules one SIGKILL against a worker process: after the
// coordinator has committed AfterCuts marker cuts (summed over sinks)
// in the first attempt, Worker is killed. Used by the chaos tests to
// exercise process-level recovery deterministically.
type KillPlan struct {
	Worker    int
	AfterCuts int
}

// NetRescalePlan schedules one cluster-wide rescale: once the
// coordinator has committed AfterCuts marker cuts (summed over sinks,
// across attempts), the running attempt is aborted at that committed
// cut and every later attempt runs Spec as its DTT_NET_SPEC payload —
// the revised topology (new parallelism, hence a new placement table).
// The cut boundary is a consistent configuration, so the revised
// cluster's later cuts follow the committed ones as after a failure.
// The abort is not charged against MaxRestarts.
type NetRescalePlan struct {
	AfterCuts int
	Spec      string
}

// errRescale marks an attempt aborted for a planned reconfiguration
// rather than a worker failure.
var errRescale = errors.New("storm: attempt aborted for planned rescale")

// NetOptions configures a networked run.
type NetOptions struct {
	// Workers is the number of worker processes (≥ 1).
	Workers int
	// Command launches one worker: Command[0] is the binary, the rest
	// its arguments. Empty means re-exec this binary (os.Executable) —
	// the test-suite idiom, where TestMain detects the worker
	// environment and serves instead of running tests.
	Command []string
	// Env is the base environment of worker processes; nil means
	// inherit os.Environ(). The DTT_NET_* contract variables are
	// appended on top.
	Env []string
	// Spec is the opaque application payload passed to workers via
	// DTT_NET_SPEC; the worker main rebuilds its topology from it.
	Spec string
	// MaxRestarts bounds cluster restarts after worker-process failure
	// (0 means the default of 3; negative disables recovery).
	MaxRestarts int
	// AttemptTimeout bounds one attempt from spawn to all-done (0
	// means 2 minutes).
	AttemptTimeout time.Duration
	// Kill, when set, injects one worker kill (see KillPlan).
	Kill *KillPlan
	// Rescale, when set, schedules one cluster-wide rescale at a
	// committed cut (see NetRescalePlan).
	Rescale *NetRescalePlan
	// Logf receives coordinator lifecycle logging; nil discards.
	Logf func(format string, args ...any)

	// spawn overrides process launching — the unit-test seam that runs
	// "workers" as goroutines in this process. nil launches Command.
	spawn func(worker int, env map[string]string) (netProc, error)
}

// NetResult is the outcome of a networked run. Its Result holds each
// sink's output, collected as in-process — every cut once, from the
// first attempt that delivered it, then the final attempt's trailing
// block — the successful attempt's worker counters with their data
// links' summed (Stats.Wire), and the wall time including restarts.
type NetResult struct {
	Result
	// WorkerRestarts counts cluster restarts performed after worker
	// failures.
	WorkerRestarts int
	// ReplayedCuts counts marker cuts that were re-received from
	// replaying attempts and skipped because they were already
	// committed.
	ReplayedCuts int
	// Rescaled reports whether the NetRescalePlan fired: the final
	// attempt ran with the revised spec.
	Rescaled bool
}

// netProc is a launched worker process as the coordinator sees it.
type netProc interface {
	Kill() error
	Wait() error
}

// osProc is the real-process implementation of netProc.
type osProc struct{ cmd *exec.Cmd }

func (p *osProc) Kill() error { return p.cmd.Process.Kill() }
func (p *osProc) Wait() error { return p.cmd.Wait() }

func spawnOS(command, env []string) func(worker int, extra map[string]string) (netProc, error) {
	return func(worker int, extra map[string]string) (netProc, error) {
		cmd := exec.Command(command[0], command[1:]...)
		base := env
		if base == nil {
			base = os.Environ()
		}
		cmd.Env = append([]string(nil), base...)
		for k, v := range extra {
			cmd.Env = append(cmd.Env, k+"="+v)
		}
		// Worker diagnostics interleave on the coordinator's stderr.
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &osProc{cmd: cmd}, nil
	}
}

// sinkState is the coordinator's copy of one sink's output: the
// committed cuts, the running attempt's trailing block, kept only if
// the attempt succeeds, and the reader of the attempt's frames.
type sinkState struct {
	col  collector
	cuts uint64 // the next cut to keep; a lower one is a replay
	tail *collector
	dec  *codec.BatchReader
}

// helloConn is an inbound control connection that has identified
// itself.
type helloConn struct {
	conn  net.Conn
	dec   *gob.Decoder
	hello netHello
}

// coordEvent is one occurrence the attempt loop reacts to.
type coordEvent struct {
	worker int
	sink   *netSinkData
	done   *netDone
	err    error
	exit   bool
}

// coordinator is the state of one RunNetworked call.
type coordinator struct {
	opts   NetOptions
	logf   func(string, ...any)
	ln     net.Listener
	helloc chan helloConn

	sinks        map[string]*sinkState
	killed       bool
	restarts     int
	replayedCuts int
	spec         string // current worker payload; replaced when the rescale fires
	rescaled     bool   // the NetRescalePlan has fired
}

const (
	defaultNetMaxRestarts   = 3
	defaultAttemptTimeout   = 2 * time.Minute
	workerExitGracePeriod   = 10 * time.Second
	coordHelloBacklogEvents = 16
)

// RunNetworked executes a networked run to completion and returns the
// sinks' output and worker-reported statistics. It fails after
// MaxRestarts cluster restarts, on a worker that reports an executor
// failure, or on an attempt timeout.
func RunNetworked(opts NetOptions) (*NetResult, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("storm: RunNetworked needs Workers ≥ 1, got %d", opts.Workers)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.spawn == nil {
		command := opts.Command
		if len(command) == 0 {
			exe, err := os.Executable()
			if err != nil {
				return nil, fmt.Errorf("storm: RunNetworked: resolving own binary for worker re-exec: %w", err)
			}
			command = []string{exe}
		}
		opts.spawn = spawnOS(command, opts.Env)
	}
	maxRestarts := max(opts.MaxRestarts, 0)
	if opts.MaxRestarts == 0 {
		maxRestarts = defaultNetMaxRestarts
	}
	if opts.AttemptTimeout == 0 {
		opts.AttemptTimeout = defaultAttemptTimeout
	}
	if opts.Kill != nil && (opts.Kill.Worker < 0 || opts.Kill.Worker >= opts.Workers) {
		return nil, fmt.Errorf("storm: KillPlan.Worker %d out of range for %d workers", opts.Kill.Worker, opts.Workers)
	}
	if rp := opts.Rescale; rp != nil && rp.AfterCuts < 1 {
		return nil, fmt.Errorf("storm: NetRescalePlan.AfterCuts must be ≥ 1, got %d", rp.AfterCuts)
	} else if rp != nil && rp.Spec == "" {
		return nil, fmt.Errorf("storm: NetRescalePlan.Spec is empty: a rescale needs the revised topology payload")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("storm: coordinator listen: %w", err)
	}
	defer ln.Close()
	r := &coordinator{
		opts:   opts,
		logf:   logf,
		ln:     ln,
		helloc: make(chan helloConn, coordHelloBacklogEvents),
		sinks:  map[string]*sinkState{},
		spec:   opts.Spec,
	}
	// One persistent accept loop across attempts: workers of any
	// attempt dial the same address; the attempt cookie in the hello
	// sorts stragglers out.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				dec := gob.NewDecoder(conn)
				var env netEnvelope
				if err := dec.Decode(&env); err != nil || env.Hello == nil {
					conn.Close()
					return
				}
				r.helloc <- helloConn{conn: conn, dec: dec, hello: *env.Hello}
			}(conn)
		}
	}()

	start := time.Now()
	var stats *metrics.Stats
	for attempt := 0; ; attempt++ {
		dones, err := r.runAttempt(attempt)
		if err == nil {
			stats = rebuildStats(dones)
			break
		}
		// A failed attempt's uncommitted output is discarded; the next
		// attempt replays from the source, and its cuts below each
		// sink's committed count are dropped as they arrive.
		for _, ss := range r.sinks {
			ss.tail, ss.dec = nil, nil
		}
		if errors.Is(err, errRescale) {
			// Planned reconfiguration: the next attempt runs the revised
			// spec, splicing onto the committed prefix like a recovery
			// replay — but the abort is not charged against MaxRestarts.
			r.spec = r.opts.Rescale.Spec
			logf("storm: rescale plan firing at %d committed cuts; restarting cluster with revised spec", r.totalCommitted())
			continue
		}
		r.restarts++
		if r.restarts > maxRestarts {
			return nil, fmt.Errorf("storm: networked run failed after %d restarts: %w", r.restarts-1, err)
		}
		logf("storm: attempt %d failed (%v); restarting cluster (restart %d/%d)", attempt, err, r.restarts, maxRestarts)
	}
	wall := time.Since(start)
	stats.Normalize(wall)

	return &NetResult{
		Result:         Result{Sinks: r.traces(), Stats: stats, Wall: wall},
		WorkerRestarts: r.restarts,
		ReplayedCuts:   r.replayedCuts,
		Rescaled:       r.rescaled,
	}, nil
}

// traces is each sink's committed cuts, then the trailing block of the
// attempt that succeeded.
func (r *coordinator) traces() map[string][]stream.Event {
	out := make(map[string][]stream.Event, len(r.sinks))
	for name, ss := range r.sinks {
		if out[name] = ss.col.out; ss.tail != nil {
			out[name] = append(ss.col.out, ss.tail.out...)
		}
	}
	return out
}

// runAttempt runs one full cluster attempt: spawn, rendezvous, stream
// sink data, collect dones, shut down. It returns the workers' final
// reports on success.
func (r *coordinator) runAttempt(attempt int) ([]*netDone, error) {
	W := r.opts.Workers
	evc := make(chan coordEvent, 4*W)
	stop := make(chan struct{})
	defer close(stop)

	procs := make([]netProc, W)
	conns := make([]net.Conn, W)
	encs := make([]*gob.Encoder, W)
	exited := make([]bool, W)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()

	killAll := func() {
		for i, p := range procs {
			if p != nil && !exited[i] {
				_ = p.Kill()
			}
		}
	}
	// drainExits collects process-exit events until every spawned
	// worker is accounted for or the grace period lapses. It returns
	// the first nonzero-exit error (which, on the success path, is how
	// a worker-side -race detector failure or panic surfaces even
	// after a clean Done).
	drainExits := func(grace time.Duration, wantClean bool) error {
		deadline := time.NewTimer(grace)
		defer deadline.Stop()
		var firstErr error
		for {
			remaining := 0
			for i, p := range procs {
				if p != nil && !exited[i] {
					remaining++
				}
			}
			if remaining == 0 {
				return firstErr
			}
			select {
			case ev := <-evc:
				if !ev.exit {
					continue // late sink/done traffic after the verdict
				}
				exited[ev.worker] = true
				if ev.err != nil && wantClean && firstErr == nil {
					firstErr = fmt.Errorf("worker %d exited uncleanly: %w", ev.worker, ev.err)
				}
			case <-deadline.C:
				killAll()
				if wantClean && firstErr == nil {
					firstErr = fmt.Errorf("workers still running %v after shutdown", grace)
				}
				return firstErr
			}
		}
	}
	fail := func(cause error) ([]*netDone, error) {
		killAll()
		_ = drainExits(workerExitGracePeriod, false)
		return nil, cause
	}

	env := map[string]string{
		EnvCoordAddr: r.ln.Addr().String(),
		EnvWorkers:   strconv.Itoa(W),
		EnvAttempt:   strconv.Itoa(attempt),
		EnvSpec:      r.spec,
	}
	for i := 0; i < W; i++ {
		env[EnvWorkerID] = strconv.Itoa(i)
		p, err := r.opts.spawn(i, maps.Clone(env))
		if err != nil {
			return fail(fmt.Errorf("spawning worker %d: %w", i, err))
		}
		procs[i] = p
		go func(i int, p netProc) {
			err := p.Wait()
			select {
			case evc <- coordEvent{worker: i, exit: true, err: err}:
			case <-stop:
			}
		}(i, p)
	}
	r.logf("storm: attempt %d: %d workers spawned, coordinator %s", attempt, W, r.ln.Addr())

	timeout := time.NewTimer(r.opts.AttemptTimeout)
	defer timeout.Stop()

	// Rendezvous: wait for every worker of this attempt to check in.
	peers := make([]string, W)
	helloed := 0
	for helloed < W {
		select {
		case hc := <-r.helloc:
			if hc.hello.Attempt != attempt || hc.hello.Worker < 0 || hc.hello.Worker >= W || conns[hc.hello.Worker] != nil {
				hc.conn.Close() // straggler from a killed attempt, or nonsense
				continue
			}
			conns[hc.hello.Worker] = hc.conn
			encs[hc.hello.Worker] = gob.NewEncoder(hc.conn)
			peers[hc.hello.Worker] = hc.hello.DataAddr
			helloed++
			go readCtrl(hc.hello.Worker, hc.dec, evc, stop)
		case ev := <-evc:
			if ev.exit {
				exited[ev.worker] = true
				return fail(fmt.Errorf("worker %d exited before rendezvous: %v", ev.worker, ev.err))
			}
		case <-timeout.C:
			return fail(fmt.Errorf("rendezvous timeout: %d/%d workers checked in after %v", helloed, W, r.opts.AttemptTimeout))
		}
	}
	for i := 0; i < W; i++ {
		if err := encs[i].Encode(netEnvelope{Start: &netStart{Peers: peers}}); err != nil {
			return fail(fmt.Errorf("starting worker %d: %w", i, err))
		}
	}

	// Main loop: sink traffic and completion reports.
	var dones []*netDone
	for len(dones) < W {
		select {
		case ev := <-evc:
			switch {
			case ev.sink != nil:
				if err := r.onSink(attempt, ev.sink, procs, exited); err != nil {
					return fail(fmt.Errorf("worker %d: %w", ev.worker, err))
				}
			case ev.done != nil:
				if ev.done.Failure != "" {
					return fail(fmt.Errorf("worker %d reported failure: %s", ev.worker, ev.done.Failure))
				}
				dones = append(dones, ev.done)
			case ev.exit:
				exited[ev.worker] = true
				return fail(fmt.Errorf("worker %d died mid-run: %v", ev.worker, ev.err))
			case ev.err != nil:
				return fail(fmt.Errorf("control connection of worker %d: %w", ev.worker, ev.err))
			}
		case <-timeout.C:
			return fail(fmt.Errorf("attempt timeout: %d/%d workers done after %v", len(dones), W, r.opts.AttemptTimeout))
		}
	}

	// All done: release the workers and insist on clean exits (a
	// worker that panics after Done, or whose race detector trips at
	// exit, fails the run here).
	for i := 0; i < W; i++ {
		_ = encs[i].Encode(netEnvelope{Shutdown: true})
	}
	if err := drainExits(workerExitGracePeriod, true); err != nil {
		return nil, err
	}
	r.logf("storm: attempt %d complete: %d cuts committed", attempt, r.totalCommitted())
	return dones, nil
}

// readCtrl relays one worker's control messages to the attempt loop.
func readCtrl(worker int, dec *gob.Decoder, evc chan<- coordEvent, stop <-chan struct{}) {
	for {
		var env netEnvelope
		if err := dec.Decode(&env); err != nil {
			// EOF after Done is the normal hang-up; the attempt loop
			// ignores late errors once the verdict is in.
			select {
			case evc <- coordEvent{worker: worker, err: err}:
			case <-stop:
			}
			return
		}
		if env.Sink == nil && env.Done == nil {
			continue
		}
		select {
		case evc <- coordEvent{worker: worker, sink: env.Sink, done: env.Done}:
		case <-stop:
			return
		}
		if env.Done != nil {
			return
		}
	}
}

// onSink takes one cut of a sink: a cut below the committed count is a
// replay and is dropped, the next one commits, firing the rescale plan
// (errRescale) and the kill plan at their thresholds, and the trailing
// block waits for the attempt to succeed.
func (r *coordinator) onSink(attempt int, d *netSinkData, procs []netProc, exited []bool) error {
	ss := r.sinks[d.Sink]
	if ss == nil {
		ss = &sinkState{}
		r.sinks[d.Sink] = ss
	}
	if d.Cut.N > ss.cuts || ss.tail != nil {
		return fmt.Errorf("sink %s sent cut %d out of order (next is %d)", d.Sink, d.Cut.N, ss.cuts)
	}
	if ss.dec == nil {
		ss.dec = codec.NewBatchReader()
	}
	// Replays are decoded too: the attempt's frames share one encoder.
	rows, err := ss.dec.Decode(d.Frames, nil)
	defer func() {
		for _, b := range rows {
			b.Release()
		}
	}()
	switch {
	case err != nil:
		return fmt.Errorf("sink %s, cut %d: %w", d.Sink, d.Cut.N, err)
	case d.Cut.N < ss.cuts:
		r.replayedCuts++
		return nil
	case d.Cut.End:
		ss.tail = &collector{}
		ss.tail.add(d.Cut, rows)
		return nil
	}
	ss.col.add(d.Cut, rows)
	ss.cuts++
	if rp := r.opts.Rescale; rp != nil && !r.rescaled && r.totalCommitted() >= rp.AfterCuts {
		// The named cut is committed, on whichever attempt (a kill may
		// delay it past attempt 0): abort the attempt, and the next one
		// runs the revised spec and continues after that cut.
		r.rescaled = true
		return errRescale
	} else if k := r.opts.Kill; k != nil && attempt == 0 && !r.killed && r.totalCommitted() >= k.AfterCuts {
		r.killed = true
		r.logf("storm: kill plan firing: killing worker %d after %d committed cuts", k.Worker, k.AfterCuts)
		if procs[k.Worker] != nil && !exited[k.Worker] {
			_ = procs[k.Worker].Kill()
		}
	}
	return nil
}

func (r *coordinator) totalCommitted() int {
	n := 0
	for _, ss := range r.sinks {
		n += int(ss.cuts)
	}
	return n
}

// rebuildStats reconstructs a metrics.Stats from the workers' final
// reports.
func rebuildStats(dones []*netDone) *metrics.Stats {
	stats := metrics.NewStats()
	for _, d := range dones {
		stats.AddWire(d.Wire)
		for _, s := range d.Summaries {
			is := stats.Instance(s.Component, s.Instance)
			is.AddExecuted(s.Executed)
			is.AddEmitted(s.Emitted)
			is.AddBusy(time.Duration(s.BusyNs))
			is.AddRestarts(s.Restarts)
			is.AddReplayed(s.Replayed)
			is.AddDropped(s.Dropped)
			is.AddCombinedIn(s.CombIn)
			is.AddCombinedOut(s.CombOut)
			is.AddCuts(s.Cuts)
		}
	}
	return stats
}
