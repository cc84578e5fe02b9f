package storm

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"datatrace/internal/codec"
	"datatrace/internal/stream"
)

// This file is the worker half of the networked runtime. A worker
// process rebuilds the topology (from whatever application-level spec
// its spawner put in the environment — the runtime treats it as
// opaque), then ServeWorker runs the locally placed executors: it
// opens a data listener, checks in with the coordinator, dials its
// peers, and bridges remote edges through the frame transport while
// local edges stay plain channels. Sink instances stream their
// collected output to the coordinator as it arrives, cut by cut, so
// the coordinator can commit prefixes at marker granularity and
// splice replays after a process failure.

// Environment variable names of the worker spawn contract
// (RunNetworked sets them; WorkerEnvConfig reads them).
const (
	EnvCoordAddr = "DTT_NET_COORD"
	EnvWorkerID  = "DTT_NET_WORKER"
	EnvWorkers   = "DTT_NET_WORKERS"
	EnvAttempt   = "DTT_NET_ATTEMPT"
	EnvSpec      = "DTT_NET_SPEC"
)

// WorkerConfig tells ServeWorker which worker this process is and
// where the coordinator listens.
type WorkerConfig struct {
	CoordAddr string
	Worker    int
	Workers   int
	// Attempt is the coordinator's restart epoch, echoed in the hello
	// so stragglers from a killed attempt are rejected.
	Attempt int
	// Logf receives worker lifecycle logging; nil discards.
	Logf func(format string, args ...any)
}

// WorkerEnvConfig reads the spawn contract from the environment. ok
// is false when the process was not spawned as a worker; spec is the
// opaque application payload (NetOptions.Spec).
func WorkerEnvConfig() (cfg WorkerConfig, spec string, ok bool) {
	addr := os.Getenv(EnvCoordAddr)
	if addr == "" {
		return WorkerConfig{}, "", false
	}
	id, _ := strconv.Atoi(os.Getenv(EnvWorkerID))
	n, _ := strconv.Atoi(os.Getenv(EnvWorkers))
	at, _ := strconv.Atoi(os.Getenv(EnvAttempt))
	return WorkerConfig{CoordAddr: addr, Worker: id, Workers: n, Attempt: at}, os.Getenv(EnvSpec), true
}

// inboxRef is one locally hosted executor's delivery point for the
// frame dispatcher.
type inboxRef struct {
	ch    chan *[]message
	depth *atomic.Int64
}

// workerNet is a worker process's networked-transport state: the
// outgoing links per peer and the dispatch table from global executor
// index to local inbox.
type workerNet struct {
	workers int
	self    int
	obs     bool
	links   []*netLink
	byGID   map[int]inboxRef
	// failc surfaces the first dispatcher/transport failure;
	// ServeWorker aborts the process-local run on it.
	failc chan error
}

func (w *workerNet) register(gid int, ch chan *[]message, depth *atomic.Int64) {
	w.byGID[gid] = inboxRef{ch: ch, depth: depth}
}

// sinkTo resolves the vectorSink of a remote destination instance.
func (w *workerNet) sinkTo(rc *runtimeComponent, k int) vectorSink {
	return netSink{link: w.links[rc.workerOf[k]], dest: rc.gids[k]}
}

func (w *workerNet) fail(err error) {
	select {
	case w.failc <- err:
	default:
	}
}

// dispatch serves one inbound data connection: it decodes frames and
// delivers each as a pooled vector to the destination executor's
// inbox (a blocking send — inbound backpressure propagates to the
// remote sender through TCP).
func (w *workerNet) dispatch(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return // peer connected and vanished before identifying
	}
	peer := int(binary.BigEndian.Uint32(hdr[:]))
	dec := codec.NewFrameDecoder(br)
	for {
		var f codec.Frame
		err := dec.Decode(&f)
		if err == io.EOF {
			return // peer finished and closed its link
		}
		if err != nil {
			w.fail(fmt.Errorf("inbound frame from worker %d: %w", peer, err))
			return
		}
		ref, ok := w.byGID[int(f.Dest)]
		if !ok {
			w.fail(fmt.Errorf("frame from worker %d addressed to executor %d, which is not hosted here", peer, f.Dest))
			return
		}
		bp := frameToBatch(f.Msgs)
		if w.obs && ref.depth != nil {
			ref.depth.Add(vecWeight(*bp))
		}
		ref.ch <- bp
	}
}

// ctrlWriter serializes control-plane writes (the main worker
// goroutine and sink taps share the coordinator connection).
type ctrlWriter struct {
	mu  sync.Mutex
	enc *gob.Encoder
}

func (c *ctrlWriter) send(env netEnvelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enc.Encode(env)
}

// sinkTap accumulates one local sink's recorded events and streams
// them to the coordinator, flushing at every marker (the commit
// granularity) and at a size bound. observe runs under the sink's
// sinkMu from the single sink executor; the final flush runs after
// the run's executors have joined, so no locking beyond the control
// writer's is needed.
type sinkTap struct {
	sink string
	cw   *ctrlWriter
	buf  []codec.WireEvent
}

const sinkTapFlushAt = 512

func (tap *sinkTap) observe(e stream.Event) {
	tap.buf = append(tap.buf, codec.FromEvent(e))
	if e.IsMarker || len(tap.buf) >= sinkTapFlushAt {
		tap.flush()
	}
}

func (tap *sinkTap) flush() {
	if len(tap.buf) == 0 {
		return
	}
	events := make([]codec.WireEvent, len(tap.buf))
	copy(events, tap.buf)
	tap.buf = tap.buf[:0]
	// A control-plane write failure means the coordinator is gone; the
	// run's output no longer has a consumer and the coordinator (or its
	// death) will take this process down, so the tap does not escalate.
	_ = tap.cw.send(netEnvelope{Sink: &netSinkData{Sink: tap.sink, Events: events}})
}

// ServeWorker runs this process's share of the topology as one worker
// of a networked cluster. It returns after the run completes and the
// coordinator acknowledges (or hangs up), or with an error on any
// transport or executor failure — the coordinator treats a worker
// process exiting before its Done as an attempt failure.
func (t *Topology) ServeWorker(cfg WorkerConfig) error {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Workers < 1 || cfg.Worker < 0 || cfg.Worker >= cfg.Workers {
		return fmt.Errorf("storm: worker id %d out of range for %d workers", cfg.Worker, cfg.Workers)
	}
	t.workers = cfg.Workers
	w := &workerNet{
		workers: cfg.Workers,
		self:    cfg.Worker,
		obs:     t.obs.Enabled,
		byGID:   map[int]inboxRef{},
		failc:   make(chan error, 1),
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("storm: worker %d: data listen: %w", cfg.Worker, err)
	}
	defer ln.Close()

	ctrl, err := net.Dial("tcp", cfg.CoordAddr)
	if err != nil {
		return fmt.Errorf("storm: worker %d: dial coordinator %s: %w", cfg.Worker, cfg.CoordAddr, err)
	}
	defer ctrl.Close()
	cw := &ctrlWriter{enc: gob.NewEncoder(ctrl)}
	ctrlDec := gob.NewDecoder(ctrl)
	hello := netEnvelope{Hello: &netHello{Worker: cfg.Worker, Attempt: cfg.Attempt, DataAddr: ln.Addr().String()}}
	if err := cw.send(hello); err != nil {
		return fmt.Errorf("storm: worker %d: hello: %w", cfg.Worker, err)
	}
	var start netEnvelope
	if err := ctrlDec.Decode(&start); err != nil {
		return fmt.Errorf("storm: worker %d: waiting for start: %w", cfg.Worker, err)
	}
	if start.Start == nil {
		return fmt.Errorf("storm: worker %d: expected start message", cfg.Worker)
	}
	if len(start.Start.Peers) != cfg.Workers {
		return fmt.Errorf("storm: worker %d: start lists %d peers, want %d", cfg.Worker, len(start.Start.Peers), cfg.Workers)
	}

	// Outgoing links to every peer. Dialing all pairs is quadratic in
	// workers but trivial at the cluster sizes this runtime targets;
	// links without traffic cost one idle connection.
	w.links = make([]*netLink, cfg.Workers)
	for p, addr := range start.Start.Peers {
		if p == cfg.Worker {
			continue
		}
		l, err := dialLink(addr, cfg.Worker)
		if err != nil {
			return fmt.Errorf("storm: worker %d: dial peer %d at %s: %w", cfg.Worker, p, addr, err)
		}
		w.links[p] = l
		defer l.close()
	}

	rts, err := t.resolve(w)
	if err != nil {
		return err
	}
	var taps []*sinkTap
	for _, name := range t.order {
		rc := rts[name]
		if rc.isSink && rc.localInst(0) {
			tap := &sinkTap{sink: rc.name, cw: cw}
			taps = append(taps, tap)
			rc.sinkTap = tap.observe
		}
	}

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed at worker shutdown
			}
			go w.dispatch(conn)
		}
	}()

	logf("storm: worker %d/%d serving %d executors, data %s", cfg.Worker, cfg.Workers, len(w.byGID), ln.Addr())
	type runOut struct {
		res *Result
		err error
	}
	runc := make(chan runOut, 1)
	go func() {
		res, err := t.execute(rts)
		runc <- runOut{res, err}
	}()

	var out runOut
	select {
	case out = <-runc:
	case err := <-w.failc:
		// A poisoned inbound stream would strand executors waiting on
		// frames that can never arrive; exiting the process is the
		// recovery signal the coordinator acts on.
		return fmt.Errorf("storm: worker %d: %w", cfg.Worker, err)
	}
	for _, tap := range taps {
		tap.flush()
	}

	done := &netDone{}
	if out.err != nil {
		done.Failure = out.err.Error()
	}
	if out.res != nil {
		for _, is := range out.res.Stats.Instances() {
			done.Summaries = append(done.Summaries, netSummary{
				Component: is.Component,
				Instance:  is.Instance,
				Executed:  is.Executed(),
				Emitted:   is.Emitted(),
				BusyNs:    int64(is.Busy()),
				Restarts:  is.Restarts(),
				Replayed:  is.Replayed(),
				Dropped:   is.Dropped(),
				CombIn:    is.CombinedIn(),
				CombOut:   is.CombinedOut(),
				Cuts:      is.Cuts(),
			})
		}
	}
	if err := cw.send(netEnvelope{Done: done}); err != nil {
		return fmt.Errorf("storm: worker %d: done report: %w", cfg.Worker, err)
	}
	// Hold links and listener open until the coordinator confirms the
	// whole cluster is done (or hangs up): peers may still be draining.
	var shutdown netEnvelope
	_ = ctrlDec.Decode(&shutdown)
	logf("storm: worker %d exiting", cfg.Worker)
	return out.err
}
