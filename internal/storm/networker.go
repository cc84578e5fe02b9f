package storm

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"datatrace/internal/codec"
)

// This file is the worker half of the networked runtime. A worker
// process rebuilds the topology (from whatever application-level spec
// its spawner put in the environment — the runtime treats it as
// opaque), then ServeWorker runs the locally placed executors: it
// opens a data listener, checks in with the coordinator, dials its
// peers, and bridges remote edges through the frame transport while
// local edges stay plain channels. A sink sends each cut it delivers
// to the coordinator, numbered (sinkStream), which keeps each cut once
// across the attempts of a restarted cluster.
//
// It is also the receiving half of the data plane (net.go has the
// sending half and the flow-control argument): per inbound connection a
// dispatcher that decodes frames and never waits on anything but its
// socket, and per hosted executor a pump that feeds the inbox from the
// executor's ingress queue and returns the senders' credits.

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
// frame dispatchers: messages from peers queue on ingress, whose
// capacity is the peers' credit windows together, so a dispatcher's send
// never blocks; the executor's pump moves them into the inbox.
type inboxRef struct {
	ch      chan message
	depth   *atomic.Int64
	ingress chan inbound
}

// inbound is one received message, the worker that sent it and the
// connection its credit returns on.
type inbound struct {
	m    message
	peer int
	conn net.Conn
}

// workerNet is a worker process's networked-transport state: the
// outgoing links per peer and the dispatch table from global executor
// index to local inbox.
type workerNet struct {
	workers int
	self    int
	obs     bool
	// window is the credit window per (sending worker, destination
	// executor): the inbox capacity, so a remote edge buffers what a local
	// one does.
	window int
	links  []*netLink
	byGID  map[int]inboxRef
	// failc surfaces the first dispatcher/transport failure;
	// ServeWorker aborts the process-local run on it.
	failc chan error

	// stop ends the pumps; mu guards the inbound connections close shuts;
	// wg counts the accept loop, the dispatchers and the pumps.
	stop    chan struct{}
	mu      sync.Mutex
	inbound []net.Conn
	closed  bool
	wg      sync.WaitGroup
}

func newWorkerNet(workers, self, window int, obs bool) *workerNet {
	return &workerNet{
		workers: workers, self: self, window: window, obs: obs,
		links: make([]*netLink, workers),
		byGID: map[int]inboxRef{},
		failc: make(chan error, 1),
		stop:  make(chan struct{}),
	}
}

func (w *workerNet) register(gid int, ch chan message, depth *atomic.Int64) {
	// Sized to the number of sends that can be outstanding: every peer's
	// whole window.
	ingress := make(chan inbound, (w.workers-1)*w.window)
	w.byGID[gid] = inboxRef{ch: ch, depth: depth, ingress: ingress}
}

// sinkTo resolves the edgeSink of a remote destination instance.
func (w *workerNet) sinkTo(rc *runtimeComponent, k int) edgeSink {
	l := w.links[rc.workerOf[k]]
	return netSink{link: l, dest: rc.gids[k], gate: l.gate(rc.gids[k])}
}

func (w *workerNet) fail(err error) {
	select {
	case w.failc <- err:
	default:
	}
}

// serve accepts the peers' data connections and starts every hosted
// executor's pump; close undoes it.
func (w *workerNet) serve(ln net.Listener) {
	for gid, ref := range w.byGID {
		w.wg.Add(1)
		go w.pump(gid, ref)
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed at worker shutdown
			}
			w.mu.Lock()
			if w.closed {
				w.mu.Unlock()
				conn.Close()
				return
			}
			w.inbound = append(w.inbound, conn)
			w.wg.Add(1)
			w.mu.Unlock()
			go w.dispatch(conn)
		}
	}()
}

// dispatch serves one inbound data connection: it decodes frames and
// queues each as one message on the destination executor's ingress.
// The queue has room for every message the peer holds a credit for, so
// the send cannot block — a dispatcher only ever waits for the socket —
// and a peer overrunning its window, like a frame that is not one
// message, is a protocol error.
func (w *workerNet) dispatch(conn net.Conn) {
	defer w.wg.Done()
	defer conn.Close()
	// Sized to take many coalesced frames per read.
	br := bufio.NewReaderSize(conn, 64<<10)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return // peer connected and vanished before identifying
	}
	peer := int(binary.BigEndian.Uint32(hdr[:]))
	if peer < 0 || peer >= w.workers {
		w.fail(fmt.Errorf("data connection from worker %d of %d", peer, w.workers))
		return
	}
	dec := codec.NewFrameDecoder(br)
	var msgs []codec.Message
	for {
		dest, ms, err := dec.DecodeVector(msgs[:0])
		if err == io.EOF {
			return // peer finished and closed its link
		}
		if err != nil {
			w.fail(fmt.Errorf("inbound frame from worker %d: %w", peer, err))
			return
		}
		m, err := fromWire(ms)
		clear(ms)
		msgs = ms
		if err != nil {
			w.fail(fmt.Errorf("inbound frame from worker %d: %w", peer, err))
			return
		}
		ref, ok := w.byGID[int(dest)]
		if !ok {
			w.fail(fmt.Errorf("frame from worker %d addressed to executor %d, which is not hosted here", peer, dest))
			return
		}
		if w.obs && ref.depth != nil {
			ref.depth.Add(int64(m.weight()))
		}
		select {
		case ref.ingress <- inbound{m: m, peer: peer, conn: conn}:
		default:
			w.fail(fmt.Errorf("worker %d overran its window of %d messages to executor %d", peer, w.window, dest))
			return
		}
	}
}

// errFrameShape reports an inbound frame that is not one message: a
// batch, a marker or EOS, or a batch and the marker or EOS behind it,
// all on one channel.
var errFrameShape = errors.New("frame is not one message")

// fromWire assembles the one message a frame's codec messages make up.
func fromWire(ms []codec.Message) (m message, err error) {
	for i, w := range ms {
		switch {
		case m.punct != noPunct || i > 0 && w.Ch != m.ch:
			return message{}, errFrameShape
		case w.EOS:
			m.punct = eosPunct
		case w.Cols != nil && m.cols == nil:
			m.cols = w.Cols
		case w.Cols == nil && w.Ev.IsMarker:
			m.punct, m.mark = markPunct, w.Ev.Marker
		default: // a second batch, or a boxed item
			return message{}, errFrameShape
		}
		m.ch, m.sent = w.Ch, w.Sent
	}
	if m.cols == nil && m.punct == noPunct {
		err = errFrameShape
	}
	return m, err
}

// pump is the local stand-in for one executor's remote senders: it moves
// received messages from the ingress queue into the inbox — blocking
// where a local sender would, on a full inbox — and returns a credit to
// the sending worker for each one the inbox accepted. Credits go back in
// batches of half a window, written straight to the connection's
// otherwise idle reverse direction (the peer's grant reader never
// blocks, so neither does this write for long).
func (w *workerNet) pump(gid int, ref inboxRef) {
	defer w.wg.Done()
	batch := max(w.window/2, 1)
	owed := make([]int, w.workers)
	var grant [grantLen]byte
	binary.LittleEndian.PutUint32(grant[:4], uint32(gid))
	for {
		var in inbound
		select {
		case in = <-ref.ingress:
		case <-w.stop:
			return
		}
		select {
		case ref.ch <- in.m:
		case <-w.stop:
			return
		}
		if owed[in.peer]++; owed[in.peer] < batch {
			continue
		}
		binary.LittleEndian.PutUint32(grant[4:], uint32(owed[in.peer]))
		owed[in.peer] = 0
		if _, err := in.conn.Write(grant[:]); err != nil {
			w.fail(fmt.Errorf("granting credits to worker %d: %w", in.peer, err))
			return
		}
	}
}

// close shuts the transport down and waits for its goroutines: the
// links, the pumps, and — by closing the inbound connections — the
// dispatchers. The caller closes the listener first.
func (w *workerNet) close() {
	close(w.stop)
	for _, l := range w.links {
		if l != nil {
			l.close()
		}
	}
	w.mu.Lock()
	w.closed = true
	for _, c := range w.inbound {
		c.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
}

// ctrlWriter serializes control-plane writes (the main worker
// goroutine and the sink streams share the coordinator connection).
type ctrlWriter struct {
	mu  sync.Mutex
	enc *gob.Encoder
}

func (c *ctrlWriter) send(env netEnvelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enc.Encode(env)
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
	w := newWorkerNet(cfg.Workers, cfg.Worker, t.channelCap(), t.obs.Enabled)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("storm: worker %d: data listen: %w", cfg.Worker, err)
	}
	// Runs last: links, pumps and dispatchers are gone when ServeWorker
	// returns, on every path.
	defer w.close()
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
	for p, addr := range start.Start.Peers {
		if p == cfg.Worker {
			continue
		}
		l, err := dialLink(addr, cfg.Worker, w.window, func(err error) {
			w.fail(fmt.Errorf("link to worker %d: %w", p, err))
		})
		if err != nil {
			return fmt.Errorf("storm: worker %d: dial peer %d at %s: %w", cfg.Worker, p, addr, err)
		}
		w.links[p] = l
	}

	rts, err := t.resolve(w)
	if err != nil {
		return err
	}
	var sinks []*sinkStream
	t.newSink = func(name string) SinkFunc {
		sinks = append(sinks, &sinkStream{sink: name, cw: cw, w: codec.NewBatchWriter()})
		return sinks[len(sinks)-1].consume
	}

	w.serve(ln)

	logf("storm: worker %d/%d serving %d executors, data %s", cfg.Worker, cfg.Workers, len(w.byGID), ln.Addr())
	var res *Result
	runc := make(chan error, 1)
	go func() {
		var err error
		res, err = t.execute(rts)
		runc <- err
	}()

	var runErr error
	select {
	case runErr = <-runc:
	case err := <-w.failc:
		// A poisoned inbound stream would strand executors waiting on
		// frames that can never arrive; exiting the process is the
		// recovery signal the coordinator acts on.
		return fmt.Errorf("storm: worker %d: %w", cfg.Worker, err)
	}
	for _, s := range sinks {
		if s.err != nil && runErr == nil {
			runErr = fmt.Errorf("storm: worker %d: streaming sink %s to the coordinator: %w", cfg.Worker, s.sink, s.err)
		}
	}

	// The run is over when its frames are on the wire, not when they are
	// queued: a link that cannot take them fails the run.
	done := &netDone{}
	for p, l := range w.links {
		if l == nil {
			continue
		}
		if err := l.flush(); err != nil && runErr == nil {
			runErr = fmt.Errorf("storm: worker %d: link to worker %d: %w", cfg.Worker, p, err)
		}
		done.Wire.Add(l.wire())
	}
	if runErr != nil {
		done.Failure = runErr.Error()
	}
	if res != nil {
		for _, is := range res.Stats.Instances() {
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
	return runErr
}
