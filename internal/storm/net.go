package storm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"datatrace/internal/codec"
	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// This file is the sending half of the networked runtime's data plane:
// the TCP form of the edgeSink seam. Each ordered pair of workers
// shares one TCP connection (a netLink, dialled by the sender); a
// message crossing a worker boundary becomes one binary frame
// (codec/frame.go: one or two codec.Messages, the batch and the
// punctuation behind it; a batch of a wired kind as its columns' memory,
// any other — the universal kind's among them — through the counted gob
// fallback) addressed to the destination executor's global
// index. Per-(sender,channel) FIFO order is preserved: one connection
// per worker pair, frames encoded and queued atomically under the link
// lock, written in queue order, and delivered by the receiver in stream
// order.
//
// Backpressure is credits, not blocking writes. A sending worker holds,
// per destination executor, a window of ChannelCap credits, one per
// message in flight; an executor takes a credit before it encodes a
// message and waits — for that destination only — when the window is
// spent. The receiving worker returns credits as the destination's inbox
// accepts messages (networker.go), on the reverse direction of the same
// connection, which carries nothing else. So a worker never has more
// than ChannelCap messages per (peer, destination) beyond the destination
// inbox, the receiver can always take what arrives without blocking its
// frame dispatcher, and a stalled consumer stalls exactly the senders of
// its own edges — the shape of the in-process bounded channel, with the
// connection as a delay line, hence deadlock-free whenever the DAG is.
//
// No executor touches the socket. An executor encodes its frame into the
// link's pending buffer (memory only) and moves on; the link's writer
// goroutine swaps that buffer out and writes whatever accumulated —
// many frames per write under load, one per frame when idle — and parks
// when the buffer is empty. Pending bytes are bounded by the credit
// windows.
//
// Failure model: a socket error on either direction kills the link;
// every executor that subsequently sends on it (or is waiting for its
// credit) panics, having let go of the message, which the guard converts
// into executor failure, and the worker aborts (workerNet.fail) so the
// coordinator sees an attempt failure and recovers by restarting all
// workers (see netcoord.go). The one typed exception is
// codec.ErrUnregisteredType: it is detected before any byte is queued,
// leaves the link healthy, returns the credit, and fails only the
// emitting executor, which may then degrade per the drop-and-log policy.

// grantLen is the size of one credit grant on a link's reverse
// direction: the destination executor (u32) and the number of credits
// returned (u32), little-endian.
const grantLen = 8

// netLink is one data connection to a peer worker: frames out, credit
// grants back.
type netLink struct {
	conn net.Conn
	// onFail reports the link's first socket error to the worker.
	onFail func(error)
	// window is the credit window per destination executor.
	window int

	// mu guards the encoder, the pending buffer it appends to, the
	// conversion scratch and the gate table.
	mu      sync.Mutex
	enc     *codec.FrameEncoder
	pending []byte
	scratch [2]codec.Message
	gates   map[int]chan struct{}
	err     error
	// flushing tells the writer to exit once pending is empty; closed
	// marks socket errors as the echo of our own close.
	flushing, closed bool

	// wake (capacity 1) tells the writer that pending is non-empty or the
	// link is flushing; dead is closed on the first socket error.
	wake chan struct{}
	dead chan struct{}
	// writerDone and readerDone are closed when the goroutines exit.
	writerDone, readerDone chan struct{}

	writerBlocked, creditStall atomic.Int64
}

// dialLink connects to a peer's data address, identifies this worker
// with a fixed-size preamble and starts the link's writer and
// grant-reader goroutines.
func dialLink(addr string, self, window int, onFail func(error)) (*netLink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(self))
	if _, err := conn.Write(hdr[:]); err != nil {
		conn.Close()
		return nil, err
	}
	l := &netLink{
		conn: conn, onFail: onFail, window: window,
		gates: map[int]chan struct{}{},
		wake:  make(chan struct{}, 1),
		dead:  make(chan struct{}),

		writerDone: make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	l.enc = codec.NewFrameEncoder(l)
	go l.writeLoop()
	go l.readGrants()
	return l, nil
}

// Write is the encoder's view of the link: a frame is appended to the
// pending buffer (send holds mu around the encoder).
func (l *netLink) Write(p []byte) (int, error) {
	l.pending = append(l.pending, p...)
	return len(p), nil
}

// gate returns the credit window of one destination executor, creating
// it full. A credit is a token in the channel.
func (l *netLink) gate(dest int) chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	g := l.gates[dest]
	if g == nil {
		g = make(chan struct{}, l.window) // a counting semaphore: one slot per credit
		for i := 0; i < l.window; i++ {
			g <- struct{}{}
		}
		l.gates[dest] = g
	}
	return g
}

// acquire takes one credit, waiting while the destination's window is
// spent.
func (l *netLink) acquire(g chan struct{}) error {
	select {
	case <-g:
		return nil
	default:
	}
	t0 := time.Now()
	select {
	case <-g:
		l.creditStall.Add(int64(time.Since(t0)))
		return nil
	case <-l.dead:
		return l.failure()
	}
}

// send encodes one message for the destination executor into the
// pending buffer, as a frame of its batch and then its punctuation, and
// wakes the writer. It never blocks on the network.
func (l *netLink) send(dest int, m message) error {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	ws := l.scratch[:0]
	if m.cols != nil {
		ws = append(ws, codec.Message{Ch: m.ch, Sent: m.sent, Cols: m.cols})
	}
	if m.punct != noPunct {
		// The codec reads Ev only when the message is not EOS.
		ws = append(ws, codec.Message{Ch: m.ch, EOS: m.punct == eosPunct, Sent: m.sent, Ev: stream.Mark(m.mark)})
	}
	err := l.enc.EncodeVector(int32(dest), ws)
	clear(ws)
	if err != nil && !errors.Is(err, codec.ErrUnregisteredType) {
		l.err = err // the encoder's stream state is no longer the peer's
	}
	l.mu.Unlock()
	if err == nil {
		l.kick()
	}
	return err
}

func (l *netLink) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// writeLoop is the link's writer goroutine: it writes what executors
// queued, everything pending in one Write, and parks when nothing is.
func (l *netLink) writeLoop() {
	defer close(l.writerDone)
	var out []byte
	for {
		l.mu.Lock()
		out, l.pending = l.pending, out[:0]
		flushing := l.flushing
		l.mu.Unlock()
		if len(out) == 0 {
			if flushing {
				return
			}
			<-l.wake
			continue
		}
		t0 := time.Now()
		_, err := l.conn.Write(out)
		l.writerBlocked.Add(int64(time.Since(t0)))
		if err != nil {
			l.fail(fmt.Errorf("write: %w", err))
			return
		}
	}
}

// readGrants is the link's reverse direction: it returns the credits
// the peer grants to their windows. Putting a credit back never blocks;
// a grant that would overfill a window is a protocol error.
func (l *netLink) readGrants() {
	defer close(l.readerDone)
	var buf [grantLen]byte
	for {
		if _, err := io.ReadFull(l.conn, buf[:]); err != nil {
			l.fail(fmt.Errorf("reading credit grants: %w", err))
			return
		}
		dest, n := int(binary.LittleEndian.Uint32(buf[:4])), binary.LittleEndian.Uint32(buf[4:])
		l.mu.Lock()
		g := l.gates[dest]
		l.mu.Unlock()
		if g == nil || int(n) > cap(g)-len(g) {
			l.fail(fmt.Errorf("peer granted %d credits for executor %d beyond its window", n, dest))
			return
		}
		for ; n > 0; n-- {
			g <- struct{}{}
		}
	}
}

// fail records the link's first socket error, releases everyone waiting
// on the link and reports to the worker.
func (l *netLink) fail(err error) {
	l.mu.Lock()
	if l.err != nil || l.closed {
		l.mu.Unlock()
		return
	}
	l.err = err
	l.mu.Unlock()
	close(l.dead)
	l.onFail(err)
}

func (l *netLink) failure() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// flush waits until every queued frame has been written (or the link
// has failed) and returns the link's error. Nothing may be sent after
// it; the reverse direction keeps being read until close, so the peer,
// which may still be consuming what was written, never sees a reset.
func (l *netLink) flush() error {
	l.mu.Lock()
	l.flushing = true
	l.mu.Unlock()
	l.kick()
	<-l.writerDone
	return l.failure()
}

// close closes the connection, fails whoever still waits on the link and
// waits for the link's goroutines.
func (l *netLink) close() {
	l.mu.Lock()
	l.flushing, l.closed = true, true
	if l.err == nil {
		l.err = errors.New("link closed")
		close(l.dead)
	}
	l.mu.Unlock()
	l.kick()
	l.conn.Close()
	<-l.writerDone
	<-l.readerDone
}

// wire returns the link's counters. The writer has exited (flush).
func (l *netLink) wire() metrics.WireStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return metrics.WireStats{
		Frames: l.enc.Frames, Bytes: l.enc.Bytes,
		TypedRows: l.enc.TypedRows, FallbackRows: l.enc.FallbackRows,
		WriterBlocked: time.Duration(l.writerBlocked.Load()),
		CreditStall:   time.Duration(l.creditStall.Load()),
	}
}

// netSink is the edgeSink of a remote destination: it takes a credit of
// the destination's window, queues the message's frame on the
// destination worker's link and releases the batch (nothing downstream
// in this process will consume it). A send error panics in the calling
// executor, whose guard applies the configured degradation or failure
// policy.
type netSink struct {
	link *netLink
	dest int
	gate chan struct{}
}

func (s netSink) deliver(m message) {
	err := s.link.acquire(s.gate)
	if err == nil {
		if err = s.link.send(s.dest, m); errors.Is(err, codec.ErrUnregisteredType) {
			s.gate <- struct{}{} // nothing was queued: the credit is still ours
		}
	}
	// The batch is released only after send returns: the frame encoder
	// copies its columns during the call.
	if m.cols != nil {
		m.cols.Release()
	}
	if err != nil {
		panic(fmt.Errorf("net transport: send to executor %d: %w", s.dest, err))
	}
}

// Control-plane messages, gob-encoded over each worker's coordinator
// connection. netEnvelope is the single top-level frame; exactly one
// field is set per message.
type netEnvelope struct {
	Hello    *netHello
	Start    *netStart
	Sink     *netSinkData
	Done     *netDone
	Shutdown bool
}

// netHello is the worker's first message: its identity, the data
// address peers should dial, and the attempt cookie the coordinator
// uses to reject stragglers from a killed attempt.
type netHello struct {
	Worker   int
	Attempt  int
	DataAddr string
}

// netStart releases the workers once all have checked in; Peers[i] is
// worker i's data address.
type netStart struct {
	Peers []string
}

// netSinkData carries one cut of one sink to the coordinator: the cut,
// and its batches as frames of the sink's codec.BatchWriter.
type netSinkData struct {
	Sink   string
	Cut    Cut
	Frames []byte
}

// netSummary is one executor's final counters.
type netSummary struct {
	Component string
	Instance  int
	Executed  int64
	Emitted   int64
	BusyNs    int64
	Restarts  int64
	Replayed  int64
	Dropped   int64
	CombIn    int64
	CombOut   int64
	Cuts      int64
}

// netDone reports a worker's run completion: its executors' counters
// and its outgoing links' summed. Failure carries the executor (or link
// flush) error text when the local run failed.
type netDone struct {
	Summaries []netSummary
	Wire      metrics.WireStats
	Failure   string
}
