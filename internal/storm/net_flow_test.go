package storm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"datatrace/internal/codec"
	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// This file tests the networked data plane's flow control and failure
// typing below the coordinator: one receiving workerNet on a real
// loopback listener, driven by a real netLink or by hand-written bytes.

// flowWorker is worker 1 of 2 with the given inboxes registered and its
// transport serving on a loopback listener.
func flowWorker(t *testing.T, window int, inboxes map[int]chan message) (*workerNet, net.Listener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("environment forbids localhost TCP sockets (%v)", err)
	}
	w := newWorkerNet(2, 1, window, false)
	for gid, ch := range inboxes {
		w.register(gid, ch, nil)
	}
	w.serve(ln)
	t.Cleanup(func() {
		ln.Close()
		w.close()
	})
	return w, ln
}

func oneItemMessage(i int) message {
	c := stream.AnyKind.Get()
	c.AppendEvent(stream.Item(int64(i), int64(i)))
	return message{ch: 0, cols: c}
}

// TestDispatcherNeverBlocksOnFullInbox pins the invariant the credit
// windows exist for. One destination's inbox is held full; the sender of
// that edge must stall on its spent window, with a bounded number of
// messages in flight, while messages for a second destination on the same
// connection — behind the first destination's in the byte stream — keep
// arriving for as long as anyone looks: the frame dispatcher is never
// parked on the full inbox. Draining the inbox then restarts its sender.
func TestDispatcherNeverBlocksOnFullInbox(t *testing.T) {
	const window, stuck, live = 2, 10, 11
	stuckInbox := make(chan message, 1)
	liveInbox := make(chan message, 1)
	_, ln := flowWorker(t, window, map[int]chan message{stuck: stuckInbox, live: liveInbox})

	var linkErr atomic.Value
	link, err := dialLink(ln.Addr().String(), 0, window, func(err error) { linkErr.Store(err) })
	if err != nil {
		t.Fatal(err)
	}
	defer link.close()

	stop := make(chan struct{})
	var sentStuck, sentLive, gotLive atomic.Int64
	sender := func(dest int, sent *atomic.Int64) {
		sink := netSink{link: link, dest: dest, gate: link.gate(dest)}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// A closed link panics out of deliver, as it would out of an
			// executor; that is how these goroutines end.
			func() {
				defer func() { _ = recover() }()
				sink.deliver(oneItemMessage(i))
				sent.Add(1)
			}()
		}
	}
	go sender(stuck, &sentStuck)
	go sender(live, &sentLive)
	drain := func(inbox chan message, got *atomic.Int64) {
		for {
			select {
			case m := <-inbox:
				m.cols.Release()
				got.Add(1)
			case <-stop:
				return
			}
		}
	}
	go drain(liveInbox, &gotLive)
	defer close(stop)

	// The stuck edge's sender runs out of credit: one message in the inbox,
	// one in the pump's hand, and a window's worth behind them.
	waitFor(t, "the stuck edge's sender to stall", func() bool { return sentStuck.Load() >= window })
	time.Sleep(20 * time.Millisecond)
	stalledAt := sentStuck.Load()
	if stalledAt > 2*window+2 {
		t.Fatalf("%d messages sent into a full inbox with a window of %d", stalledAt, window)
	}
	before := gotLive.Load()
	time.Sleep(100 * time.Millisecond)
	if n := sentStuck.Load(); n != stalledAt {
		t.Fatalf("the stuck edge's sender went from %d to %d messages with the inbox held full", stalledAt, n)
	}
	if n := gotLive.Load() - before; n < 100 {
		t.Fatalf("only %d messages reached the second destination in 100 ms with the first one's inbox full", n)
	}
	if len(stuckInbox) != cap(stuckInbox) {
		t.Fatal("the full inbox is not full")
	}

	// Credits flow again as soon as the destination dequeues.
	go drain(stuckInbox, new(atomic.Int64))
	waitFor(t, "the stuck edge's sender to resume", func() bool { return sentStuck.Load() > stalledAt+int64(10*window) })
	if err := linkErr.Load(); err != nil {
		t.Fatalf("link failed: %v", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// rawPeer dials a worker's data listener as worker 0 by hand.
func rawPeer(t *testing.T, ln net.Listener) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	return conn
}

func wantFailure(t *testing.T, w *workerNet, want error) {
	t.Helper()
	select {
	case err := <-w.failc:
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("worker failed with %v, want %v", err, want)
		}
		t.Logf("worker failed, typed: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the worker did not fail")
	}
}

// TestDispatcherFailsTyped feeds a worker frames no healthy peer would
// send. Each must surface as the worker's failure (which ServeWorker
// turns into an attempt failure with this cause), typed where the codec
// types it — not as a panic on the dispatcher goroutine, which would
// take the whole process down without a word.
func TestDispatcherFailsTyped(t *testing.T) {
	kind := stream.ColKindFor[int64, int64]()
	batch := kind.Get().(*stream.Cols[int64, int64])
	batch.Append(1, 2)
	defer batch.Release()
	var valid bytes.Buffer
	if err := codec.NewFrameEncoder(&valid).EncodeVector(10, []codec.Message{{Cols: batch}}); err != nil {
		t.Fatal(err)
	}
	name := []byte(kind.Name())

	t.Run("unknown kind", func(t *testing.T) {
		w, ln := flowWorker(t, 2, map[int]chan message{10: make(chan message, 1)})
		frame := bytes.Replace(valid.Bytes(), name, bytes.Replace(name, []byte("cols"), []byte("colz"), 1), 1)
		if _, err := rawPeer(t, ln).Write(frame); err != nil {
			t.Fatal(err)
		}
		wantFailure(t, w, codec.ErrUnknownKind)
	})
	t.Run("layout mismatch", func(t *testing.T) {
		w, ln := flowWorker(t, 2, map[int]chan message{10: make(chan message, 1)})
		frame := append([]byte(nil), valid.Bytes()...)
		frame[bytes.Index(frame, name)+len(name)] ^= 0xff // first byte of the fingerprint
		if _, err := rawPeer(t, ln).Write(frame); err != nil {
			t.Fatal(err)
		}
		wantFailure(t, w, codec.ErrLayoutMismatch)
	})
	t.Run("column past the frame", func(t *testing.T) {
		w, ln := flowWorker(t, 2, map[int]chan message{10: make(chan message, 1)})
		frame := append([]byte(nil), valid.Bytes()...)
		rows := bytes.Index(frame, name) + len(name) + 8
		binary.LittleEndian.PutUint32(frame[rows:], 1000)
		if _, err := rawPeer(t, ln).Write(frame); err != nil {
			t.Fatal(err)
		}
		wantFailure(t, w, codec.ErrShortFrame)
	})
	t.Run("unhosted destination", func(t *testing.T) {
		w, ln := flowWorker(t, 2, map[int]chan message{11: make(chan message, 1)})
		if _, err := rawPeer(t, ln).Write(valid.Bytes()); err != nil {
			t.Fatal(err)
		}
		wantFailure(t, w, nil)
	})
	t.Run("window overrun", func(t *testing.T) {
		// A peer that ignores its credits: the inbox takes one message, the
		// pump holds one, the ingress queue two, and the fifth has nowhere
		// to go — the dispatcher reports it instead of waiting.
		w, ln := flowWorker(t, 2, map[int]chan message{10: make(chan message, 1)})
		conn := rawPeer(t, ln)
		enc := codec.NewFrameEncoder(conn)
		for i := 0; i < 8; i++ {
			if err := enc.EncodeVector(10, []codec.Message{{Ev: stream.Mark(stream.Marker{Seq: int64(i)})}}); err != nil {
				break // the worker hung up on us already
			}
		}
		wantFailure(t, w, nil)
	})
	// A runtime frame is one message: a batch, a punctuation, or a batch
	// and the punctuation that closes it. Anything else is a protocol error.
	for _, shape := range []struct {
		name string
		msgs []codec.Message
	}{
		{"no message", nil},
		{"two batches", []codec.Message{{Cols: batch}, {Cols: batch}}},
		{"batch after a punctuation", []codec.Message{{Ev: stream.Mark(stream.Marker{Seq: 1})}, {Cols: batch}}},
		{"boxed item", []codec.Message{{Ev: stream.Item(int64(1), int64(2))}}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			w, ln := flowWorker(t, 2, map[int]chan message{10: make(chan message, 1)})
			if err := codec.NewFrameEncoder(rawPeer(t, ln)).EncodeVector(10, shape.msgs); err != nil {
				t.Fatal(err)
			}
			wantFailure(t, w, errFrameShape)
		})
	}
}

// deadLinkSender is a spout component on worker 0 of 2 whose only
// subscriber, one instance on worker 1, sits behind a link that has been
// closed.
func deadLinkSender(t *testing.T) *runtimeComponent {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("environment forbids localhost TCP sockets (%v)", err)
	}
	t.Cleanup(func() { ln.Close() })
	link, err := dialLink(ln.Addr().String(), 0, 2, func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	link.close()
	w := newWorkerNet(2, 0, 2, false)
	w.links[1] = link
	recv := &runtimeComponent{component: &component{name: "dst", parallelism: 1}, net: w, workerOf: []int{1}, gids: []int{1}}
	recv.inboxes, recv.depths = make([]chan message, 1), make([]atomic.Int64, 1)
	src := &component{name: "src", parallelism: 1, spout: func(int) Spout { return SliceSpout(nil) }}
	send := &runtimeComponent{component: src, net: w, workerOf: []int{0}, gids: []int{0}}
	send.subs = []subscription{{to: recv, grouping: Shuffle}}
	return send
}

// TestDeadLinkFlushLeavesNothingBuffered: a flush into a failed link
// panics out of the emitter, as it does out of an executor, and leaves
// the emitter holding nothing — no open batch, no pending row — that a
// later flush, or a replay after a restart, would write into again.
func TestDeadLinkFlushLeavesNothingBuffered(t *testing.T) {
	em := newEmitter(deadLinkSender(t), 0, metrics.NewStats().Instance("src", 0), nil)
	for i := 0; i < 10; i++ {
		em.emit(stream.Item(i, i))
	}
	if em.pending != 10 {
		t.Fatalf("%d events pending before the flush, want 10", em.pending)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a flush into a closed link did not panic")
			}
		}()
		em.flushAll()
	}()
	if held := heldBy(em); held != "" {
		t.Fatalf("after the failed flush the emitter still holds output: %s", held)
	}
}

// TestSpoutEOSIntoDeadLinkFails: a spout whose end-of-stream notice cannot
// be delivered — its only subscriber sits behind a failed link — returns
// the send error instead of panicking its goroutine (which would take the
// worker process down without a typed error).
func TestSpoutEOSIntoDeadLinkFails(t *testing.T) {
	err := runSpout(deadLinkSender(t), 0, metrics.NewStats().Instance("src", 0), nil, RecoveryPolicy{}, nil, nil)
	if err == nil {
		t.Fatal("the spout's EOS went into a closed link and the spout reported no error")
	}
	t.Logf("spout failed: %v", err)
}

// flowTopology is an all-typed topology: column sources, a column bolt
// and a sink fed over a columnar edge, so that between two workers only
// raw column batches, markers and EOS notices cross.
func flowTopology() *Topology {
	codec.Register(satVal{}) // the sink's output reaches the coordinator as gob
	top := NewTopology("net-typed")
	top.AddSpout("src", 2, func(int) Spout { return &satSpout{rows: 4096, perMarker: 1024} })
	top.AddBolt("mid", 2, func(int) Bolt { return &satSlowPass{} }).ShuffleGrouping("src", true).ColumnarWith(satKind)
	top.AddSink("sink", "mid").ColumnarWith(satKind)
	return top
}

// TestRunNetworkedGoroutineWorkersWireCounters checks that the links
// account for what they carried, and that the gob fallback cannot hide:
// it is zero when every cross-worker edge has a wire layout and counts
// every boxed item when one does not.
func TestRunNetworkedGoroutineWorkersWireCounters(t *testing.T) {
	typed, err := RunNetworked(NetOptions{Workers: 2, spawn: spawnGoroutine(flowTopology), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(typed.Sinks["sink"]); n != 2*4096+4 {
		t.Fatalf("typed topology delivered %d sink events, want %d", n, 2*4096+4)
	}
	wire := typed.Stats.Wire()
	t.Logf("typed topology: %+v", wire)
	// Half of each source's rows cross to the other worker's mid, and
	// mid[1]'s output (half of everything) crosses to the sink.
	if wire.FallbackRows != 0 || wire.TypedRows != 2*4096 {
		t.Fatalf("typed topology sent %d typed and %d fallback rows, want %d and 0", wire.TypedRows, wire.FallbackRows, 2*4096)
	}
	if wire.Frames == 0 || wire.Bytes < wire.TypedRows*72 {
		t.Fatalf("%d frames and %d bytes for %d rows of 72 bytes", wire.Frames, wire.Bytes, wire.TypedRows)
	}

	boxed, err := RunNetworked(NetOptions{Workers: 2, spawn: spawnGoroutine(netTestTopology), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	wire = boxed.Stats.Wire()
	t.Logf("boxed topology: %+v", wire)
	if wire.FallbackRows == 0 || wire.TypedRows != 0 {
		t.Fatalf("boxed topology sent %d typed and %d fallback rows, want 0 and > 0", wire.TypedRows, wire.FallbackRows)
	}

	local, err := RunNetworked(NetOptions{Workers: 1, spawn: spawnGoroutine(netTestTopology), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if wire := local.Stats.Wire(); wire.Frames != 0 {
		t.Fatalf("a one-worker run put %d frames on links it does not have", wire.Frames)
	}
}
