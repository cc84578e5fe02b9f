package storm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// This file proves the batched edge transport equivalent to the
// unbatched one at the unit level: a harness drives one emitter with
// scripted emit/marker/block/flush/EOS sequences and compares what
// reaches each (inbox, channel) against a BatchSize-1 emitter running
// the identical script. Routing is deterministic (round-robin
// cursors, the default key hash), so the comparison is exact
// per-channel equality — stronger than trace equivalence — which
// simultaneously checks FIFO order, no drop, no duplicate, and
// EOS-last, under arbitrary flush interleavings.

// transportPair is the unit harness: one sender instance with two
// edges (Shuffle and Fields, so both cursor-advancing and hashed
// routing are exercised) into one receiver component, driven directly
// without executor goroutines.
type transportPair struct {
	em   *emitter
	recv *runtimeComponent
}

func newTransportPair(tr TransportOptions, recvPar int) *transportPair {
	recv := &runtimeComponent{component: &component{name: "dst", parallelism: recvPar}}
	recv.inboxes = make([]chan message, recvPar)
	for i := range recv.inboxes {
		// Large enough that scripted runs never block (the harness has
		// no receiver goroutine to apply backpressure).
		recv.inboxes[i] = make(chan message, 1<<15)
	}
	recv.depths = make([]atomic.Int64, recvPar)
	recv.nChannels = 2
	send := &runtimeComponent{component: &component{name: "src", parallelism: 1}, transport: tr}
	send.workerOf = []int{-1}
	send.subs = []subscription{
		{to: recv, grouping: Shuffle, chBase: 0},
		{to: recv, grouping: Fields, chBase: 1},
	}
	return &transportPair{
		em:   newEmitter(send, 0, metrics.NewStats().Instance("src", 0), nil),
		recv: recv,
	}
}

// drainMessages returns the messages queued per inbox. Safe because the
// harness is single-threaded — nothing sends while draining.
func (p *transportPair) drainMessages() [][]message {
	out := make([][]message, len(p.recv.inboxes))
	for i, ch := range p.recv.inboxes {
		for len(ch) > 0 {
			out[i] = append(out[i], <-ch)
		}
	}
	return out
}

// drain is drainMessages with every message split into its parts — the
// batch, then the punctuation — each a message of its own.
func (p *transportPair) drain() [][]message {
	msgs := p.drainMessages()
	out := make([][]message, len(msgs))
	for i, ms := range msgs {
		for _, m := range ms {
			if m.cols != nil {
				out[i] = append(out[i], message{ch: m.ch, cols: m.cols, sent: m.sent})
			}
			if m.punct != noPunct {
				out[i] = append(out[i], message{ch: m.ch, punct: m.punct, mark: m.mark, sent: m.sent})
			}
		}
	}
	return out
}

// tOp is one scripted emitter operation.
type tOp struct {
	kind     byte // 0 emit item, 1 emit marker, 2 send block + flush, 3 flushAll, 4 emit typed batch
	key, val int
	blockLen int
}

// applyOps drives one emitter through the script and finishes with
// EOS. Flush ops are obeyed only when flushes is true: the batched
// side takes them (arbitrary interleavings), the BatchSize-1 model
// ignores them (its buffers are always empty anyway).
func applyOps(em *emitter, ops []tOp, flushes bool) {
	seq := int64(0)
	for _, op := range ops {
		switch op.kind {
		case 0:
			em.emit(stream.Item(op.key, op.val))
		case 1:
			seq++
			em.emit(mk(seq, seq))
		case 2:
			// A block as the recovery policy parks it: boxed emissions in
			// one universal batch, a typed batch, the marker.
			boxed, typed := stream.AnyKind.Get(), intKind.Get()
			for i := 0; i < op.blockLen; i++ {
				boxed.AppendEvent(stream.Item(op.key, op.val+i))
				typed.AppendEvent(stream.Item(op.key+i, op.val))
			}
			seq++
			em.send([]message{{cols: boxed}, {cols: typed}, {punct: markPunct, mark: stream.Marker{Seq: seq, Timestamp: seq}}})
			em.flushAll()
		case 3:
			if flushes {
				em.flushAll()
			}
		case 4:
			typed := intKind.Get()
			for i := 0; i <= op.blockLen; i++ {
				typed.AppendEvent(stream.Item(op.key+i, op.val))
			}
			em.emitCols(typed)
		}
	}
	em.eos()
}

func randomOps(r *rand.Rand, n int) []tOp {
	ops := make([]tOp, 0, n)
	for i := 0; i < n; i++ {
		switch k := r.Intn(10); {
		case k < 5:
			ops = append(ops, tOp{kind: 0, key: r.Intn(5), val: i})
		case k < 6:
			ops = append(ops, tOp{kind: 4, key: r.Intn(5), val: i, blockLen: r.Intn(4)})
		case k < 7:
			ops = append(ops, tOp{kind: 1})
		case k < 8:
			ops = append(ops, tOp{kind: 2, key: r.Intn(5), val: 1000 + i, blockLen: r.Intn(4)})
		default:
			ops = append(ops, tOp{kind: 3})
		}
	}
	return ops
}

// events expands one non-EOS part: a batch's rows, or the marker.
func (m message) events() []stream.Event {
	if m.cols == nil {
		return []stream.Event{stream.Mark(m.mark)}
	}
	evs := make([]stream.Event, m.cols.Len())
	for i := range evs {
		evs[i] = m.cols.EventAt(i)
	}
	return evs
}

// byChannel projects one inbox's flat message sequence per channel,
// batches expanded to rows, failing if any channel's EOS is not its
// final message.
func byChannel(t *testing.T, inbox int, msgs []message) map[int32][]stream.Event {
	t.Helper()
	out := map[int32][]stream.Event{}
	closed := map[int32]bool{}
	for _, m := range msgs {
		if closed[m.ch] {
			t.Fatalf("inbox %d channel %d received a message after its EOS", inbox, m.ch)
		}
		if m.punct == eosPunct {
			closed[m.ch] = true
			continue
		}
		out[m.ch] = append(out[m.ch], m.events()...)
	}
	return out
}

// runDifferential applies the same script to a batched and a
// BatchSize-1 emitter and requires identical per-(inbox, channel)
// event sequences.
func runDifferential(t *testing.T, tr TransportOptions, recvPar int, ops []tOp) {
	t.Helper()
	batched := newTransportPair(tr, recvPar)
	applyOps(batched.em, ops, true)
	if batched.em.pending != 0 {
		t.Fatalf("batched emitter has %d events still buffered after EOS", batched.em.pending)
	}
	model := newTransportPair(TransportOptions{BatchSize: 1, FlushInterval: -1}, recvPar)
	applyOps(model.em, ops, false)

	got, want := batched.drain(), model.drain()
	for i := range got {
		g, w := byChannel(t, i, got[i]), byChannel(t, i, want[i])
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("inbox %d: batched per-channel sequences differ from unbatched\nbatched:   %v\nunbatched: %v", i, g, w)
		}
	}
}

// TestTransportDifferentialRandomOps is the harness's main property
// run: random scripts with arbitrary flush interleavings across batch
// sizes and receiver widths must deliver exactly the unbatched
// per-channel sequences (FIFO, no drop, no duplicate, EOS last).
func TestTransportDifferentialRandomOps(t *testing.T) {
	for _, batch := range []int{2, 3, 5, 64, 1024} {
		for _, recvPar := range []int{1, 3} {
			for seed := int64(0); seed < 8; seed++ {
				name := fmt.Sprintf("batch=%d/par=%d/seed=%d", batch, recvPar, seed)
				t.Run(name, func(t *testing.T) {
					r := rand.New(rand.NewSource(seed))
					// Idle flush off: the harness is single-threaded, so
					// timer-based flushes are exercised by the topology
					// tests below instead.
					tr := TransportOptions{BatchSize: batch, FlushInterval: -1}
					runDifferential(t, tr, recvPar, randomOps(r, 300))
				})
			}
		}
	}
}

// TestBatchSizeOneSendsOneEventPerMessage checks the compatibility
// contract: BatchSize 1 sends every push immediately, so every message
// on the wire carries exactly one event — a one-row batch, a marker or
// EOS — and nothing is ever pending between emitter calls.
func TestBatchSizeOneSendsOneEventPerMessage(t *testing.T) {
	p := newTransportPair(TransportOptions{BatchSize: 1}, 2)
	r := rand.New(rand.NewSource(7))
	seq := int64(0)
	for i := 0; i < 200; i++ {
		if r.Intn(8) == 0 {
			seq++
			p.em.emit(mk(seq, seq))
		} else {
			p.em.emit(stream.Item(r.Intn(5), i))
		}
		if p.em.pending != 0 {
			t.Fatalf("BatchSize 1 left %d events pending", p.em.pending)
		}
	}
	p.em.eos()
	for i, msgs := range p.drainMessages() {
		for _, m := range msgs {
			if n := m.weight(); n != 1 {
				t.Fatalf("inbox %d received a message of %d events; BatchSize 1 must send one per message", i, n)
			}
		}
	}
}

// TestMarkerRidesWithTheBatchItCloses: rows below BatchSize and then a
// marker reach each destination as one message carrying both — one
// channel operation, not one for the batch and one for the marker.
func TestMarkerRidesWithTheBatchItCloses(t *testing.T) {
	p := newTransportPair(TransportOptions{BatchSize: 64, FlushInterval: -1}, 2)
	p.em.rc.subs = p.em.rc.subs[:1] // the Shuffle edge: rows reach both instances
	p.em.rebuildBufs()
	for i := 0; i < 10; i++ {
		p.em.emit(stream.Item(i, i))
	}
	p.em.emit(mk(1, 1))
	for i, msgs := range p.drainMessages() {
		if len(msgs) != 1 {
			t.Fatalf("inbox %d received %d messages, want one", i, len(msgs))
		}
		m := msgs[0]
		if m.cols == nil || m.cols.Len() != 5 || m.punct != markPunct || m.mark != mk(1, 1).Marker {
			t.Fatalf("inbox %d received %+v, want the 5 rows routed to it closed by marker 1", i, m)
		}
	}
}

// TestMarkerFlushesAllBuffers checks flush-on-marker: a marker emit
// must put every buffered event and the marker itself on the wire
// immediately (aligned consumers complete cuts on markers; one parked
// behind a partial batch would stall them).
func TestMarkerFlushesAllBuffers(t *testing.T) {
	p := newTransportPair(TransportOptions{BatchSize: 1 << 20, FlushInterval: -1}, 2)
	for i := 0; i < 50; i++ {
		p.em.emit(stream.Item(i%5, i))
	}
	p.em.emit(mk(1, 1))
	if p.em.pending != 0 {
		t.Fatalf("marker emit left %d events buffered", p.em.pending)
	}
	total, markers := 0, 0
	for _, msgs := range p.drain() {
		for _, m := range msgs {
			total += len(m.events())
			if m.cols == nil {
				markers++
			}
		}
	}
	// 50 items (each routed to both edges' targets once) + the marker
	// broadcast to every instance on both edges.
	if want := 50*2 + 2*2; total != want {
		t.Fatalf("drained %d events after marker flush, want %d", total, want)
	}
	if markers != 4 {
		t.Fatalf("drained %d marker copies, want 4 (broadcast on 2 edges × 2 instances)", markers)
	}
}

// TestEOSArrivesAfterBufferedEvents checks flush-on-EOS ordering: EOS
// must trail every event still buffered for its channel.
func TestEOSArrivesAfterBufferedEvents(t *testing.T) {
	p := newTransportPair(TransportOptions{BatchSize: 1 << 20, FlushInterval: -1}, 3)
	for i := 0; i < 100; i++ {
		p.em.emit(stream.Item(i%7, i))
	}
	p.em.eos()
	for i, msgs := range p.drain() {
		perCh := map[int]int{}
		for _, m := range msgs {
			perCh[int(m.ch)]++
		}
		// byChannel fails on any post-EOS message; also require every
		// channel to have seen its EOS.
		byChannel(t, i, msgs)
		for ch := 0; ch < p.recv.nChannels; ch++ {
			if perCh[ch] == 0 {
				t.Fatalf("inbox %d channel %d received no messages (EOS missing)", i, ch)
			}
		}
	}
}

// recordingBolt timestamps every event it sees, for the idle-flush
// liveness tests.
type recordingBolt struct {
	mu    sync.Mutex
	times []time.Time
	vals  []any
}

func (r *recordingBolt) Next(e stream.Event, emit func(stream.Event)) {
	r.mu.Lock()
	r.times = append(r.times, time.Now()) //lint:ignore DTT002 test harness: the idle-flush liveness tests measure real wall-clock latency; the timestamp never enters an output trace
	r.vals = append(r.vals, e.Value)
	r.mu.Unlock()
}

// sleepSpout produces nothing: it sleeps once, then ends its stream.
type sleepSpout struct{ d time.Duration }

func (s *sleepSpout) Next() (stream.Event, bool) {
	time.Sleep(s.d)
	return stream.Event{}, false
}

// TestIdleFlushBoltLiveness is the liveness half of the idle-flush
// contract: a relay bolt whose output buffer is far below BatchSize
// must still deliver downstream within roughly FlushInterval while
// one of its input edges stays silent — the buffered events may not
// wait for the quiet edge's EOS.
func TestIdleFlushBoltLiveness(t *testing.T) {
	const sleep = 600 * time.Millisecond
	items := make([]stream.Event, 40)
	for i := range items {
		items[i] = stream.Item(0, i)
	}
	rec := &recordingBolt{}
	top := NewTopology("idle-flush")
	top.SetTransport(TransportOptions{BatchSize: 1 << 20, FlushInterval: 5 * time.Millisecond})
	top.AddSpout("fast", 1, func(int) Spout { return SliceSpout(items) })
	top.AddSpout("slow", 1, func(int) Spout { return &sleepSpout{d: sleep} })
	top.AddBolt("relay", 1, identityBolt).ShuffleGrouping("fast", false).ShuffleGrouping("slow", false)
	top.AddBolt("rec", 1, func(int) Bolt { return rec }).ShuffleGrouping("relay", false)
	start := time.Now()
	if _, err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.vals) != len(items) {
		t.Fatalf("recorder saw %d events, want %d", len(rec.vals), len(items))
	}
	first := rec.times[0].Sub(start)
	if first >= sleep/2 {
		t.Fatalf("first relayed event arrived after %v; idle flush should beat the %v quiet edge by a wide margin", first, sleep)
	}
}

// slowSpout emits its events with a pause inside Next between them,
// modelling a low-rate source.
type slowSpout struct {
	events []stream.Event
	i      int
	pause  time.Duration
}

func (s *slowSpout) Next() (stream.Event, bool) {
	if s.i >= len(s.events) {
		return stream.Event{}, false
	}
	if s.i > 0 {
		time.Sleep(s.pause)
	}
	e := s.events[s.i]
	s.i++
	return e, true
}

// TestIdleFlushSpoutLiveness checks the spout half: a low-rate spout
// flushes between Next calls (tick), so early events reach downstream
// long before the source finishes.
func TestIdleFlushSpoutLiveness(t *testing.T) {
	const n, pause = 40, 5 * time.Millisecond // ~200ms total source time
	items := make([]stream.Event, n)
	for i := range items {
		items[i] = stream.Item(0, i)
	}
	rec := &recordingBolt{}
	top := NewTopology("idle-flush-spout")
	top.SetTransport(TransportOptions{BatchSize: 1 << 20, FlushInterval: 2 * time.Millisecond})
	top.AddSpout("src", 1, func(int) Spout { return &slowSpout{events: items, pause: pause} })
	top.AddBolt("rec", 1, func(int) Bolt { return rec }).ShuffleGrouping("src", false)
	start := time.Now()
	if _, err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.vals) != n {
		t.Fatalf("recorder saw %d events, want %d", len(rec.vals), n)
	}
	first := rec.times[0].Sub(start)
	if total := n * int(pause); first >= time.Duration(total)/2 {
		t.Fatalf("first event arrived after %v; spout tick flush should deliver far before the source's ~%v runtime", first, time.Duration(total))
	}
}

// TestTransportFIFOPerChannelConcurrent is the concurrent FIFO check
// (meaningful under -race): two sender instances stream strictly
// increasing values through batched edges; every receiver channel
// must observe its sender's values in order, at several batch sizes.
func TestTransportFIFOPerChannelConcurrent(t *testing.T) {
	for _, batch := range []int{2, 7, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			const n = 500
			rec := &chRecorder{seen: map[int][]int{}}
			top := NewTopology("fifo")
			top.SetTransport(TransportOptions{BatchSize: batch, FlushInterval: time.Millisecond})
			top.AddSpout("src", 2, func(inst int) Spout {
				events := make([]stream.Event, n)
				for i := range events {
					events[i] = stream.Item(inst, i)
				}
				return SliceSpout(events)
			})
			top.AddBolt("rec", 1, func(int) Bolt { return rec }).ShuffleGrouping("src", false)
			if _, err := top.Run(); err != nil {
				t.Fatal(err)
			}
			if len(rec.seen) != 2 {
				t.Fatalf("recorder saw %d channels, want 2", len(rec.seen))
			}
			for ch, vals := range rec.seen {
				if len(vals) != n {
					t.Fatalf("channel %d delivered %d values, want %d", ch, len(vals), n)
				}
				for i, v := range vals {
					if v != i {
						t.Fatalf("channel %d out of order at %d: got %d", ch, i, v)
					}
				}
			}
		})
	}
}

// chRecorder records values per input channel (ChannelBolt).
type chRecorder struct {
	mu   sync.Mutex
	seen map[int][]int
}

func (c *chRecorder) Next(e stream.Event, emit func(stream.Event)) {}
func (c *chRecorder) NextFrom(ch int, e stream.Event, emit func(stream.Event)) {
	c.mu.Lock()
	c.seen[ch] = append(c.seen[ch], e.Value.(int))
	c.mu.Unlock()
}

// FuzzBatchFlush drives random emit/marker/block/flush/EOS scripts
// decoded from fuzz input through a batched emitter and the
// BatchSize-1 model and requires identical per-(inbox, channel)
// delivery. The batch size itself comes from the input, so the fuzzer
// explores flush-on-size boundaries too.
func FuzzBatchFlush(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3, 10, 20, 30, 9, 17, 25, 33})
	f.Add(uint8(0), []byte{5, 5, 5, 5, 5})
	f.Add(uint8(1), []byte{0, 9, 1, 9, 2, 9})
	f.Add(uint8(64), []byte{40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 19, 29})
	f.Add(uint8(200), []byte{7, 3, 7, 3, 7, 3, 9})
	f.Add(uint8(3), []byte{0, 6, 1, 16, 2, 9, 26, 3, 36, 8, 4, 7, 6, 9})
	f.Fuzz(func(t *testing.T, rawBatch uint8, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		ops := make([]tOp, 0, len(script))
		for i, b := range script {
			switch b % 10 {
			case 9:
				ops = append(ops, tOp{kind: 1}) // marker
			case 8:
				ops = append(ops, tOp{kind: 3}) // flush (batched side only)
			case 7:
				ops = append(ops, tOp{kind: 2, key: int(b) % 5, val: 1000 + i, blockLen: int(b) % 4})
			case 6:
				ops = append(ops, tOp{kind: 4, key: int(b) % 5, val: i, blockLen: int(b) % 4}) // typed batch
			default:
				ops = append(ops, tOp{kind: 0, key: int(b) % 5, val: i})
			}
		}
		tr := TransportOptions{BatchSize: int(rawBatch), FlushInterval: -1}
		runDifferential(t, tr, 3, ops)
	})
}

// TestNegativeFlushIntervalDisablesIdleFlush pins the documented meaning
// of FlushInterval < 0: no idle flush, so a partial batch an idle bolt
// holds stays unsent until the next marker (or EOS) flushes it. The
// options used to be normalized twice, which turned a negative interval
// back into the default and flushed the batch after a millisecond.
func TestNegativeFlushIntervalDisablesIdleFlush(t *testing.T) {
	release := make(chan struct{})
	firstCut := make(chan struct{})
	var arrived atomic.Int64
	sent := 0
	top := NewTopology("no-idle-flush")
	top.SetTransport(TransportOptions{BatchSize: 1 << 20, FlushInterval: -1})
	// Two markers, the second held back until the test lets go.
	top.AddSpout("src", 1, func(int) Spout {
		return SpoutFunc(func() (stream.Event, bool) {
			switch sent++; sent {
			case 1:
				return stream.Mark(stream.Marker{Seq: 0}), true
			case 2:
				<-release
				return stream.Mark(stream.Marker{Seq: 1}), true
			}
			return stream.Event{}, false
		})
	})
	// trail forwards each marker and then emits one item behind it: a
	// partial batch left in its output buffer while it waits for input.
	top.AddBolt("trail", 1, func(int) Bolt {
		return BoltFunc(func(e stream.Event, emit func(stream.Event)) {
			emit(e)
			emit(stream.Item(0, e.Marker.Seq))
		})
	}).ShuffleGrouping("src", false)
	top.AddBolt("probe", 1, func(int) Bolt {
		return BoltFunc(func(e stream.Event, emit func(stream.Event)) {
			switch {
			case !e.IsMarker:
				arrived.Add(1)
			case e.Marker.Seq == 0:
				close(firstCut)
			}
		})
	}).ShuffleGrouping("trail", false)

	done := make(chan error, 1)
	go func() {
		_, err := top.Run()
		done <- err
	}()
	<-firstCut
	time.Sleep(50 * DefaultFlushInterval)
	if n := arrived.Load(); n != 0 {
		t.Errorf("%d item(s) left an idle bolt's partial batch with the idle flush disabled", n)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := arrived.Load(); n != 2 {
		t.Fatalf("probe saw %d items in all, want 2", n)
	}
}
