package storm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"datatrace/internal/metrics"
	"datatrace/internal/stream"
)

// This file tests what the one data path made possible: an edge sees
// boxed emissions, typed batches and markers from one producer in one
// block. Whatever the mix, a channel delivers its producer's emissions
// in emission order, exactly once, recovery or not.

// mixKey gives the tests their own column kind, so every batch of it
// that exists was taken — and must be given back — by the run under test.
type mixKey int

var mixKind = stream.ColKindFor[mixKey, int]()

// batchLog remembers every batch of mixKind the runtime handed the
// test's spout or bolt to fill.
type batchLog struct {
	mu   sync.Mutex
	seen map[stream.Columns]bool
}

func (l *batchLog) add(c stream.Columns) {
	l.mu.Lock()
	l.seen[c] = true
	l.mu.Unlock()
}

// mixSpout replays evs: an item flagged typed goes out through NextCols
// (runs of them as one batch), everything else through Next.
type mixSpout struct {
	evs   []stream.Event
	typed []bool
	i     int
	log   *batchLog
}

func (s *mixSpout) ColKind() *stream.ColKind { return mixKind }

func (s *mixSpout) Next() (stream.Event, bool) {
	if s.i >= len(s.evs) {
		return stream.Event{}, false
	}
	s.i++
	return s.evs[s.i-1], true
}

func (s *mixSpout) NextCols(out stream.Columns, max int) int {
	n := 0
	for ; n < max && s.i < len(s.evs) && s.typed[s.i]; n++ {
		out.AppendEvent(s.evs[s.i])
		s.i++
	}
	if n > 0 {
		s.log.add(out)
	}
	return n
}

// mixBolt forwards what it receives in the form it received it: a boxed
// event through emit, a typed batch as a typed batch. Stateless, so its
// checkpoint is empty.
type mixBolt struct{ log *batchLog }

func (m *mixBolt) Next(e stream.Event, emit func(stream.Event)) { emit(e) }
func (m *mixBolt) InColKind() *stream.ColKind                   { return mixKind }
func (m *mixBolt) OutColKind() *stream.ColKind                  { return mixKind }
func (m *mixBolt) Snapshot() ([]byte, error)                    { return nil, nil }
func (m *mixBolt) Restore([]byte) error                         { return nil }

func (m *mixBolt) ProcessCols(in, out stream.Columns) {
	m.log.add(out)
	for i := 0; i < in.Len(); i++ {
		out.AppendRow(in, i)
	}
}

// chanLog is a raw ChannelBolt consumer recording what each channel
// delivered.
type chanLog struct {
	mu   sync.Mutex
	seen map[int][]stream.Event
}

func (c *chanLog) Next(stream.Event, func(stream.Event)) {}
func (c *chanLog) NextFrom(ch int, e stream.Event, _ func(stream.Event)) {
	c.mu.Lock()
	c.seen[ch] = append(c.seen[ch], e)
	c.mu.Unlock()
}

// mixedInput is four blocks of: a boxed item, six typed rows, a boxed
// item, the marker.
func mixedInput() (evs []stream.Event, typed []bool) {
	v := 0
	item := func(isTyped bool) {
		evs, typed = append(evs, stream.Item(mixKey(v%5), v)), append(typed, isTyped)
		v++
	}
	for b := 0; b < 4; b++ {
		item(false)
		for i := 0; i < 6; i++ {
			item(true)
		}
		item(false)
		evs, typed = append(evs, mk(int64(b), int64(10*(b+1)))), append(typed, false)
	}
	return evs, typed
}

func TestMixedEmissionsKeepChannelOrder(t *testing.T) {
	evs, typed := mixedInput()
	for _, par := range []int{1, 2} {
		// What mix[k] receives, and so emits, in order: the source sequence
		// filtered by the fields grouping, every marker included.
		perCh := make([][]stream.Event, par)
		for _, e := range evs {
			for k := range perCh {
				if e.IsMarker || stream.DefaultHash(e.Key)%par == k {
					perCh[k] = append(perCh[k], e)
				}
			}
		}
		// The aligned consumer merges the channels block by block.
		merged := mergeBlocks(perCh)
		// The events of mix[0]'s first and second block, markers included:
		// the crash lands inside the first, the send fault inside the second
		// cut's flush.
		first, second := int64(blockLen(perCh[0], 0)), int64(blockLen(perCh[0], 1))

		for _, batch := range []int{1, 64} {
			for _, faults := range []bool{false, true} {
				t.Run(fmt.Sprintf("par=%d/batch=%d/faults=%v", par, batch, faults), func(t *testing.T) {
					log := &batchLog{seen: map[stream.Columns]bool{}}
					raw := &chanLog{seen: map[int][]stream.Event{}}
					top := NewTopology("mixed")
					top.SetTransport(TransportOptions{BatchSize: batch})
					top.AddSpout("src", 1, func(int) Spout { return &mixSpout{evs: evs, typed: typed, log: log} })
					top.AddBolt("mix", par, func(int) Bolt { return &mixBolt{log: log} }).FieldsGrouping("src", true).ColumnarWith(mixKind)
					top.AddBolt("raw", 1, func(int) Bolt { return raw }).GlobalGrouping("mix", false)
					top.AddSink("sink", "mix")
					if faults {
						top.SetRecovery(RecoveryPolicy{Enabled: true})
						top.SetFaultPlan(NewFaultPlan().
							CrashAt("mix", 0, 3).
							CorruptEdge("mix", 0, "raw", first+2))
					}
					res, err := top.Run()
					if err != nil {
						t.Fatal(err)
					}
					for k := range perCh {
						if !reflect.DeepEqual(raw.seen[k], perCh[k]) {
							t.Errorf("raw consumer, channel %d:\n got %s\nwant %s", k, stream.Render(raw.seen[k]), stream.Render(perCh[k]))
						}
					}
					if got := res.Sinks["sink"]; !reflect.DeepEqual(got, merged) {
						t.Errorf("aligned consumer:\n got %s\nwant %s", stream.Render(got), stream.Render(merged))
					}
					// A second Release panics and fails the run; one that never
					// happened leaves the batch holding rows.
					if len(log.seen) == 0 {
						t.Error("no typed batch was ever filled")
					}
					for c := range log.seen {
						if c.Len() != 0 {
							t.Errorf("a %s batch of %d rows was never released", c.Kind(), c.Len())
						}
					}
					// Counters are in events: rows and markers, not messages.
					var mix metrics.ComponentSnapshot
					for _, c := range res.Stats.Snapshot().ByComponent() {
						if c.Component == "mix" {
							mix = c
						}
					}
					events := int64(len(evs) + 4*(par-1))
					restarts, replayed, _ := res.Stats.Recovery()
					if !faults {
						if mix.Executed != events || mix.Emitted != events || restarts != 0 {
							t.Errorf("executed %d emitted %d restarts %d, want %d, %d and 0", mix.Executed, mix.Emitted, restarts, events, events)
						}
						return
					}
					// The crash replays what mix[0] held of its first block (3 to
					// all of its events), the send fault the whole second block.
					if lo, hi := 3+second, first+second; restarts != 2 || replayed < lo || replayed > hi {
						t.Errorf("restarts %d replayed %d, want 2 and %d..%d events", restarts, replayed, lo, hi)
					}
					if mix.Emitted != events {
						t.Errorf("emitted %d, want %d: a regenerated block must not count twice downstream", mix.Emitted, events)
					}
				})
			}
		}
	}
}

// blockLen is the length of block b of a channel's sequence, marker
// included.
func blockLen(evs []stream.Event, b int) int {
	n := 0
	for _, e := range evs {
		if b == 0 {
			n++
		}
		if e.IsMarker {
			if b--; b < 0 {
				break
			}
		}
	}
	return n
}

// mergeBlocks is the MRG merge of per-channel sequences that end every
// block with the same marker.
func mergeBlocks(perCh [][]stream.Event) []stream.Event {
	var out []stream.Event
	at := make([]int, len(perCh))
	for at[0] < len(perCh[0]) {
		var mark stream.Event
		for k, evs := range perCh {
			for ; !evs[at[k]].IsMarker; at[k]++ {
				out = append(out, evs[at[k]])
			}
			mark = evs[at[k]]
			at[k]++
		}
		out = append(out, mark)
	}
	return out
}

// TestRowOfAnotherKindCrossesInItsOwnBatch pins what a send buffer does
// with rows of another kind than its open batch's (cols.go): it seals
// the open batch and moves them in a batch of their own kind, in
// emission order — it neither converts them nor refuses them.
func TestRowOfAnotherKindCrossesInItsOwnBatch(t *testing.T) {
	p := newTransportPair(TransportOptions{BatchSize: 64, FlushInterval: -1}, 1)
	p.em.rc.subs = p.em.rc.subs[:1]
	p.em.rebuildBufs()
	typed := intKind.Get()
	typed.AppendEvent(stream.Item(2, 20))
	typed.AppendEvent(stream.Item(3, 30))
	p.em.emit(stream.Item(1, 10))
	p.em.emitCols(typed)
	p.em.emit(stream.Item(4, 40))
	p.em.emit(mk(0, 1))
	var kinds []*stream.ColKind
	var evs []stream.Event
	for _, m := range p.drain()[0] {
		kinds = append(kinds, nil)
		if m.cols != nil {
			kinds[len(kinds)-1] = m.cols.Kind()
		}
		evs = append(evs, m.events()...)
	}
	if want := []*stream.ColKind{stream.AnyKind, intKind, stream.AnyKind, nil}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("message kinds %v, want %v", kinds, want)
	}
	want := []stream.Event{stream.Item(1, 10), stream.Item(2, 20), stream.Item(3, 30), stream.Item(4, 40), mk(0, 1)}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("delivered %s, want %s", stream.Render(evs), stream.Render(want))
	}
}
