package main

import (
	"fmt"
	"sync"
	"time"

	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// This file keeps the load generator out of the timed path: set-up
// drains the repository's generators once into plain slices, and the
// timed run replays those slices through spouts that do nothing but
// copy. The probes in probes.go report what the generators cost, so the
// work taken out of the timed path stays visible.

// yahooInput is one Yahoo workload's materialised source: for every
// source partition a block of whole marker periods, which the replay
// spouts cycle with a continuing marker sequence.
type yahooInput struct {
	// parts[p] holds blockMarkers × perMarker items.
	parts [][]workload.YahooEvent
	// perMarker is the number of items one partition emits between two
	// markers.
	perMarker int
}

// materialiseYahoo drains gen's columnar partitions into typed slices.
func materialiseYahoo(gen *workload.Yahoo, sourcePar int) (*yahooInput, error) {
	kind := stream.ColKindFor[stream.Unit, workload.YahooEvent]()
	in := &yahooInput{parts: make([][]workload.YahooEvent, sourcePar)}
	for p, src := range gen.ColPartitions(sourcePar, false) {
		batch := kind.Get().(*stream.Cols[stream.Unit, workload.YahooEvent])
		markers := 0
		for {
			if n := src.NextCols(batch, 4096); n > 0 {
				in.parts[p] = append(in.parts[p], batch.Vals...)
				batch.Keys, batch.Vals = batch.Keys[:0], batch.Vals[:0]
				continue
			}
			e, ok := src.Next()
			if !ok {
				break
			}
			if e.IsMarker {
				markers++
			}
		}
		batch.Release()
		if markers == 0 || len(in.parts[p])%markers != 0 {
			return nil, fmt.Errorf("partition %d: %d items do not divide into %d marker periods", p, len(in.parts[p]), markers)
		}
		per := len(in.parts[p]) / markers
		if p > 0 && per != in.perMarker {
			return nil, fmt.Errorf("partition %d emits %d items per marker, partition 0 emits %d", p, per, in.perMarker)
		}
		in.perMarker = per
	}
	return in, nil
}

// events renders the first markers periods of the replayed input as the
// merged boxed stream the reference evaluator consumes: every
// partition's items of a period, then the period's marker.
func (in *yahooInput) events(markers int) []stream.Event {
	out := make([]stream.Event, 0, markers*(in.perMarker*len(in.parts)+1))
	for seq := 0; seq < markers; seq++ {
		for _, part := range in.parts {
			off := (seq * in.perMarker) % len(part)
			for _, ev := range part[off : off+in.perMarker] {
				out = append(out, stream.Item(stream.Unit{}, ev))
			}
		}
		out = append(out, stream.Mark(periodMarker(int64(seq))))
	}
	return out
}

// periodMarker is the marker that closes period seq, with the
// generators' one-second event-time spacing.
func periodMarker(seq int64) stream.Marker {
	return stream.Marker{Seq: seq, Timestamp: (seq + 1) * 1000}
}

// markerLog records, per marker sequence number, the wall time
// (UnixNano) at which something happened to that marker: a source
// emitting it, or the tap receiving it. One goroutine writes it during
// a run and it is read after the run has ended.
type markerLog []int64

// sourceLog is what one replay source records about itself.
type sourceLog struct {
	// Sent[seq] is when the source released marker seq.
	Sent markerLog `json:"sent"`
	// ActiveNs is the time from the source's first call to its
	// end-of-stream, and WaitedNs the part of it the source spent waiting
	// for its window or its schedule. The runtime books a spout's whole
	// loop as busy; the benchmark takes the waiting out again
	// (storm.src_busy_share).
	ActiveNs int64 `json:"active_ns"`
	WaitedNs int64 `json:"waited_ns"`

	startNs int64
}

// touch marks a call into the source; the first one starts its clock.
func (l *sourceLog) touch() {
	if l.startNs == 0 {
		//lint:ignore DTT002 the benchmark's own stamp of when the source was first called, never seen by an operator
		l.startNs = time.Now().UnixNano()
	}
}

// finish stops the source's clock at end-of-stream.
func (l *sourceLog) finish() {
	if l.startNs != 0 && l.ActiveNs == 0 {
		//lint:ignore DTT002 the benchmark's own stamp of when the source ended, never seen by an operator
		l.ActiveNs = time.Now().UnixNano() - l.startNs
	}
}

// yahooReplay is the replay source of one partition. It implements
// storm.ColSpout: items leave as slice copies into the executor's
// batch, markers and end-of-stream through Next.
type yahooReplay struct {
	block     []workload.YahooEvent
	perMarker int
	markers   int64
	pace      *pacer  // the open loop's schedule, nil in a closed loop
	win       *window // the closed loop's bound on outstanding cuts, nil in an open loop

	pos      int // next item in block
	inPeriod int // items emitted since the last marker
	seq      int64
	log      *sourceLog
}

func newYahooReplay(in *yahooInput, partition int, markers int64, pace *pacer, win *window) *yahooReplay {
	return &yahooReplay{
		block:     in.parts[partition],
		perMarker: in.perMarker,
		markers:   markers,
		pace:      pace,
		win:       win,
		log:       &sourceLog{Sent: make(markerLog, markers)},
	}
}

// ColKind implements storm.ColSpout.
func (r *yahooReplay) ColKind() *stream.ColKind {
	return stream.ColKindFor[stream.Unit, workload.YahooEvent]()
}

// NextCols implements storm.ColSpout.
func (r *yahooReplay) NextCols(out stream.Columns, max int) int {
	n := r.perMarker - r.inPeriod
	if r.seq >= r.markers || n == 0 {
		return 0
	}
	if n > max {
		n = max
	}
	n = r.admit(n)
	tc := out.(*stream.Cols[stream.Unit, workload.YahooEvent])
	tc.Vals = append(tc.Vals, r.block[r.pos:r.pos+n]...)
	for left := n; left > 0; {
		k := min(left, len(unitKeys))
		tc.Keys = append(tc.Keys, unitKeys[:k]...)
		left -= k
	}
	r.advance(n)
	return n
}

// admit waits until the loop control lets the next items go and returns
// how many of the at most max may: all of them in a closed loop once the
// period may start, as many as are due in an open loop.
func (r *yahooReplay) admit(max int) int {
	r.log.touch()
	if r.inPeriod == 0 {
		r.log.WaitedNs += int64(r.win.await(r.seq))
	}
	if r.pace == nil {
		return max
	}
	n, slept := r.pace.take(r.seq*int64(r.perMarker)+int64(r.inPeriod), max)
	r.log.WaitedNs += int64(slept)
	return n
}

func (r *yahooReplay) advance(n int) {
	r.inPeriod += n
	r.pos += n
	if r.pos == len(r.block) {
		r.pos = 0
	}
}

// Next implements storm.Spout. The executor calls it for markers and
// end-of-stream, and for every event when observability is on (the
// runtime's observed spout loop is boxed).
func (r *yahooReplay) Next() (stream.Event, bool) {
	if r.seq >= r.markers {
		r.log.finish()
		return stream.Event{}, false
	}
	if r.inPeriod < r.perMarker {
		r.admit(1)
		ev := r.block[r.pos]
		r.advance(1)
		return stream.Item(stream.Unit{}, ev), true
	}
	if r.pace != nil {
		r.log.WaitedNs += int64(r.pace.waitMarker(r.seq))
	}
	m := periodMarker(r.seq)
	//lint:ignore DTT002 the benchmark's own stamp: when this source released the marker, read once per marker and never seen by an operator
	r.log.Sent[r.seq] = time.Now().UnixNano()
	r.seq++
	r.inPeriod = 0
	return stream.Mark(m), true
}

var _ storm.ColSpout = (*yahooReplay)(nil)

// unitKeys is the key column of any batch of unit-keyed rows.
var unitKeys = make([]stream.Unit, 1024)

// eventReplay replays a boxed event sequence (the Smart Homes source,
// whose O(K,V) pipeline has no columnar form) and stamps its markers.
type eventReplay struct {
	events []stream.Event
	i      int
	win    *window
	// opening is set when the next event opens a period: at the start and
	// after every marker.
	opening bool
	seq     int64
	log     *sourceLog
}

func newEventReplay(events []stream.Event, markers int, win *window) *eventReplay {
	return &eventReplay{events: events, win: win, opening: true, log: &sourceLog{Sent: make(markerLog, markers)}}
}

// Next implements storm.Spout.
func (r *eventReplay) Next() (stream.Event, bool) {
	if r.i >= len(r.events) {
		r.log.finish()
		return stream.Event{}, false
	}
	if r.opening {
		r.log.touch()
		r.log.WaitedNs += int64(r.win.await(r.seq))
		r.opening = false
	}
	e := r.events[r.i]
	r.i++
	if e.IsMarker {
		//lint:ignore DTT002 the benchmark's own stamp: when this source released the marker, read once per marker and never seen by an operator
		r.log.Sent[e.Marker.Seq] = time.Now().UnixNano()
		r.seq, r.opening = e.Marker.Seq+1, true
	}
	return e, true
}

// clock is the time source of the pacer; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time {
	//lint:ignore DTT002 the open-loop schedule is wall-clock by definition; only the pacer reads it
	return time.Now()
}
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pacer is the open-loop schedule every source partition of a run
// shares: item i of a partition is due at start + i/rate and marker seq
// at the due time of the first item after it. Items are released in
// groups of chunk, each when its last item is due: the box's timers tick
// at about a millisecond, and releasing whole ticks of items makes the
// generator behave the same whether a timer fires on time or a tick late.
// The schedule never moves: a partition that falls behind sends what is
// overdue at once, and the delay shows as latency measured from the due
// times (dueMarker), not as a slower source.
type pacer struct {
	clk clock
	// perItem is the schedule spacing of one partition's items.
	perItem time.Duration
	// perMarker is the number of items a partition sends per marker, a
	// multiple of chunk.
	perMarker int
	chunk     int64

	once  sync.Once
	start time.Time
}

func newPacer(clk clock, itemsPerSecondPerPartition float64, perMarker, chunk int) (*pacer, error) {
	if chunk < 1 || perMarker%chunk != 0 {
		return nil, fmt.Errorf("pacer: %d items per marker are not whole groups of %d", perMarker, chunk)
	}
	return &pacer{
		clk:       clk,
		perItem:   time.Duration(float64(time.Second) / itemsPerSecondPerPartition),
		perMarker: perMarker,
		chunk:     int64(chunk),
	}, nil
}

// begin fixes the schedule's origin at the first call by any partition.
func (p *pacer) begin() time.Time {
	p.once.Do(func() { p.start = p.clk.Now() })
	return p.start
}

// dueItem is when a partition's item with the given index is due.
func (p *pacer) dueItem(index int64) time.Time {
	return p.begin().Add(time.Duration(index) * p.perItem)
}

// dueMarker is when marker seq is due: with the first item of the
// following period, once every item ahead of it has been due.
func (p *pacer) dueMarker(seq int64) time.Time {
	return p.dueItem((seq + 1) * int64(p.perMarker))
}

// take blocks until the group of the partition's item with index next
// is released and returns how many of the at most max items may go now
// (the rest of the group) and how long it slept.
func (p *pacer) take(next int64, max int) (n int, slept time.Duration) {
	end := (next/p.chunk + 1) * p.chunk // the first item of the following group
	slept = p.sleepUntil(p.dueItem(end - 1))
	return min(max, int(end-next)), slept
}

// waitMarker blocks until marker seq is due and returns how long it slept.
func (p *pacer) waitMarker(seq int64) time.Duration {
	return p.sleepUntil(p.dueMarker(seq))
}

// sleepUntil sleeps until t when t is ahead and returns the time that
// actually passed, which on a coarse timer is more than was asked for.
func (p *pacer) sleepUntil(t time.Time) time.Duration {
	before := p.clk.Now()
	if d := t.Sub(before); d > 0 {
		p.clk.Sleep(d)
		return p.clk.Now().Sub(before)
	}
	return 0
}
