package storm

import (
	"fmt"
	"time"

	"datatrace/internal/stream"
)

// This file is the marker-cut recovery policy of the bolt executor
// loop (boltExec, exec.go): the runtime half of the paper's §1 claim
// that marker-delimited cuts give a principled point for checkpointing
// and recovery. There is one loop; recovery changes what three of its
// steps do, and nothing about how input is received, aligned or
// delivered — a column batch reaches ColProcessor.ProcessCols whole
// with the policy on exactly as with it off.
//
// An aligned executor only runs its operator instance when the MRG
// merger (colMerge) flushes a complete block — items of block i from
// every input channel, then marker i — so between cuts the instance is
// untouched. With the policy on (RecoveryPolicy.Enabled, aligned
// inputs):
//
//   - Emissions park. A block's output — column batches and markers,
//     in emission order; an event emitted through the emit callback is a
//     row of a universal-kind batch — collects in boltExec.out instead
//     of entering the transport.
//   - The cut commits in order (completeCut): snapshot the instance
//     (Recoverable — core.Snapshotter under the compile adapters) into
//     the spare of the executor's two snapshot buffers; then
//     flush the parked block transactionally (emitter.send: every fault
//     hook fires before the first transport append, and the flush
//     leaves no buffer — combiner or open batch — holding anything);
//     then commit the snapshot, by swapping the two buffers, and the
//     round-robin cursors as the checkpoint. A steady-state cut
//     allocates nothing, and a crash inside the flush restores the
//     previous cut's bytes. Nothing of a block is visible downstream
//     before its snapshot succeeded, and batches keep their kind
//     through the flush, so the typed combiners and edges downstream
//     stay in use.
//   - The merger is the replay buffer, and owns its batches. It pops a
//     block — releasing the block's column batches to their arenas —
//     only after the block's marker was delivered, i.e. after the cut
//     committed. At any crash point colMerge.Pending is exactly the
//     per-channel input received since the last committed cut, whole
//     batches included.
//   - A panic (a real bug or an injected fault) rolls back: a fresh
//     instance restored from the checkpoint, the cursors reset, the
//     parked output discarded, a fresh merger fed the pending input
//     (plus the in-flight message, once, if the merger never got it).
//     Replayed input is re-delivered at least once; because the state
//     was rolled back to the same cut the re-delivery is effectively
//     exactly-once, and the run's output is trace-equivalent to a
//     failure-free run. A batch is released exactly once: at its
//     block's pop, or by the drop-and-log drain.
//
// Executors whose bolts cannot snapshot (or whose restart budget is
// exhausted) degrade per RecoveryPolicy.OnUnrecoverable: abort the
// topology, or drop items and keep forwarding sequence-deduplicated
// markers so downstream alignment still progresses. Executors outside
// the policy (raw inputs, or recovery disabled) take the same exit on
// their first panic.

// Recoverable is the optional Bolt extension enabling marker-cut
// recovery: a snapshot taken at a cut restores an equivalent bolt on
// a fresh instance. The compile package adapts core.Snapshotter
// instances to this interface; handcrafted bolts may implement it
// directly. Snapshot must return an isolated copy (later mutation of
// the live bolt cannot corrupt it), and Restore must not keep its
// argument: the executor reuses the buffer.
type Recoverable interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// SnapshotAppender is the optional Recoverable extension the runtime
// prefers at a cut: append the snapshot to the executor's buffer,
// reused across cuts, instead of returning a fresh one.
type SnapshotAppender interface {
	AppendSnapshot(dst []byte) ([]byte, error)
}

// appendSnapshot appends r's snapshot to dst.
func appendSnapshot(r Recoverable, dst []byte) ([]byte, error) {
	if a, ok := r.(SnapshotAppender); ok {
		return a.AppendSnapshot(dst)
	}
	b, err := r.Snapshot()
	return append(dst, b...), err
}

// completeCut runs when the merger has delivered a complete block and
// its marker: snapshot the instance at the cut, flush the block's
// parked output transactionally, then commit the checkpoint. A panic
// before the flush's first transport append (snapshot error,
// serialization failure, injected corruption) rolls back to the
// previous cut with nothing delivered; after the appends only
// executor-local bookkeeping remains. The merger pops the block itself
// once this returns. seq is the cut's marker sequence number, used to
// record the marker-cut lag (first marker arrival to this commit,
// recovery time included).
func (x *boltExec) completeCut(seq int64) {
	r, snapped := x.bolt.(Recoverable)
	if snapped {
		var err error
		if x.spare, err = appendSnapshot(r, x.spare[:0]); err != nil {
			panic(fmt.Sprintf("snapshot failed at marker cut: %v", err))
		}
	}
	x.flushOut()
	if snapped {
		x.snap, x.spare, x.hasSnap = x.spare, x.snap, true
	}
	x.rrSnap = append(x.rrSnap[:0], x.em.rrNext...)
	if x.markerSeen != nil {
		if first, ok := x.markerSeen[seq]; ok {
			x.is.ObserveMarkerLag(time.Duration(time.Now().UnixNano() - first))
			delete(x.markerSeen, seq)
		}
	}
	x.is.AddCuts(1)
	// The cut is committed: enter the reconfiguration barrier last, so
	// a rescale at this cut sees the snapshot and an empty transport
	// (nothing runs between here and the next input). A true return
	// means a rescale replaced this executor's instance set.
	if x.g != nil && x.cg.cutDone(x.g) {
		x.retired = true
	}
}

// flushOut sends the parked block downstream and flushes — a committed
// cut leaves nothing buffered, so recovery can regenerate a failed
// block without duplicating output downstream — or delivers a sink's
// block. Either way the buffer is emptied: the backing array serves
// the next block.
func (x *boltExec) flushOut() {
	if x.rc.sink != nil {
		x.deliverCut(false)
	} else if len(x.out) > 0 {
		x.em.send(x.out)
		x.em.flushAll()
	}
	x.out = x.out[:0]
}

// recoverFrom restarts the executor after a crash: restore the last
// checkpoint and replay pending, the in-flight input captured from
// the crashed merger. It retries up to the policy's restart budget (a
// deterministic bug re-panics during replay) and returns (nil, nil)
// on success, or the still-pending input with the terminal error so a
// drop-and-log caller can drain it.
func (x *boltExec) recoverFrom(cause error, pending [][]message) ([][]message, error) {
	if _, ok := x.bolt.(Recoverable); !ok {
		return pending, fmt.Errorf("%w (bolt is not snapshottable)", cause)
	}
	for {
		x.restarts++
		if x.restarts > x.pol.maxRestarts() {
			return pending, fmt.Errorf("%w (restart budget of %d exhausted)", cause, x.pol.maxRestarts())
		}
		x.is.AddRestarts(1)
		x.pol.logf("storm: restarting %s[%d] from its last marker cut after: %v", x.rc.name, x.instance, cause)
		if err := x.restart(); err != nil {
			return pending, fmt.Errorf("storm: restart of %s[%d] failed: %w", x.rc.name, x.instance, err)
		}
		left, err := x.replayAll(pending)
		if err != nil {
			cause, pending = err, left
			continue
		}
		return nil, nil
	}
}

// restart rebuilds the executor at its last committed cut: a fresh
// bolt instance restored from the snapshot, reset round-robin cursors,
// an empty merger (the caller holds the old one's input), an empty
// output buffer (its parked batches released, a sink's block
// forgotten) and empty emitter buffers. Between cuts every emission is
// parked in out, so only a
// netSink delivery that panicked inside a cut's flush leaves rows
// buffered: they belong to the block the replay regenerates.
func (x *boltExec) restart() error {
	b := x.newBolt()
	r, ok := b.(Recoverable)
	if !ok {
		return fmt.Errorf("restarted bolt is not snapshottable")
	}
	if x.hasSnap {
		if err := r.Restore(x.snap); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
	}
	x.setBolt(b)
	x.em.rebuildBufs()
	x.em.rrNext = append(x.em.rrNext[:0], x.rrSnap...)
	x.merge = x.newMerge()
	release(x.out)
	x.out = x.out[:0]
	clear(x.rows)
	x.rows = x.rows[:0]
	return nil
}

// replayAll re-delivers the pending in-flight input through the fresh
// merger, exactly as if it were arriving live except that injected
// per-event faults do not re-fire (cuts that complete during replay
// flush and commit normally). On a crash mid-replay it returns the
// input still pending — what the fresh merger had absorbed without
// popping, followed by the not-yet-fed tails — so a further retry
// replays everything since the last committed cut, and every batch
// still has exactly one owner.
func (x *boltExec) replayAll(pending [][]message) ([][]message, error) {
	fed := make([]int, len(pending))
	err := guard(x.rc.name, x.instance, func() {
		t0 := time.Now()
		defer func() { x.is.AddBusy(time.Since(t0)) }()
		if x.markerSeen != nil {
			x.em.now = t0.UnixNano()
		}
		for progressed := true; progressed; {
			progressed = false
			for ch := range pending {
				if fed[ch] == len(pending[ch]) {
					continue
				}
				e := pending[ch][fed[ch]]
				fed[ch]++
				progressed = true
				x.is.AddReplayed(int64(e.weight()))
				x.absorb(ch, e)
			}
		}
	})
	if err == nil {
		return nil, nil
	}
	left := x.merge.Pending()
	for ch := range pending {
		left[ch] = append(left[ch], pending[ch][fed[ch]:]...)
	}
	return left, err
}

// finish runs the end-of-stream step — trailing unaligned items, the
// optional Flusher, and the final partial block's flush under recovery
// or delivery by a sink — with the same crash recovery as live
// processing, then drops the
// merger's last batches. On terminal failure it returns the
// still-pending input for drop-and-log draining.
func (x *boltExec) finish() ([][]message, error) {
	for {
		err := guard(x.rc.name, x.instance, func() {
			t0 := time.Now()
			defer func() { x.is.AddBusy(time.Since(t0)) }()
			if x.is.ObsEnabled() {
				x.em.now = t0.UnixNano()
			}
			if x.merge != nil {
				// Items of the final incomplete block (after the last
				// marker on every channel) are delivered unaligned.
				x.merge.Trailing()
			}
			if f, ok := x.bolt.(Flusher); ok {
				f.Flush(x.emitFn)
			}
			if x.rc.sink != nil {
				x.deliverCut(true)
			} else if x.rec {
				x.flushOut()
			}
		})
		if err == nil {
			if x.merge != nil {
				x.merge.drop()
			}
			return nil, nil
		}
		left := x.held()
		if !x.rec {
			return left, err
		}
		x.pol.logf("storm: %s[%d] failed during shutdown: %v", x.rc.name, x.instance, err)
		if left, err = x.recoverFrom(err, left); err != nil {
			return left, err
		}
	}
}

// fail ends normal processing after a failure recovery could not undo:
// under the drop-and-log policy the executor degrades, otherwise the
// failure is fatal to the run and the executor only drains to its EOS.
// Either way the input it still held (pending) and the parked output
// are discarded, their batches released, and it stopped completing
// cuts: a rescale barrier can no longer form, and parked peers must not
// wait for one.
func (x *boltExec) fail(cause error, pending [][]message) {
	if x.pol.Enabled && x.pol.OnUnrecoverable == DropAndLog {
		x.pol.logf("storm: %s[%d] is unrecoverable, degrading to drop-and-log: %v", x.rc.name, x.instance, cause)
		x.degraded = &degradeState{seen: map[int64]int{}}
	} else {
		x.fatal = cause
	}
	// On raw inputs pending is the in-flight message alone, and the rows a
	// row-by-row delivery got through are not dropped; an aligned block is
	// dropped whole, wherever its last delivery (live or replayed) stopped.
	done := 0
	if x.merge == nil {
		done = x.row
	}
	x.row = 0
	for _, buf := range pending {
		for _, e := range buf {
			x.discard(e, done)
			done = 0
		}
	}
	release(x.out)
	x.out = nil
	clear(x.rows)
	x.rows = x.rows[:0]
	if x.g != nil {
		x.cg.leave(x.g)
	}
}

// degradeState is an executor after an unrecoverable failure under
// the drop-and-log policy: items are dropped (and counted), and markers
// are forwarded once each — deduplicated by sequence number across the
// executor's input channels, aligned or raw — so downstream marker
// alignment keeps progressing.
type degradeState struct {
	// seen[seq] counts input channels that delivered marker seq.
	seen    map[int64]int
	stopped bool
}

// discard consumes one unit of input the failed executor will not
// process: dropped and counted in degraded mode, silently otherwise. A
// batch is released either way; its first done rows are not counted
// (the ones a raw-input bolt finished before failing in it).
func (x *boltExec) discard(e message, done int) {
	d := x.degraded
	if e.cols != nil {
		if d != nil {
			x.is.AddDropped(int64(e.cols.Len() - done))
		}
		e.cols.Release()
		return
	}
	if d == nil {
		return
	}
	seq := e.mark.Seq
	if d.seen[seq]++; d.seen[seq] < x.rc.nChannels {
		return
	}
	delete(d.seen, seq)
	if d.stopped {
		return
	}
	// Channels deliver markers in sequence order, so completions are
	// in sequence order too; forward each completed marker once.
	if err := guard(x.rc.name, x.instance, func() { x.em.emit(stream.Mark(e.mark)) }); err != nil {
		x.pol.logf("storm: degraded %s[%d] stopped forwarding markers: %v", x.rc.name, x.instance, err)
		d.stopped = true
	}
}
