package compile

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"datatrace/internal/core"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// fusedBolt runs a pipeline of operator instances inside one
// executor: each stage's emissions feed the next stage directly, as
// plain function composition — no edge, no batching, no queueing in
// between. It generalizes the original two-instance SORT fusion to
// arbitrary chain length; the compiler uses it both for a fused SORT
// prefix and for maximal stateless chains (FuseChains).
//
// The per-stage feed closures are allocated once per bolt, not per
// event, so the steady-state hot path is a chain of direct calls.
type fusedBolt struct {
	insts []core.Instance
	outer func(stream.Event)
	feeds []func(stream.Event)
	// counts[i], when set, counts events delivered into stage i across
	// the component's instances — the per-stage visibility a fused
	// chain would otherwise lose by sharing one executor's histograms.
	// Shared atomics owned by the compilation's Plan.
	counts []*atomic.Int64
	// stagesB is the batch view of insts when every stage processes
	// typed columns and the kinds chain; nil disables ProcessCols.
	stagesB  []core.BatchInstance
	batchIn  *stream.ColKind
	batchOut *stream.ColKind
	// chain is the closure-chained view of stagesB: each stage's typed
	// output closure is bound to the next stage's per-row entry, so one
	// ProcessCols call on the head stage runs the whole chain as a
	// single loop over the input columns, with no intermediate batches.
	// nil when any stage declines chaining; chainTail is the last stage,
	// which holds the caller's output batch during the call. marks is
	// the chain's stages' typed marker steps.
	chain     []core.ColChain
	chainTail core.ColChain
	marks     []core.ColMarker
	// stateless is set when no stage carries state: the checkpoint is
	// then the empty snapshot, taken without encoding anything.
	stateless bool
}

func newFusedBolt(insts []core.Instance, counts []*atomic.Int64) storm.Bolt {
	f := &fusedBolt{insts: insts, counts: counts, stateless: true}
	for _, in := range insts {
		f.stateless = f.stateless && core.IsStateless(in)
	}
	f.initCols()
	f.feeds = make([]func(stream.Event), len(insts))
	last := len(insts) - 1
	f.feeds[last] = func(e stream.Event) { f.outer(e) }
	for i := 0; i < last; i++ {
		i := i
		f.feeds[i] = func(e stream.Event) {
			if f.counts != nil {
				f.counts[i+1].Add(1)
			}
			f.insts[i+1].Next(e, f.feeds[i+1])
		}
	}
	for _, in := range insts {
		if !core.CanSnapshot(in) {
			// Hide the Recoverable method set when any stage cannot
			// checkpoint, so the runtime sees an accurate capability.
			return plainBolt{f}
		}
	}
	return f
}

// Next implements storm.Bolt.
func (f *fusedBolt) Next(e stream.Event, emit func(stream.Event)) {
	f.outer = emit
	if f.counts != nil {
		f.counts[0].Add(1)
	}
	f.insts[0].Next(e, f.feeds[0])
}

// initCols decides whether the chain can run batch-at-a-time: every
// stage must be a core.BatchInstance and each stage's output kind must
// be exactly (canonically) the next stage's input kind. Chains the
// compiler fuses are all-stateless, which satisfies both, so in
// practice a fused chain on a columnar edge becomes a single loop over
// typed columns per stage with no per-event calls at all.
func (f *fusedBolt) initCols() {
	bs := make([]core.BatchInstance, len(f.insts))
	for i, in := range f.insts {
		b, ok := in.(core.BatchInstance)
		if !ok || b.InColKind() == nil {
			return
		}
		if i > 0 && bs[i-1].OutColKind() != b.InColKind() {
			return
		}
		bs[i] = b
	}
	f.stagesB = bs
	f.batchIn = bs[0].InColKind()
	f.initChain(bs)
	if f.chain != nil {
		// Only a chain has a typed marker step: a MarkerDriven tail
		// behind a fused SORT emits boxed.
		f.batchOut = bs[len(bs)-1].OutColKind()
	}
}

// initChain upgrades the stage-by-stage batch pipeline to a single
// loop: when every stage supports closure chaining, stage i's output
// is bound to stage i+1's per-row entry, so rows flow through the
// whole chain by direct typed calls. The kinds already chain
// (initCols checked canonical pointer equality), so the typed binds
// cannot mismatch; a failed bind means kind canonicalization is
// broken and nothing downstream can be trusted, hence the panic.
func (f *fusedBolt) initChain(bs []core.BatchInstance) {
	if len(bs) < 2 {
		return
	}
	cc, marks := make([]core.ColChain, len(bs)), make([]core.ColMarker, len(bs))
	for i, b := range bs {
		c, ok := b.(core.ColChain)
		m, isM := b.(core.ColMarker)
		if !ok || !isM {
			return
		}
		cc[i], marks[i] = c, m
	}
	for i := 0; i < len(cc)-1; i++ {
		if !cc[i].BindRowOut(cc[i+1].RowEmit()) {
			panic(fmt.Sprintf("compile: fused stage %d row type does not match stage %d input despite chained kinds", i, i+1))
		}
	}
	f.chain, f.marks = cc, marks
	f.chainTail = cc[len(cc)-1]
}

// InColKind implements storm.ColProcessor.
func (f *fusedBolt) InColKind() *stream.ColKind { return f.batchIn }

// OutColKind implements storm.ColProcessor.
func (f *fusedBolt) OutColKind() *stream.ColKind { return f.batchOut }

// ProcessCols implements storm.ColProcessor: the batch form of Next,
// feeding whole column batches through the stage pipeline. When the
// chain is closure-bound, the head stage's loop IS the whole chain —
// its rows cascade through the bound closures and land in out via the
// tail's parked batch, with no intermediate materialization. Per-stage
// delivery tallies accumulate in plain per-instance counters and flush
// to the shared atomics once per batch, keeping Plan.StageCounts
// consistent with the boxed path. Otherwise stage boundaries use
// pooled intermediate batches owned (and released) here; in and out
// belong to the caller.
func (f *fusedBolt) ProcessCols(in, out stream.Columns) {
	if f.chain != nil {
		f.chainTail.SetOutBatch(out)
		f.stagesB[0].ProcessCols(in, nil)
		f.chainTail.SetOutBatch(nil)
		if f.counts != nil {
			f.counts[0].Add(int64(in.Len()))
		}
		for i := 1; i < len(f.chain); i++ {
			n := f.chain[i].TakeRows()
			if f.counts != nil {
				f.counts[i].Add(n)
			}
		}
		return
	}
	last := len(f.stagesB) - 1
	cur := in
	for i, b := range f.stagesB {
		if f.counts != nil {
			f.counts[i].Add(int64(cur.Len()))
		}
		next := out
		if i < last {
			next = b.OutColKind().Get()
		}
		b.ProcessCols(cur, next)
		if i > 0 {
			cur.Release()
		}
		cur = next
	}
}

// ProcessMarker implements storm.ColMarker: the stages' marker steps in
// order, as Next runs a marker — each stage's marker output flows
// through the rest of the chain before the next stage's step runs, and
// what reaches the tail lands in out; the marker counts as delivered to
// every stage. The runtime calls it only when OutColKind is non-nil,
// which initCols allows for a chain alone.
func (f *fusedBolt) ProcessMarker(m stream.Marker, out stream.Columns) {
	f.chainTail.SetOutBatch(out)
	for _, s := range f.marks {
		s.ProcessMarker(m, nil)
	}
	f.chainTail.SetOutBatch(nil)
	for i, c := range f.chain {
		n := c.TakeRows()
		if f.counts != nil {
			f.counts[i].Add(n + 1)
		}
	}
}

// AppendSnapshot appends the fused bolt's checkpoint to dst: its
// stages' snapshots in order, each behind a 4-byte length, or nothing
// when every stage is stateless.
func (f *fusedBolt) AppendSnapshot(dst []byte) ([]byte, error) {
	if f.stateless {
		return dst, nil
	}
	for _, in := range f.insts {
		at := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		var err error
		if dst, err = core.AppendSnapshotInstance(dst, in); err != nil {
			return dst, err
		}
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	return dst, nil
}

// Snapshot implements storm.Recoverable into a fresh buffer.
func (f *fusedBolt) Snapshot() ([]byte, error) { return f.AppendSnapshot(nil) }

// splitParts splits a fused-bolt snapshot into its stages' parts, which
// alias data.
func splitParts(data []byte, stages int) ([][]byte, error) {
	parts := make([][]byte, 0, stages)
	for len(data) > 0 {
		if len(data) < 4 || int(binary.LittleEndian.Uint32(data)) > len(data)-4 {
			return nil, fmt.Errorf("compile: fused-bolt snapshot truncated after %d stages", len(parts))
		}
		n := int(binary.LittleEndian.Uint32(data))
		parts = append(parts, data[4:4+n])
		data = data[4+n:]
	}
	if len(parts) != stages {
		return nil, fmt.Errorf("compile: fused-bolt snapshot has %d stages, bolt has %d", len(parts), stages)
	}
	return parts, nil
}

// Restore implements storm.Recoverable. The empty snapshot restores
// nothing (all-stateless chains checkpoint to it; so does a rescaled
// shard that held no state).
func (f *fusedBolt) Restore(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	parts, err := splitParts(data, len(f.insts))
	if err != nil {
		return err
	}
	for i, in := range f.insts {
		if err := core.RestoreInstance(in, parts[i]); err != nil {
			return err
		}
	}
	return nil
}

// Reshard implements storm.Resharder stage-wise: each old composite
// snapshot is split into its per-stage parts, every stage's instance
// set re-shards independently through the stage's core.Resharder, and
// the results recompose into newPar composite snapshots. A stage that
// cannot re-shard fails the whole call, so the runtime aborts the
// rescale with the topology untouched.
func (f *fusedBolt) Reshard(old [][]byte, newPar int, owner func(key any) int) ([][]byte, error) {
	stages := len(f.insts)
	// perStage[s][i] is stage s's snapshot on old instance i.
	perStage := make([][][]byte, stages)
	for s := range perStage {
		perStage[s] = make([][]byte, len(old))
	}
	for i, blob := range old {
		if len(blob) == 0 {
			continue // an instance that held no state contributes none to any stage
		}
		parts, err := splitParts(blob, stages)
		if err != nil {
			return nil, err
		}
		for s := range parts {
			perStage[s][i] = parts[s]
		}
	}
	newStage := make([][][]byte, stages)
	for s, in := range f.insts {
		out, err := core.ReshardInstanceSnapshots(in, perStage[s], newPar, owner)
		if err != nil {
			return nil, fmt.Errorf("compile: re-sharding fused stage %d: %w", s, err)
		}
		if len(out) != newPar {
			return nil, fmt.Errorf("compile: fused stage %d re-sharded to %d snapshots, want %d", s, len(out), newPar)
		}
		newStage[s] = out
	}
	blobs := make([][]byte, newPar)
	for j := 0; j < newPar; j++ {
		for s := range newStage {
			blobs[j] = binary.LittleEndian.AppendUint32(blobs[j], uint32(len(newStage[s][j])))
			blobs[j] = append(blobs[j], newStage[s][j]...)
		}
	}
	return blobs, nil
}
