package core

import (
	"bytes"
	"encoding/gob"
)

// Snapshotter is the optional Instance extension for checkpointing:
// at a marker boundary (a consistent cut — every operator has fully
// processed the same prefix of blocks) an instance serializes its
// state, and a fresh instance can be restored from it. Serialization
// goes through gob with the instance's own concrete types, so the
// snapshot is an isolated copy: mutating the live instance afterwards
// cannot corrupt it, exactly as a checkpoint written to stable
// storage behaves.
//
// The built-in templates implement Snapshotter; the execution engines
// (internal/microbatch) use it to implement marker-aligned
// checkpoint/restore.
type Snapshotter interface {
	// Snapshot writes the instance's state to the encoder.
	Snapshot(enc *gob.Encoder) error
	// Restore replaces the instance's state with a snapshot written by
	// Snapshot on an instance of the same operator.
	Restore(dec *gob.Decoder) error
}

// --- Stateless: trivially snapshotable (no state) ---------------------------

// Snapshot implements Snapshotter (stateless operators have nothing
// to save; the method exists so every template instance is uniformly
// checkpointable).
func (in *statelessInstance[K, V, L, W]) Snapshot(enc *gob.Encoder) error { return nil }

// Restore implements Snapshotter.
func (in *statelessInstance[K, V, L, W]) Restore(dec *gob.Decoder) error { return nil }

// stateless marks the instance for IsStateless.
func (in *statelessInstance[K, V, L, W]) stateless() {}

// IsStateless reports whether an instance carries no state between
// events, so its snapshot is always empty. SnapshotInstance returns
// the empty snapshot for such instances without building an encoder —
// an executor checkpoints at every marker cut, and most bolts of a
// pipeline are stateless.
func IsStateless(inst Instance) bool {
	_, ok := inst.(interface{ stateless() })
	return ok
}

// --- KeyedOrdered ------------------------------------------------------------

// koSnap is the serialized form of a keyed-ordered instance.
type koSnap[K comparable, S any] struct {
	States map[K]S
	Keys   []K
}

// Snapshot implements Snapshotter.
func (in *keyedOrderedInstance[K, V, W, S]) Snapshot(enc *gob.Encoder) error {
	return enc.Encode(koSnap[K, S]{States: in.states, Keys: in.keys})
}

// Restore implements Snapshotter.
func (in *keyedOrderedInstance[K, V, W, S]) Restore(dec *gob.Decoder) error {
	var s koSnap[K, S]
	if err := dec.Decode(&s); err != nil {
		return err
	}
	in.states = s.States
	if in.states == nil {
		in.states = map[K]S{}
	}
	in.keys = s.Keys
	return nil
}

// --- KeyedUnordered ----------------------------------------------------------

// kuSnap is the serialized form of a keyed-unordered instance
// (Table 3's memory: per-key {agg, state}, key order, and startS).
type kuSnap[K comparable, S, A any] struct {
	Aggs   map[K]A
	States map[K]S
	Keys   []K
	StartS S
}

// Snapshot implements Snapshotter.
func (in *keyedUnorderedInstance[K, V, L, W, S, A]) Snapshot(enc *gob.Encoder) error {
	s := kuSnap[K, S, A]{
		Aggs:   make(map[K]A, len(in.stateMap)),
		States: make(map[K]S, len(in.stateMap)),
		Keys:   in.keys,
		StartS: in.startS,
	}
	for k, r := range in.stateMap {
		s.Aggs[k] = r.agg
		s.States[k] = r.state
	}
	return enc.Encode(s)
}

// Restore implements Snapshotter.
func (in *keyedUnorderedInstance[K, V, L, W, S, A]) Restore(dec *gob.Decoder) error {
	var s kuSnap[K, S, A]
	if err := dec.Decode(&s); err != nil {
		return err
	}
	in.stateMap = make(map[K]*kuRecord[S, A], len(s.States))
	for k, st := range s.States {
		in.stateMap[k] = &kuRecord[S, A]{agg: s.Aggs[k], state: st}
	}
	in.keys = s.Keys
	in.startS = s.StartS
	return nil
}

// --- Sort ---------------------------------------------------------------------

// sortSnap is the serialized form of a sort instance; at a marker
// boundary the buffers are empty, but mid-block checkpoints are
// supported for completeness.
type sortSnap[K comparable, V any] struct {
	Buf  map[K][]V
	Keys []K
}

// Snapshot implements Snapshotter.
func (in *sortInstance[K, V]) Snapshot(enc *gob.Encoder) error {
	return enc.Encode(sortSnap[K, V]{Buf: in.buf, Keys: in.keys})
}

// Restore implements Snapshotter.
func (in *sortInstance[K, V]) Restore(dec *gob.Decoder) error {
	var s sortSnap[K, V]
	if err := dec.Decode(&s); err != nil {
		return err
	}
	in.buf = s.Buf
	if in.buf == nil {
		in.buf = map[K][]V{}
	}
	in.keys = s.Keys
	return nil
}

// --- SlidingAggregate ----------------------------------------------------------

// slidingEntrySnap is one live window entry.
type slidingEntrySnap[A any] struct {
	Idx int64
	Val A
}

// slidingKeySnap is one key's window.
type slidingKeySnap[A any] struct {
	Cur     A
	Dirty   bool
	Entries []slidingEntrySnap[A]
}

// slidingSnap is the serialized form of a sliding-aggregate instance.
type slidingSnap[K comparable, A any] struct {
	Wins     map[K]slidingKeySnap[A]
	Keys     []K
	BlockIdx int64
}

// Snapshot implements Snapshotter.
func (in *slidingInstance[K, V, A]) Snapshot(enc *gob.Encoder) error {
	s := slidingSnap[K, A]{Wins: make(map[K]slidingKeySnap[A], len(in.wins)), Keys: in.keys, BlockIdx: in.blockIdx}
	for k, w := range in.wins {
		ks := slidingKeySnap[A]{Cur: w.cur, Dirty: w.dirty}
		// Live entries in FIFO order: front stack top-down, then back
		// stack bottom-up.
		for i := len(w.fifo.front) - 1; i >= 0; i-- {
			ks.Entries = append(ks.Entries, slidingEntrySnap[A]{Idx: w.fifo.front[i].idx, Val: w.fifo.front[i].val})
		}
		for _, e := range w.fifo.back {
			ks.Entries = append(ks.Entries, slidingEntrySnap[A]{Idx: e.idx, Val: e.val})
		}
		s.Wins[k] = ks
	}
	return enc.Encode(s)
}

// Restore implements Snapshotter.
func (in *slidingInstance[K, V, A]) Restore(dec *gob.Decoder) error {
	var s slidingSnap[K, A]
	if err := dec.Decode(&s); err != nil {
		return err
	}
	in.wins = make(map[K]*keyWindow[A], len(s.Wins))
	for k, ks := range s.Wins {
		w := &keyWindow[A]{cur: ks.Cur, dirty: ks.Dirty, fifo: newFifoAgg(in.op.ID, in.op.Combine)}
		for _, e := range ks.Entries {
			w.fifo.Push(e.Idx, e.Val)
		}
		in.wins[k] = w
	}
	in.keys = s.Keys
	in.blockIdx = s.BlockIdx
	return nil
}

// CanSnapshot reports whether an instance supports checkpointing.
// Execution engines use it to decide, before deployment, whether an
// operator can participate in marker-cut recovery.
func CanSnapshot(inst Instance) bool {
	_, ok := inst.(Snapshotter)
	return ok
}

// SnapshotInstance serializes an instance's state, returning nil
// bytes for instances that do not support checkpointing.
func SnapshotInstance(inst Instance) ([]byte, error) {
	s, ok := inst.(Snapshotter)
	if !ok || IsStateless(inst) {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := s.Snapshot(gob.NewEncoder(&buf)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreInstance restores an instance from SnapshotInstance's bytes;
// nil bytes are a no-op.
func RestoreInstance(inst Instance, data []byte) error {
	if data == nil {
		return nil
	}
	s, ok := inst.(Snapshotter)
	if !ok {
		return nil
	}
	return s.Restore(gob.NewDecoder(bytes.NewReader(data)))
}
