package core

import (
	"testing"

	"datatrace/internal/stream"
)

// splitmix is a tiny deterministic PRNG for test data (no ambient
// randomness: the same fuzz input must always build the same state).
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// kuView is a decoded keyed-unordered snapshot of int keys, aggregates
// and states, with the columns keyed for lookup.
type kuView struct {
	Keys         []int
	Aggs, States map[int]int
}

func decodeKU(blob []byte) (kuView, error) {
	keys, recs, _, err := sumPerKey().New().(*keyedUnorderedInstance[int, int, int, int, int, int]).codecOf().decode(blob)
	v := kuView{Keys: keys, Aggs: map[int]int{}, States: map[int]int{}}
	for i, k := range keys {
		v.Aggs[k], v.States[k] = recs[i].Agg, recs[i].State
	}
	return v, err
}

// koView is a decoded keyed-ordered snapshot, keyed for lookup.
type koView struct {
	Keys   []int
	States map[int]int
}

func decodeKO(blob []byte) (koView, error) {
	keys, states, _, err := runningSum().New().(*keyedOrderedInstance[int, int, int, int]).codecOf().decode(blob)
	v := koView{Keys: keys, States: map[int]int{}}
	for i, k := range keys {
		v.States[k] = states[i]
	}
	return v, err
}

// slidingKeySnap is one key's window in a decoded sliding snapshot.
type slidingKeySnap[A any] struct {
	Cur     A
	Dirty   bool
	Entries []A
}

// slidingView is a decoded sliding-aggregate snapshot, keyed for lookup.
type slidingView struct {
	Keys     []int
	Wins     map[int]slidingKeySnap[int]
	BlockIdx int64
}

func decodeSliding(blob []byte) (slidingView, error) {
	sum := &SlidingAggregate[int, int, int]{ID: func() int { return 0 }, Combine: func(x, y int) int { return x + y }}
	keys, wins, blockIdx, err := sum.New().(*slidingInstance[int, int, int]).codecOf().decode(blob)
	v := slidingView{Keys: keys, Wins: map[int]slidingKeySnap[int]{}, BlockIdx: blockIdx}
	if err != nil {
		return v, err
	}
	for i, k := range keys {
		head, entries := appendEntries(&wins[i], nil)
		w := slidingKeySnap[int]{Cur: head.Cur, Dirty: head.Dirty}
		for _, e := range entries {
			w.Entries = append(w.Entries, e.Val)
		}
		v.Wins[k] = w
	}
	return v, nil
}

// buildKeyedUnorderedShards runs a per-key sum operator at oldPar
// hash-partitioned instances over a deterministic workload (markers at
// every instance, a live open block at the end) and returns the
// instances' snapshots plus the expected per-key (state, agg) tables
// decoded back out of those snapshots — the ground truth a reshard
// must preserve exactly.
func buildKeyedUnorderedShards(t *testing.T, seed uint64, oldPar, nKeys, blocks int) (snaps [][]byte, wantState map[int]int, wantAgg map[int]int) {
	t.Helper()
	op := sumPerKey()
	insts := make([]Instance, oldPar)
	for i := range insts {
		insts[i] = op.New()
	}
	drop := func(stream.Event) {}
	rng := &splitmix{s: seed}
	for b := 0; b < blocks; b++ {
		n := rng.intn(4*(nKeys+1)) + 1
		for i := 0; i < n; i++ {
			k := rng.intn(nKeys + 1)
			v := rng.intn(100)
			insts[stream.DefaultHash(k)%oldPar].Next(stream.Item(k, v), drop)
		}
		// Leave the final block open: keys touched in it hold a live
		// aggregate alongside the committed state.
		if b == blocks-1 {
			break
		}
		m := stream.Mark(stream.Marker{Seq: int64(b), Timestamp: int64(b)})
		for _, in := range insts {
			in.Next(m, drop)
		}
	}
	snaps = make([][]byte, oldPar)
	wantState = map[int]int{}
	wantAgg = map[int]int{}
	for i, in := range insts {
		b, err := SnapshotInstance(in)
		if err != nil {
			t.Fatalf("snapshot instance %d: %v", i, err)
		}
		snaps[i] = b
		s, err := decodeKU(b)
		if err != nil {
			t.Fatalf("decoding old snapshot %d: %v", i, err)
		}
		for _, k := range s.Keys {
			if _, dup := wantState[k]; dup {
				t.Fatalf("key %d held by two old instances", k)
			}
			wantState[k] = s.States[k]
			wantAgg[k] = s.Aggs[k]
		}
	}
	return snaps, wantState, wantAgg
}

// checkKeyedUnorderedReshard asserts the partition-exactness property
// on a resharded snapshot set: the keyed-state multiset is preserved
// exactly (no key lost, none duplicated, values intact) and every key
// lands on its DefaultHash owner.
func checkKeyedUnorderedReshard(t *testing.T, newSnaps [][]byte, newPar int, wantState, wantAgg map[int]int) {
	t.Helper()
	if len(newSnaps) != newPar {
		t.Fatalf("reshard produced %d snapshots, want %d", len(newSnaps), newPar)
	}
	seen := map[int]int{}
	for j, blob := range newSnaps {
		s, err := decodeKU(blob)
		if err != nil {
			t.Fatalf("decoding new snapshot %d: %v", j, err)
		}
		if len(s.Keys) != len(s.States) || len(s.Keys) != len(s.Aggs) {
			t.Fatalf("snapshot %d: %d keys vs %d states vs %d aggs", j, len(s.Keys), len(s.States), len(s.Aggs))
		}
		for _, k := range s.Keys {
			seen[k]++
			if owner := stream.DefaultHash(k) % newPar; owner != j {
				t.Fatalf("key %d landed on instance %d, its DefaultHash owner is %d", k, j, owner)
			}
			if got, want := s.States[k], wantState[k]; got != want {
				t.Fatalf("key %d: resharded state %d, want %d", k, got, want)
			}
			if got, want := s.Aggs[k], wantAgg[k]; got != want {
				t.Fatalf("key %d: resharded aggregate %d, want %d", k, got, want)
			}
		}
	}
	// Exactness: every key that ever held state appears exactly once.
	total := 0
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %d appears %d times across the new shards", k, n)
		}
		if _, ok := wantState[k]; !ok {
			if _, ok := wantAgg[k]; !ok {
				t.Fatalf("key %d appeared from nowhere", k)
			}
		}
		total++
	}
	want := map[int]bool{}
	for k := range wantState {
		want[k] = true
	}
	for k := range wantAgg {
		want[k] = true
	}
	if total != len(want) {
		t.Fatalf("resharded shards hold %d keys, want %d", total, len(want))
	}
}

// TestReshardPartitionExactness is the property test across arbitrary
// old→new parallelism pairs: re-sharding preserves the keyed-state
// multiset exactly and places every key on its DefaultHash owner.
func TestReshardPartitionExactness(t *testing.T) {
	probe := sumPerKey().New()
	for _, tc := range []struct{ oldPar, newPar int }{
		{1, 1}, {1, 4}, {2, 3}, {3, 2}, {4, 1}, {4, 8}, {8, 3}, {5, 5},
	} {
		snaps, wantState, wantAgg := buildKeyedUnorderedShards(t, uint64(tc.oldPar*31+tc.newPar), tc.oldPar, 40, 4)
		owner := func(k any) int { return stream.DefaultHash(k) % tc.newPar }
		newSnaps, err := ReshardInstanceSnapshots(probe, snaps, tc.newPar, owner)
		if err != nil {
			t.Fatalf("%d→%d: %v", tc.oldPar, tc.newPar, err)
		}
		checkKeyedUnorderedReshard(t, newSnaps, tc.newPar, wantState, wantAgg)
	}
}

// TestReshardKeyedOrdered covers the ordered template: per-key states
// move intact to their owners.
func TestReshardKeyedOrdered(t *testing.T) {
	op := runningSum()
	const oldPar, newPar = 3, 5
	insts := make([]Instance, oldPar)
	for i := range insts {
		insts[i] = op.New()
	}
	drop := func(stream.Event) {}
	want := map[int]int{}
	rng := &splitmix{s: 7}
	for i := 0; i < 200; i++ {
		k, v := rng.intn(25), rng.intn(50)
		want[k] += v
		insts[stream.DefaultHash(k)%oldPar].Next(stream.Item(k, v), drop)
	}
	snaps := make([][]byte, oldPar)
	for i, in := range insts {
		b, err := SnapshotInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = b
	}
	newSnaps, err := ReshardInstanceSnapshots(op.New(), snaps, newPar, func(k any) int { return stream.DefaultHash(k) % newPar })
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for j, blob := range newSnaps {
		s, err := decodeKO(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range s.Keys {
			seen[k]++
			if stream.DefaultHash(k)%newPar != j {
				t.Fatalf("key %d on wrong owner %d", k, j)
			}
			if s.States[k] != want[k] {
				t.Fatalf("key %d: state %d, want %d", k, s.States[k], want[k])
			}
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("resharded %d keys, want %d", len(seen), len(want))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %d duplicated %d times", k, n)
		}
	}
}

// TestReshardSlidingAggregate covers the sliding-window template:
// window contents move with their keys and blockIdx survives.
func TestReshardSlidingAggregate(t *testing.T) {
	op := &SlidingAggregate[int, int, int]{
		OpName:       "slide",
		InT:          stream.U("Int", "Int"),
		OutT:         stream.U("Int", "Int"),
		WindowBlocks: 3,
		In:           func(k, v int) int { return v },
		ID:           func() int { return 0 },
		Combine:      func(x, y int) int { return x + y },
	}
	const oldPar, newPar = 2, 4
	insts := make([]Instance, oldPar)
	for i := range insts {
		insts[i] = op.New()
	}
	drop := func(stream.Event) {}
	rng := &splitmix{s: 11}
	for b := 0; b < 4; b++ {
		for i := 0; i < 60; i++ {
			k, v := rng.intn(12), rng.intn(9)
			insts[stream.DefaultHash(k)%oldPar].Next(stream.Item(k, v), drop)
		}
		m := stream.Mark(stream.Marker{Seq: int64(b), Timestamp: int64(b)})
		for _, in := range insts {
			in.Next(m, drop)
		}
	}
	snaps := make([][]byte, oldPar)
	oldWins := map[int]slidingKeySnap[int]{}
	var oldBlock int64
	for i, in := range insts {
		b, err := SnapshotInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = b
		s, err := decodeSliding(b)
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range s.Wins {
			oldWins[k] = w
		}
		oldBlock = s.BlockIdx
	}
	newSnaps, err := ReshardInstanceSnapshots(op.New(), snaps, newPar, func(k any) int { return stream.DefaultHash(k) % newPar })
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for j, blob := range newSnaps {
		s, err := decodeSliding(blob)
		if err != nil {
			t.Fatal(err)
		}
		if s.BlockIdx != oldBlock {
			t.Fatalf("shard %d: blockIdx %d, want %d", j, s.BlockIdx, oldBlock)
		}
		for _, k := range s.Keys {
			seen++
			if stream.DefaultHash(k)%newPar != j {
				t.Fatalf("key %d on wrong owner %d", k, j)
			}
			w, ok := oldWins[k]
			if !ok {
				t.Fatalf("key %d appeared from nowhere", k)
			}
			got := s.Wins[k]
			if got.Cur != w.Cur || got.Dirty != w.Dirty || len(got.Entries) != len(w.Entries) {
				t.Fatalf("key %d: window changed across reshard", k)
			}
		}
	}
	if seen != len(oldWins) {
		t.Fatalf("resharded %d keys, want %d", seen, len(oldWins))
	}
}

// TestReshardErrors pins the failure modes: a non-resharding instance,
// a bad target parallelism, an out-of-range owner.
func TestReshardErrors(t *testing.T) {
	probe := sumPerKey().New()
	snaps, _, _ := buildKeyedUnorderedShards(t, 3, 2, 10, 3)
	if _, err := ReshardInstanceSnapshots(probe, snaps, 0, func(any) int { return 0 }); err == nil {
		t.Fatal("reshard to parallelism 0 succeeded")
	}
	if _, err := ReshardInstanceSnapshots(probe, snaps, 2, func(any) int { return 5 }); err == nil {
		t.Fatal("out-of-range owner not rejected")
	}
	var notReshardable Instance = opaqueInstance{}
	if _, err := ReshardInstanceSnapshots(notReshardable, snaps, 2, func(any) int { return 0 }); err == nil {
		t.Fatal("non-Resharder instance accepted")
	}
}

// opaqueInstance is an Instance without the Resharder extension.
type opaqueInstance struct{}

func (opaqueInstance) Next(e stream.Event, emit func(stream.Event)) {}

// FuzzReshardKeyedState fuzzes the partition-exactness property over
// arbitrary old→new parallelism pairs, key populations and workloads:
// whatever the shapes, the keyed-state multiset must be preserved
// exactly and every key must land on its DefaultHash owner.
func FuzzReshardKeyedState(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(2), uint8(10))
	f.Add(uint64(2), uint8(4), uint8(2), uint8(50))
	f.Add(uint64(3), uint8(2), uint8(7), uint8(0))
	f.Add(uint64(42), uint8(8), uint8(8), uint8(200))
	f.Add(uint64(99), uint8(16), uint8(1), uint8(33))
	f.Fuzz(func(t *testing.T, seed uint64, oldRaw, newRaw, keysRaw uint8) {
		oldPar := int(oldRaw)%16 + 1
		newPar := int(newRaw)%16 + 1
		nKeys := int(keysRaw)
		snaps, wantState, wantAgg := buildKeyedUnorderedShards(t, seed, oldPar, nKeys, 3)
		probe := sumPerKey().New()
		owner := func(k any) int { return stream.DefaultHash(k) % newPar }
		newSnaps, err := ReshardInstanceSnapshots(probe, snaps, newPar, owner)
		if err != nil {
			t.Fatalf("%d→%d: %v", oldPar, newPar, err)
		}
		checkKeyedUnorderedReshard(t, newSnaps, newPar, wantState, wantAgg)
	})
}
