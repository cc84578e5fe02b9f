package core

import "fmt"

// This file implements keyed-state re-sharding for elastic rescaling.
// The paper's parallelizability theorems (§4) make an operator's
// output trace invariant under the degree of parallelism, so the
// degree is safe to change at runtime — provided the change happens at
// a consistent marker cut and the per-key state moves to the key's new
// HASH owner. Reshard is the state-movement half of that contract: it
// takes the old instance set's snapshots (as produced by Snapshotter
// at a cut, decoded through the same codec), merges them, and re-partitions every key onto the new
// instance set per the owner function the runtime derives from its
// partitioning hash.
//
// The merge is deterministic: old instances are visited in instance
// order and each instance's keys in its recorded key order, so the new
// snapshots — key order included — are a pure function of the old
// ones. Per-instance scalars that are functions of the marker count
// alone (KeyedUnordered's startS, SlidingAggregate's blockIdx) are
// identical across instances at a cut and are taken from the first old
// snapshot.

// Resharder is the optional Instance extension for elastic rescaling:
// given the snapshots of a component's old instances (taken at one
// consistent marker cut), Reshard produces newPar snapshots with every
// key's state placed on the instance owner(key) selects. The receiver
// only supplies the operator's concrete types; it is not read or
// mutated. All built-in templates implement Resharder.
type Resharder interface {
	Snapshotter
	Reshard(old [][]byte, newPar int, owner func(key any) int) ([][]byte, error)
}

// CanReshard reports whether an instance supports keyed-state
// re-sharding.
func CanReshard(inst Instance) bool {
	_, ok := inst.(Resharder)
	return ok
}

// ReshardInstanceSnapshots re-partitions a component's instance
// snapshots via the probe instance's Resharder implementation.
func ReshardInstanceSnapshots(inst Instance, old [][]byte, newPar int, owner func(key any) int) ([][]byte, error) {
	r, ok := inst.(Resharder)
	if !ok {
		return nil, fmt.Errorf("core: instance %T does not support re-sharding", inst)
	}
	if newPar < 1 {
		return nil, fmt.Errorf("core: re-sharding to parallelism %d", newPar)
	}
	return r.Reshard(old, newPar, owner)
}

// checkOwner validates one owner assignment.
func checkOwner(j, newPar int, key any) error {
	if j < 0 || j >= newPar {
		return fmt.Errorf("core: owner(%v) = %d out of range [0,%d)", key, j, newPar)
	}
	return nil
}

// encodeSnaps encodes one snapshot per new instance.
func encodeSnaps[T any](outs []T, enc func([]byte, *T) ([]byte, error)) ([][]byte, error) {
	blobs := make([][]byte, len(outs))
	for j := range outs {
		var err error
		if blobs[j], err = enc(nil, &outs[j]); err != nil {
			return nil, err
		}
	}
	return blobs, nil
}

// routeKeys calls move(i, j) for every key of an old snapshot, j its
// owner among newPar instances.
func routeKeys[K comparable](keys []K, newPar int, owner func(any) int, move func(i, j int)) error {
	for i, k := range keys {
		j := owner(k)
		if err := checkOwner(j, newPar, k); err != nil {
			return err
		}
		move(i, j)
	}
	return nil
}

// --- Stateless ---------------------------------------------------------------

// Reshard implements Resharder: stateless instances carry no state, so
// the new instances start empty.
func (in *statelessInstance[K, V, L, W]) Reshard(old [][]byte, newPar int, owner func(any) int) ([][]byte, error) {
	return make([][]byte, newPar), nil
}

// --- KeyedOrdered ------------------------------------------------------------

// Reshard implements Resharder. Empty old snapshots (an instance that
// held no state) contribute nothing, here and in every template below.
func (in *keyedOrderedInstance[K, V, W, S]) Reshard(old [][]byte, newPar int, owner func(any) int) ([][]byte, error) {
	c := newKOCodec[K, S]()
	outs := make([]koSnap[K, S], newPar)
	for _, blob := range old {
		if len(blob) == 0 {
			continue
		}
		s, err := c.decode(blob)
		if err != nil {
			return nil, err
		}
		if err := routeKeys(s.Keys, newPar, owner, func(i, j int) {
			outs[j].Keys = append(outs[j].Keys, s.Keys[i])
			outs[j].States = append(outs[j].States, s.States[i])
		}); err != nil {
			return nil, err
		}
	}
	return encodeSnaps(outs, c.append)
}

// --- KeyedUnordered ----------------------------------------------------------

// Reshard implements Resharder. startS is a function of the marker
// count alone (it advances once per marker on every instance), so at a
// consistent cut it is identical across instances and every new
// instance inherits it from the first old snapshot.
func (in *keyedUnorderedInstance[K, V, L, W, S, A]) Reshard(old [][]byte, newPar int, owner func(any) int) ([][]byte, error) {
	c := newKUCodec[K, S, A]()
	outs := make([]kuSnap[K, S, A], newPar)
	seeded := false
	for _, blob := range old {
		if len(blob) == 0 {
			continue
		}
		s, err := c.decode(blob)
		if err != nil {
			return nil, err
		}
		if !seeded {
			seeded = true
			for j := range outs {
				outs[j].StartS = s.StartS
			}
		}
		if err := routeKeys(s.Keys, newPar, owner, func(i, j int) {
			o := &outs[j]
			o.Keys = append(o.Keys, s.Keys[i])
			o.Aggs = append(o.Aggs, s.Aggs[i])
			o.States = append(o.States, s.States[i])
		}); err != nil {
			return nil, err
		}
	}
	return encodeSnaps(outs, c.append)
}

// --- Sort --------------------------------------------------------------------

// Reshard implements Resharder. At a marker cut the sort buffers are
// empty (SORT drains at every marker), but mid-block buffers move with
// their keys for completeness, matching AppendSnapshot.
func (in *sortInstance[K, V]) Reshard(old [][]byte, newPar int, owner func(any) int) ([][]byte, error) {
	c := newSortCodec[K, V]()
	outs := make([]sortSnap[K, V], newPar)
	for _, blob := range old {
		if len(blob) == 0 {
			continue
		}
		s, bufs, err := c.decode(blob)
		if err != nil {
			return nil, err
		}
		if err := routeKeys(s.Keys, newPar, owner, func(i, j int) {
			o := &outs[j]
			o.Keys = append(o.Keys, s.Keys[i])
			o.Lens = append(o.Lens, s.Lens[i])
			o.Vals = append(o.Vals, bufs[i]...)
		}); err != nil {
			return nil, err
		}
	}
	return encodeSnaps(outs, c.append)
}

// --- SlidingAggregate --------------------------------------------------------

// Reshard implements Resharder. blockIdx counts markers, so like
// KeyedUnordered's startS it is identical across instances at a cut
// and comes from the first old snapshot.
func (in *slidingInstance[K, V, A]) Reshard(old [][]byte, newPar int, owner func(any) int) ([][]byte, error) {
	c := newSlidingCodec[K, A]()
	outs := make([]slidingSnap[K, A], newPar)
	seeded := false
	for _, blob := range old {
		if len(blob) == 0 {
			continue
		}
		s, err := c.decode(blob)
		if err != nil {
			return nil, err
		}
		idx, err := ragged(s.Idx, s.Lens)
		if err != nil {
			return nil, err
		}
		vals, _ := ragged(s.Vals, s.Lens)
		if !seeded {
			seeded = true
			for j := range outs {
				outs[j].BlockIdx = s.BlockIdx
			}
		}
		if err := routeKeys(s.Keys, newPar, owner, func(i, j int) {
			o := &outs[j]
			o.Keys = append(o.Keys, s.Keys[i])
			o.Cur = append(o.Cur, s.Cur[i])
			o.Dirty = append(o.Dirty, s.Dirty[i])
			o.Lens = append(o.Lens, s.Lens[i])
			o.Idx = append(o.Idx, idx[i]...)
			o.Vals = append(o.Vals, vals[i]...)
		}); err != nil {
			return nil, err
		}
	}
	return encodeSnaps(outs, c.append)
}
