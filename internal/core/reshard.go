package core

import "fmt"

// This file implements keyed-state re-sharding for elastic rescaling.
// The paper's parallelizability theorems (§4) make an operator's
// output trace invariant under the degree of parallelism, so the
// degree is safe to change at runtime — provided the change happens at
// a consistent marker cut and the per-key state moves to the key's new
// HASH owner. Reshard is the state-movement half of that contract and,
// like the snapshot codec, it is written once over the keyed store
// (keyed.go): it decodes the old instances' snapshots with the store's
// codec, routes every (key, record) row to the new instance the owner
// function selects, and encodes one snapshot per new instance.
//
// The merge is deterministic: old instances are visited in instance
// order and each instance's keys in slot order, so the new snapshots —
// key order included — are a pure function of the old ones.

// Resharder is the optional Instance extension for elastic rescaling:
// given the snapshots of a component's old instances (taken at one
// consistent marker cut), Reshard produces newPar snapshots with every
// key's state placed on the instance owner(key) selects. The receiver
// only supplies the operator's concrete types and record codec; its
// state is not read or mutated. All built-in templates implement Resharder.
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

// --- Stateless ---------------------------------------------------------------

// Reshard implements Resharder: stateless instances carry no state, so
// the new instances start empty.
func (in *statelessInstance[K, V, L, W]) Reshard(old [][]byte, newPar int, owner func(any) int) ([][]byte, error) {
	return make([][]byte, newPar), nil
}

// --- Keyed state ---------------------------------------------------------------

// Reshard implements Resharder for every keyed template. Empty old
// snapshots (an instance that held no state) contribute nothing. The
// instance scalar counts markers (KeyedUnordered's startS advances
// once per marker, SlidingAggregate's block index is the marker
// count), so at a consistent cut it is identical across instances and
// every new instance takes it from the first old snapshot. The codec
// is built afresh rather than cached: the receiver may be an instance
// another goroutine runs.
func (st *keyedState[K, R, X]) Reshard(old [][]byte, newPar int, owner func(any) int) ([][]byte, error) {
	c := st.newCodec()
	outs := make([]keyed[K, R], newPar)
	var x X
	seeded := false
	for _, blob := range old {
		if len(blob) == 0 {
			continue
		}
		keys, recs, bx, err := c.decode(blob)
		if err != nil {
			return nil, err
		}
		if !seeded {
			x, seeded = bx, true
		}
		for i, k := range keys {
			j := owner(k)
			if j < 0 || j >= newPar {
				return nil, fmt.Errorf("core: owner(%v) = %d out of range [0,%d)", k, j, newPar)
			}
			outs[j].keys = append(outs[j].keys, k)
			outs[j].recs = append(outs[j].recs, recs[i])
		}
	}
	blobs := make([][]byte, newPar)
	for j, o := range outs {
		var err error
		if blobs[j], err = c.append(nil, o.keys, o.recs, x); err != nil {
			return nil, err
		}
	}
	return blobs, nil
}
