package dtt004

import (
	"bytes"
	"encoding/gob"
	"time"

	"datatrace/internal/stream"
)

// okState is fully encodable: plain exported fields, and time.Time is
// trusted because it implements gob.GobEncoder.
type okState struct {
	Counts map[string]int
	When   time.Time
}

type okInst struct{ st okState }

// Next implements core.Instance.
func (in *okInst) Next(e stream.Event, emit func(stream.Event)) {}

// AppendSnapshot implements core.Snapshotter.
func (in *okInst) AppendSnapshot(dst []byte) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	err := gob.NewEncoder(buf).Encode(in.st)
	return buf.Bytes(), err
}

// Restore implements core.Snapshotter.
func (in *okInst) Restore(data []byte) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(&in.st)
}

// notSnapshotter has an AppendSnapshot method but no Restore, so it is
// not a core.Snapshotter and the recovery contract does not apply.
type notSnapshotter struct{ fn func() }

// AppendSnapshot is not part of any checkpoint protocol here.
func (n *notSnapshotter) AppendSnapshot(dst []byte) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	err := gob.NewEncoder(buf).Encode(n.fn)
	return buf.Bytes(), err
}
