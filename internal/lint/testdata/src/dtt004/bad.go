// Package dtt004 exercises DTT004: Snapshotter state that gob cannot
// encode, which fails at the marker cut instead of at compile time.
package dtt004

import (
	"bytes"
	"encoding/gob"

	"datatrace/internal/stream"
)

// badState mixes encodable and non-encodable fields.
type badState struct {
	Count int
	Fn    func() int
	Done  chan struct{}
}

type badInst struct{ state badState }

// Next implements core.Instance.
func (in *badInst) Next(e stream.Event, emit func(stream.Event)) {}

// AppendSnapshot implements core.Snapshotter — but the encoded value
// carries a func and a channel.
func (in *badInst) AppendSnapshot(dst []byte) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	err := gob.NewEncoder(buf).Encode(in.state) // want DTT004 DTT004
	return buf.Bytes(), err
}

// Restore implements core.Snapshotter.
func (in *badInst) Restore(data []byte) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(&in.state)
}

// opaque has fields but none exported: gob silently encodes nothing
// and Restore yields zero state.
type opaque struct{ hidden int }

type opaqueInst struct{ st opaque }

// Next implements core.Instance.
func (in *opaqueInst) Next(e stream.Event, emit func(stream.Event)) {}

// AppendSnapshot implements core.Snapshotter; the encoder is a local.
func (in *opaqueInst) AppendSnapshot(dst []byte) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	enc := gob.NewEncoder(buf)
	err := enc.Encode(in.st) // want DTT004
	return buf.Bytes(), err
}

// Restore implements core.Snapshotter.
func (in *opaqueInst) Restore(data []byte) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(&in.st)
}
