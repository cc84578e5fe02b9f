// Package codec serializes stream events, modelling the
// tuple-serialization boundary a real distributed deployment has on
// every inter-worker connection (the paper's §2 pipeline exists
// precisely because deserialization is the expensive stage worth
// parallelizing). The networked storm runtime puts the frames of
// frame.go on every connection between worker processes; Codec is the
// single-event form.
//
// Fallback encoding is gob-based: concrete key/value types are
// registered once, and per-connection stream encoders amortize gob's
// type descriptions the way a long-lived connection would.
package codec

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"datatrace/internal/stream"
)

// wire is the serialized form of one event. Key and Value ride as
// interfaces, so their concrete types must be registered.
type wire struct {
	IsMarker bool
	Seq      int64
	Ts       int64
	Key      any
	Value    any
}

// Codec encodes and decodes events. Safe for concurrent use; each
// call uses a fresh gob encoder (FrameEncoder is the amortized form).
type Codec struct{}

// New creates a codec.
func New() *Codec { return &Codec{} }

// Register declares a concrete key or value type, like gob.Register.
// Register every type that flows through serialized connections.
func Register(v any) { gob.Register(v) }

// Encode serializes one event. An unregistered key or value type is
// reported as ErrUnregisteredType.
func (c *Codec) Encode(e stream.Event) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(toWire(e)); err != nil {
		return nil, classify(fmt.Errorf("codec: encode %s: %w", e, err))
	}
	return buf.Bytes(), nil
}

// Decode deserializes one event produced by Encode. An event whose
// concrete key or value type is not registered on this side is
// reported as ErrUnregisteredType, so transports can degrade per the
// drop-and-log policy instead of treating it as stream corruption.
func (c *Codec) Decode(b []byte) (stream.Event, error) {
	var w wire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return stream.Event{}, classify(fmt.Errorf("codec: decode: %w", err))
	}
	return fromWire(w), nil
}

func toWire(e stream.Event) wire {
	return wire{IsMarker: e.IsMarker, Seq: e.Marker.Seq, Ts: e.Marker.Timestamp, Key: e.Key, Value: e.Value}
}

func fromWire(w wire) stream.Event {
	if w.IsMarker {
		return stream.Mark(stream.Marker{Seq: w.Seq, Timestamp: w.Ts})
	}
	return stream.Item(w.Key, w.Value)
}
