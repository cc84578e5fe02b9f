package codec

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"

	"datatrace/internal/stream"
)

// This file defines the binary framing the networked storm runtime puts
// on every inter-worker data connection. One frame carries a sequence of
// messages addressed to one destination executor; the runtime sends one
// transport message per frame — a batch, a marker or EOS, or a batch and
// the marker or EOS behind it, so one or two Messages — and its receiver
// rejects any other shape. Fixed-width integers are little-endian except
// the length prefix; uv is an unsigned varint (encoding/binary), which
// keeps the per-message header of a boxed event at three bytes:
//
//	frame    := len:u32be payload                  len ≤ MaxFrameBytes
//	payload  := dest:u32 count:u32 gobLen:u32 gob[gobLen] message*count
//	message  := tag:u8 ch:uv sent:uv body
//	body     := marker    (tag 1)  seq:i64 ts:i64
//	          | eos       (tag 2)  —
//	          | boxed     (tag 3)  —           the next event of the gob section
//	          | cols      (tag 4)  kind:u32 rows:u32 keys vals
//	          | colsIntro (tag 5)  kind:u32 nameLen:u16 name fingerprint:u64 rows:u32 keys vals
//	          | colsGob   (tag 6)  —           the next batch of the gob section
//	keys, vals: the column's wire layout (stream/colwire.go): rows × size
//	          bytes of memory for a pointer-free type, rows u32 end offsets
//	          then the bytes for strings.
//
// Kinds. A column batch whose kind has a wire layout (ColKind.Wired) is
// written as its two columns' memory, one copy each, and decoded by one
// copy each into a pooled batch of the kind. On a connection a kind is
// named by a small id, assigned in order of first use; the first use
// (colsIntro) carries the kind's name and the fingerprint of its memory
// layout, and the receiver rejects a name it has no kind for
// (ErrUnknownKind), an id out of sequence (ErrUnknownKind) and a
// fingerprint other than its own (ErrLayoutMismatch) — raw memory is
// only exchanged between processes that lay the type out identically,
// which workers re-executed from one binary do.
//
// Fallback. Boxed events, and batches of kinds without a wire layout —
// the universal kind stream.AnyKind, which is what the runtime's
// untyped edges carry, among them — ride gob inside the same frame: the frame's gob section is one value
// holding the boxed events' keys and values and the fallback batches'
// slices, in message order, written by a per-connection gob.Encoder so
// type descriptors cross the link once. Every row that travels this way
// is counted (FrameEncoder.FallbackRows). A frame without fallback
// content has an empty gob section.
//
// A payload must be consumed exactly: bytes left after the last message
// (or gob values no message refers to) are ErrTrailingBytes, a message
// or column running past the payload is ErrShortFrame.

// MaxFrameBytes bounds a frame's payload. The bound is enforced
// *before* any allocation, so a corrupted or hostile length prefix
// cannot make the decoder allocate unbounded memory.
const MaxFrameBytes = 16 << 20

// ErrFrameTooLarge reports a length prefix exceeding MaxFrameBytes.
var ErrFrameTooLarge = errors.New("codec: frame exceeds MaxFrameBytes")

// ErrShortFrame reports a frame truncated mid-payload (or a truncated
// length prefix with at least one byte present), and a message or column
// that claims more bytes than its frame holds.
var ErrShortFrame = errors.New("codec: truncated frame")

// ErrTrailingBytes reports payload bytes left over after the frame's
// messages were decoded — the stream is corrupted or was not produced by
// a FrameEncoder.
var ErrTrailingBytes = errors.New("codec: trailing bytes after frame payload")

// ErrUnregisteredType reports an event whose concrete key or value
// type was never passed to Register. The networked transport treats
// it as a per-event serialization failure — eligible for the
// drop-and-log degradation policy — rather than a transport fault.
var ErrUnregisteredType = errors.New("codec: unregistered key/value type")

// ErrUnknownKind reports a column batch of a kind this process has not
// created, or a per-connection kind id used before (or introduced out of
// step with) its introduction.
var ErrUnknownKind = errors.New("codec: unknown column kind")

// ErrLayoutMismatch reports a column batch whose sender lays the kind
// out differently from this process (fingerprint mismatch), and slices
// that are not the kind's column types or differ in length.
var ErrLayoutMismatch = errors.New("codec: column layout mismatch")

// classify wraps gob's untyped errors into this package's typed ones
// where callers dispatch on the cause. gob exposes no error values of
// its own, so the unregistered-interface case is recognized by its
// message.
func classify(err error) error {
	if err == nil {
		return nil
	}
	if strings.Contains(err.Error(), "not registered") {
		return fmt.Errorf("%w: %v", ErrUnregisteredType, err)
	}
	return err
}

// Message is one transport message in the form the runtime holds it: an
// end-of-stream notice, a column batch, or (neither) a boxed event — an
// item or a marker — each tagged with its receiver-side channel and the
// send stamp of the observability subsystem (0 when that is off).
type Message struct {
	Ch   int32
	EOS  bool
	Sent int64
	Ev   stream.Event
	Cols stream.Columns
}

// WireEvent is the Frame form of one stream event.
type WireEvent struct {
	IsMarker bool
	Seq      int64
	Ts       int64
	Key      any
	Value    any
}

// FromEvent converts a stream event to its wire form.
func FromEvent(e stream.Event) WireEvent {
	return WireEvent{IsMarker: e.IsMarker, Seq: e.Marker.Seq, Ts: e.Marker.Timestamp, Key: e.Key, Value: e.Value}
}

// Event converts the wire form back to a stream event.
func (w WireEvent) Event() stream.Event {
	if w.IsMarker {
		return stream.Mark(stream.Marker{Seq: w.Seq, Timestamp: w.Ts})
	}
	return stream.Item(w.Key, w.Value)
}

// WireCols is the Frame form of one column batch: the kind's name and
// its two typed column slices ([]K and []V) boxed as any.
type WireCols struct {
	Kind string
	Keys any
	Vals any
}

// WireMessage is the Frame form of one transport message (see Message).
type WireMessage struct {
	Ch   int32
	EOS  bool
	Sent int64
	Ev   WireEvent
	// Cols, when set, makes this message a column batch; Ev is unused.
	Cols *WireCols
}

// Frame is one frame's messages as a plain value, addressed to the
// destination executor's global index (see storm.Placement): the form
// tests and probes build frames in. The runtime encodes and decodes
// Message slices directly (EncodeVector, DecodeVector); Encode and
// Decode convert and call those, so both forms are one wire format.
type Frame struct {
	Dest int32
	Msgs []WireMessage
}

// Message tags.
const (
	tagMarker = 1 + iota
	tagEOS
	tagBoxed
	tagCols
	tagColsIntro
	tagColsGob
)

// headerLen is the length prefix plus dest, count and gobLen.
const headerLen = 16

// fallback is a frame's gob section.
type fallback struct {
	Events []wireItem
	Cols   []WireCols
}

type wireItem struct{ Key, Value any }

func (fb *fallback) reset() {
	clear(fb.Events)
	clear(fb.Cols)
	fb.Events, fb.Cols = fb.Events[:0], fb.Cols[:0]
}

// FrameEncoder writes frames to w, one Write call per frame. Not safe
// for concurrent use; give each connection its own and serialize writers
// above it.
type FrameEncoder struct {
	w   io.Writer
	buf []byte
	enc *gob.Encoder // appends to buf
	fb  fallback
	// proven caches key/value types that already encoded successfully
	// on this connection. A type not yet proven is trial-encoded with a
	// throwaway encoder first, so an unregistered type fails *before*
	// the persistent encoder's descriptor bookkeeping diverges from the
	// stream — the connection survives the typed error and keeps
	// working for well-registered traffic (the drop-and-log contract).
	proven map[reflect.Type]bool
	// kinds holds the connection's kind ids, in order of introduction.
	kinds map[*stream.ColKind]uint32
	msgs  []Message // Encode's conversion scratch

	// Counters of what this encoder has written: frames, their bytes
	// (length prefixes included), rows sent as raw columns, and rows sent
	// through the gob fallback (boxed items and rows of batches without a
	// wire layout). Plain fields, updated once per frame.
	Frames, Bytes, TypedRows, FallbackRows int64
}

// NewFrameEncoder creates an encoder writing to w.
func NewFrameEncoder(w io.Writer) *FrameEncoder {
	e := &FrameEncoder{w: w, proven: make(map[reflect.Type]bool), kinds: make(map[*stream.ColKind]uint32)}
	e.enc = gob.NewEncoder((*encBuf)(&e.buf))
	return e
}

// vet proves that v can ride an interface field of this connection.
// The trial must itself go through an interface field — gob only
// demands registration for interface-typed transmission. Proving is
// per concrete type: a type whose *contents* can still vary in
// encodability (say, a registered struct holding an any field) is
// vetted only for the first value seen; such types do not occur on
// this repository's wires — except an interface-typed column ([]any,
// the universal kind's), whose every element is a value of its own
// type and is vetted as one.
func (e *FrameEncoder) vet(v any) error {
	if v == nil {
		return nil
	}
	if col, ok := v.([]any); ok {
		for _, x := range col {
			if err := e.vet(x); err != nil {
				return err
			}
		}
		return nil
	}
	rt := reflect.TypeOf(v)
	if e.proven[rt] {
		return nil
	}
	if err := gob.NewEncoder(io.Discard).Encode(&wireItem{Key: v}); err != nil {
		return classify(fmt.Errorf("codec: encode frame: %w", err))
	}
	e.proven[rt] = true
	return nil
}

// encBuf adapts the encoder's scratch slice to io.Writer so the gob
// encoder appends into it without a bytes.Buffer's bookkeeping.
type encBuf []byte

func (b *encBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// EncodeVector writes one frame holding msgs, addressed to dest. The
// batches stay the caller's. Every key, value and fallback slice type
// not seen before is vetted first, and a vet failure (typed as
// ErrUnregisteredType where it applies) leaves the stream and the
// encoder's state untouched; any other error leaves the connection
// unusable.
func (e *FrameEncoder) EncodeVector(dest int32, msgs []Message) error {
	e.fb.reset()
	var typed, boxed int64
	for i := range msgs {
		m := &msgs[i]
		k, v := m.Ev.Key, m.Ev.Value
		switch {
		case m.EOS || m.Cols == nil && m.Ev.IsMarker:
			continue
		case m.Cols != nil && m.Cols.Kind().Wired():
			typed += int64(m.Cols.Len())
			continue
		case m.Cols != nil:
			k, v = m.Cols.Slices()
			e.fb.Cols = append(e.fb.Cols, WireCols{Kind: m.Cols.Kind().Name(), Keys: k, Vals: v})
			boxed += int64(m.Cols.Len())
		default:
			e.fb.Events = append(e.fb.Events, wireItem{Key: k, Value: v})
			boxed++
		}
		if err := e.vet(k); err != nil {
			return err
		}
		if err := e.vet(v); err != nil {
			return err
		}
	}

	e.buf = append(e.buf[:0], make([]byte, headerLen)...)
	if len(e.fb.Events)+len(e.fb.Cols) > 0 {
		if err := e.enc.Encode(&e.fb); err != nil {
			return classify(fmt.Errorf("codec: encode frame: %w", err))
		}
	}
	gobLen := len(e.buf) - headerLen
	b := e.buf
	for i := range msgs {
		m := &msgs[i]
		tag := byte(tagBoxed)
		switch {
		case m.EOS:
			tag = tagEOS
		case m.Cols != nil && !m.Cols.Kind().Wired():
			tag = tagColsGob
		case m.Cols != nil:
			tag = tagCols
			if _, known := e.kinds[m.Cols.Kind()]; !known {
				tag = tagColsIntro
			}
		case m.Ev.IsMarker:
			tag = tagMarker
		}
		b = append(b, tag)
		b = binary.AppendUvarint(b, uint64(uint32(m.Ch)))
		b = binary.AppendUvarint(b, uint64(m.Sent))
		switch tag {
		case tagMarker:
			b = binary.LittleEndian.AppendUint64(b, uint64(m.Ev.Marker.Seq))
			b = binary.LittleEndian.AppendUint64(b, uint64(m.Ev.Marker.Timestamp))
		case tagCols, tagColsIntro:
			kind := m.Cols.Kind()
			if tag == tagColsIntro {
				e.kinds[kind] = uint32(len(e.kinds))
			}
			b = binary.LittleEndian.AppendUint32(b, e.kinds[kind])
			if tag == tagColsIntro {
				b = binary.LittleEndian.AppendUint16(b, uint16(len(kind.Name())))
				b = append(b, kind.Name()...)
				b = binary.LittleEndian.AppendUint64(b, kind.Fingerprint())
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(m.Cols.Len()))
			b = m.Cols.AppendWire(b)
		}
	}
	e.buf = b
	if len(b)-4 > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(b)-4)
	}
	binary.BigEndian.PutUint32(b[0:], uint32(len(b)-4))
	binary.LittleEndian.PutUint32(b[4:], uint32(dest))
	binary.LittleEndian.PutUint32(b[8:], uint32(len(msgs)))
	binary.LittleEndian.PutUint32(b[12:], uint32(gobLen))
	if _, err := e.w.Write(b); err != nil {
		return fmt.Errorf("codec: write frame: %w", err)
	}
	e.Frames++
	e.Bytes += int64(len(b))
	e.TypedRows += typed
	e.FallbackRows += boxed
	return nil
}

// Encode writes one frame given as a plain value. A batch is named by
// its kind, which must exist in this process (ErrUnknownKind), and its
// slices must be the kind's column types, equally long
// (ErrLayoutMismatch).
func (e *FrameEncoder) Encode(f *Frame) error {
	msgs, err := appendMessages(e.msgs[:0], f.Msgs)
	if err == nil {
		err = e.EncodeVector(f.Dest, msgs)
	}
	clear(msgs)
	e.msgs = msgs[:0]
	return err
}

// appendMessages converts a Frame's messages to runtime form.
func appendMessages(msgs []Message, ws []WireMessage) ([]Message, error) {
	for i := range ws {
		w := &ws[i]
		m := Message{Ch: w.Ch, EOS: w.EOS, Sent: w.Sent}
		switch {
		case w.Cols != nil:
			kind := stream.ColKindByName(w.Cols.Kind)
			if kind == nil {
				return msgs, fmt.Errorf("%w: %q", ErrUnknownKind, w.Cols.Kind)
			}
			// The wrapping batch is never released: its slices are the
			// caller's.
			cols, err := kind.FromSlices(w.Cols.Keys, w.Cols.Vals)
			if err != nil {
				return msgs, fmt.Errorf("%w: %v", ErrLayoutMismatch, err)
			}
			m.Cols = cols
		case !w.EOS:
			m.Ev = w.Ev.Event()
		}
		msgs = append(msgs, m)
	}
	return msgs, nil
}

// frameReader feeds exactly one gob section to the gob decoder. It
// implements io.ByteReader so gob does not wrap it in a bufio reader
// and read past the section.
type frameReader struct {
	buf []byte
	off int
}

func (r *frameReader) Read(p []byte) (int, error) {
	if r.off >= len(r.buf) {
		return 0, io.EOF
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

func (r *frameReader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.EOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// FrameDecoder reads frames from r. Not safe for concurrent use.
type FrameDecoder struct {
	r       io.Reader
	fr      frameReader
	dec     *gob.Decoder
	hdr     [4]byte
	payload []byte
	fb      fallback // zeroed before each decode, so gob reuses its slices
	// kinds[id] is the connection's kind id table.
	kinds []*stream.ColKind
	msgs  []Message // Decode's conversion scratch
}

// NewFrameDecoder creates a decoder reading from r.
func NewFrameDecoder(r io.Reader) *FrameDecoder {
	d := &FrameDecoder{r: r}
	d.dec = gob.NewDecoder(&d.fr)
	return d
}

// cursor reads a payload front to back; a read past the end sets short
// and yields nothing (zero, for the fixed-width readers).
type cursor struct {
	b     []byte
	short bool
}

func (c *cursor) take(n int) []byte {
	if n < 0 || n > len(c.b) {
		c.short, c.b = true, nil
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *cursor) u8() byte {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (c *cursor) u16() uint16 {
	if p := c.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if p := c.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if p := c.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.short, c.b = true, nil
		return 0
	}
	c.b = c.b[n:]
	return v
}

// DecodeVector reads the next frame and appends its messages to dst,
// returning the frame's destination. Each decoded batch is a pooled
// batch of its kind that the caller owns (and releases); nothing
// returned aliases the decoder's buffers. A clean end of stream (EOF at
// a frame boundary) returns io.EOF; every other error is one of this
// package's typed errors or a gob decoding error, ends the connection's
// usefulness, and leaves dst as it was.
func (d *FrameDecoder) DecodeVector(dst []Message) (dest int32, out []Message, err error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, dst, io.EOF
		}
		return 0, dst, fmt.Errorf("%w: %v", ErrShortFrame, err)
	}
	n := int(binary.BigEndian.Uint32(d.hdr[:]))
	if n > MaxFrameBytes {
		return 0, dst, fmt.Errorf("%w: header claims %d bytes", ErrFrameTooLarge, n)
	}
	if err := d.readPayload(n); err != nil {
		return 0, dst, err
	}
	c := cursor{b: d.payload}
	dest = int32(c.u32())
	count := int(c.u32())
	section := c.take(int(c.u32()))
	if c.short {
		return 0, dst, fmt.Errorf("%w: %d-byte payload cannot hold its header and gob section", ErrShortFrame, n)
	}
	d.fb.reset()
	if len(section) > 0 {
		d.fr.buf, d.fr.off = section, 0
		if err := d.dec.Decode(&d.fb); err != nil {
			return 0, dst, classify(fmt.Errorf("codec: decode frame: %w", err))
		}
		if d.fr.off != len(section) {
			return 0, dst, fmt.Errorf("%w: %d of %d gob bytes unconsumed", ErrTrailingBytes, len(section)-d.fr.off, len(section))
		}
	}

	events, batches := d.fb.Events, d.fb.Cols
	out = dst
	defer func() {
		if err != nil {
			for _, m := range out[len(dst):] {
				if m.Cols != nil {
					m.Cols.Release()
				}
			}
			out = dst
		}
	}()
	for i := 0; i < count; i++ {
		tag := c.u8()
		m := Message{Ch: int32(c.uvarint()), Sent: int64(c.uvarint())}
		switch tag {
		case tagMarker:
			m.Ev = stream.Mark(stream.Marker{Seq: int64(c.u64()), Timestamp: int64(c.u64())})
		case tagEOS:
			m.EOS = true
		case tagBoxed:
			if len(events) == 0 {
				return 0, out, fmt.Errorf("%w: message %d refers to a boxed event the gob section does not hold", ErrShortFrame, i)
			}
			m.Ev = stream.Item(events[0].Key, events[0].Value)
			events = events[1:]
		case tagCols, tagColsIntro:
			kind, err := d.kind(&c, tag == tagColsIntro)
			if err != nil {
				return 0, out, err
			}
			rows := c.u32()
			if c.short || rows > MaxFrameBytes {
				return 0, out, fmt.Errorf("%w: message %d claims %d rows", ErrShortFrame, i, rows)
			}
			m.Cols = kind.Get()
			used, err := m.Cols.ReadWire(int(rows), c.b)
			if err != nil {
				m.Cols.Release()
				return 0, out, fmt.Errorf("%w: message %d: %v", ErrShortFrame, i, err)
			}
			c.take(used)
		case tagColsGob:
			if len(batches) == 0 {
				return 0, out, fmt.Errorf("%w: message %d refers to a batch the gob section does not hold", ErrShortFrame, i)
			}
			w := batches[0]
			batches = batches[1:]
			kind := stream.ColKindByName(w.Kind)
			if kind == nil {
				return 0, out, fmt.Errorf("%w: %q", ErrUnknownKind, w.Kind)
			}
			cols, err := kind.FromSlices(w.Keys, w.Vals)
			if err != nil {
				return 0, out, fmt.Errorf("%w: %v", ErrLayoutMismatch, err)
			}
			m.Cols = cols
		default:
			if !c.short {
				return 0, out, fmt.Errorf("codec: decode frame: message %d has unknown tag %d", i, tag)
			}
		}
		if c.short {
			return 0, out, fmt.Errorf("%w: message %d of %d runs past the %d-byte payload", ErrShortFrame, i, count, n)
		}
		out = append(out, m)
	}
	if rest := len(c.b) + len(events) + len(batches); rest > 0 {
		return 0, out, fmt.Errorf("%w: %d bytes and %d gob values after the last message", ErrTrailingBytes, len(c.b), len(events)+len(batches))
	}
	return dest, out, nil
}

// kind resolves a cols message's kind id, learning it first when the
// message introduces it.
func (d *FrameDecoder) kind(c *cursor, intro bool) (*stream.ColKind, error) {
	id := int(c.u32())
	if !intro {
		if c.short || id >= len(d.kinds) {
			return nil, fmt.Errorf("%w: id %d of %d introduced", ErrUnknownKind, id, len(d.kinds))
		}
		return d.kinds[id], nil
	}
	name := string(c.take(int(c.u16())))
	fingerprint := c.u64()
	if c.short {
		return nil, fmt.Errorf("%w: kind introduction runs past the payload", ErrShortFrame)
	}
	if id != len(d.kinds) {
		return nil, fmt.Errorf("%w: %q introduced as id %d, expected %d", ErrUnknownKind, name, id, len(d.kinds))
	}
	kind := stream.ColKindByName(name)
	if kind == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, name)
	}
	if !kind.Wired() || kind.Fingerprint() != fingerprint {
		return nil, fmt.Errorf("%w: %s has fingerprint %#x here, %#x at the sender", ErrLayoutMismatch, name, kind.Fingerprint(), fingerprint)
	}
	d.kinds = append(d.kinds, kind)
	return kind, nil
}

// Decode reads the next frame into f as a plain value. The decoded
// column slices are f's alone (their batches are not returned to the
// pool).
func (d *FrameDecoder) Decode(f *Frame) error {
	dest, msgs, err := d.DecodeVector(d.msgs[:0])
	if err != nil {
		return err
	}
	f.Dest, f.Msgs = dest, f.Msgs[:0]
	for _, m := range msgs {
		w := WireMessage{Ch: m.Ch, EOS: m.EOS, Sent: m.Sent}
		switch {
		case m.Cols != nil:
			keys, vals := m.Cols.Slices()
			w.Cols = &WireCols{Kind: m.Cols.Kind().Name(), Keys: keys, Vals: vals}
		case !m.EOS:
			w.Ev = FromEvent(m.Ev)
		}
		f.Msgs = append(f.Msgs, w)
	}
	clear(msgs)
	d.msgs = msgs[:0]
	return nil
}

// readPayload fills d.payload with n bytes from the stream. The
// scratch buffer grows in bounded steps, each taken only after the
// previous step's bytes actually arrived, so allocation tracks the
// bytes received rather than the (possibly lying) header.
func (d *FrameDecoder) readPayload(n int) error {
	const step = 64 << 10
	if cap(d.payload) >= n {
		d.payload = d.payload[:n]
		if _, err := io.ReadFull(d.r, d.payload); err != nil {
			return fmt.Errorf("%w: %v", ErrShortFrame, err)
		}
		return nil
	}
	d.payload = d.payload[:0]
	for got := 0; got < n; {
		k := n - got
		if k > step {
			k = step
		}
		d.payload = append(d.payload, make([]byte, k)...)
		if _, err := io.ReadFull(d.r, d.payload[got:]); err != nil {
			return fmt.Errorf("%w: %v", ErrShortFrame, err)
		}
		got += k
	}
	return nil
}
