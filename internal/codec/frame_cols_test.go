package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"datatrace/internal/stream"
)

// adEvent has the shape of workload.YahooEvent, the row Query IV's
// source edge carries: five machine words, no pointers.
type adEvent struct {
	UserID, PageID, AdID int64
	Type                 int
	EventTime            int64
}

// The kinds the column-frame tests put on one connection: two raw
// layouts with a zero-size column each, a string-keyed one, and one
// without a wire layout (its values hold slices), which must take the
// gob fallback.
var (
	kindCount = stream.ColKindFor[int64, stream.Unit]()
	kindAd    = stream.ColKindFor[stream.Unit, adEvent]()
	kindName  = stream.ColKindFor[string, int64]()
	kindList  = stream.ColKindFor[int64, []int64]()
)

func TestWiredKinds(t *testing.T) {
	for kind, want := range map[*stream.ColKind]bool{kindCount: true, kindAd: true, kindName: true, kindList: false} {
		if kind.Wired() != want {
			t.Errorf("%s: Wired() = %v, want %v", kind, kind.Wired(), want)
		}
	}
	if kindCount.Fingerprint() == kindAd.Fingerprint() {
		t.Error("two different layouts share a fingerprint")
	}
}

// mkColMsgs deterministically derives a mixed message vector from a
// byte string: markers, EOS notices, boxed items and batches of the four
// kinds (empty ones included), in whatever order the bytes dictate, so
// kinds are introduced on a connection in varying order.
func mkColMsgs(data []byte) []Message {
	var msgs []Message
	for i := 0; i+3 < len(data); i += 4 {
		sel, ch, a, b := data[i], data[i+1], data[i+2], data[i+3]
		m := Message{Ch: int32(ch % 8), Sent: int64(a) * 1000}
		rows := int(b % 5)
		switch sel % 8 {
		case 0:
			m.Ev = stream.Item(int64(a), int64(b))
		case 1:
			m.Ev = stream.Mark(stream.Marker{Seq: int64(a), Timestamp: int64(b) * 1000})
		case 2:
			m.EOS = true
		case 3:
			c := kindCount.Get().(*stream.Cols[int64, stream.Unit])
			for r := 0; r < rows; r++ {
				c.Append(int64(a)<<32|int64(r), stream.Unit{})
			}
			m.Cols = c
		case 4, 5:
			c := kindAd.Get().(*stream.Cols[stream.Unit, adEvent])
			for r := 0; r < rows; r++ {
				c.Append(stream.Unit{}, adEvent{UserID: int64(a), PageID: -int64(b), AdID: int64(r), Type: r % 3, EventTime: int64(i)})
			}
			m.Cols = c
		case 6:
			c := kindName.Get().(*stream.Cols[string, int64])
			for r := 0; r < rows; r++ {
				c.Append(strings.Repeat(string(rune('a'+a%26)), r), int64(b))
			}
			m.Cols = c
		case 7:
			c := kindList.Get().(*stream.Cols[int64, []int64])
			for r := 0; r < rows; r++ {
				c.Append(int64(a), []int64{int64(b), int64(r)})
			}
			m.Cols = c
		}
		msgs = append(msgs, m)
	}
	return msgs
}

// sameMessage compares a decoded message with the one encoded.
func sameMessage(got, want Message) bool {
	if got.Ch != want.Ch || got.EOS != want.EOS || got.Sent != want.Sent || !reflect.DeepEqual(got.Ev, want.Ev) {
		return false
	}
	if (got.Cols == nil) != (want.Cols == nil) {
		return false
	}
	if want.Cols == nil {
		return true
	}
	if got.Cols.Kind() != want.Cols.Kind() || got.Cols.Len() != want.Cols.Len() {
		return false
	}
	for i := 0; i < want.Cols.Len(); i++ {
		if !reflect.DeepEqual(got.Cols.EventAt(i), want.Cols.EventAt(i)) {
			return false
		}
	}
	return true
}

func releaseAll(msgs []Message) {
	for _, m := range msgs {
		if m.Cols != nil {
			m.Cols.Release()
		}
	}
}

// roundTrip sends msgs over one connection in frames of per messages
// and checks the decoded vectors against them.
func roundTrip(t *testing.T, msgs []Message, per int) []byte {
	t.Helper()
	var wire bytes.Buffer
	enc := NewFrameEncoder(&wire)
	var frames [][]Message
	for i := 0; i < len(msgs) || i == 0; i += per {
		frames = append(frames, msgs[i:min(i+per, len(msgs))])
	}
	var typed, boxed int64
	for i, f := range frames {
		if err := enc.EncodeVector(int32(i), f); err != nil {
			t.Fatalf("encode frame %d: %v", i, err)
		}
		for _, m := range f {
			switch {
			case m.Cols != nil && m.Cols.Kind().Wired():
				typed += int64(m.Cols.Len())
			case m.Cols != nil:
				boxed += int64(m.Cols.Len())
			case !m.EOS && !m.Ev.IsMarker:
				boxed++
			}
		}
	}
	if enc.Frames != int64(len(frames)) || enc.Bytes != int64(wire.Len()) || enc.TypedRows != typed || enc.FallbackRows != boxed {
		t.Fatalf("encoder counted %d frames, %d bytes, %d typed and %d fallback rows; sent %d, %d, %d, %d",
			enc.Frames, enc.Bytes, enc.TypedRows, enc.FallbackRows, len(frames), wire.Len(), typed, boxed)
	}
	sent := append([]byte(nil), wire.Bytes()...)
	dec := NewFrameDecoder(&wire)
	for i, f := range frames {
		dest, got, err := dec.DecodeVector(nil)
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if dest != int32(i) || len(got) != len(f) {
			t.Fatalf("frame %d: decoded dest %d with %d messages, want %d", i, dest, len(got), len(f))
		}
		for j := range f {
			if !sameMessage(got[j], f[j]) {
				t.Fatalf("frame %d message %d: got %+v want %+v", i, j, got[j], f[j])
			}
		}
		releaseAll(got)
	}
	if _, _, err := dec.DecodeVector(nil); err != io.EOF {
		t.Fatalf("stream not exhausted: %v", err)
	}
	return sent
}

// TestColsFrameRoundTrip is the layout's core property on a fixed
// input: every kind, empty batches, boxed traffic in between, several
// frame sizes.
func TestColsFrameRoundTrip(t *testing.T) {
	seed := []byte("\x03\x01\x05\x04" + "\x04\x02\x09\x03" + "\x06\x00\x02\x04" + "\x07\x03\x01\x02" +
		"\x01\x00\x07\x01" + "\x03\x00\x00\x00" + "\x05\x07\xff\x09" + "\x00\x01\x02\x03" + "\x02\x05\x00\x00" +
		"\x06\x01\x19\x00" + "\x07\x00\x00\x05" + "\x04\x04\x04\x04")
	for _, per := range []int{1, 3, 64} {
		msgs := mkColMsgs(seed)
		roundTrip(t, msgs, per)
		releaseAll(msgs)
	}
}

// adFrame is a frame holding one batch of rows adEvent rows.
func adFrame(rows int) Frame {
	vals := make([]adEvent, rows)
	for i := range vals {
		vals[i] = adEvent{UserID: int64(i), AdID: int64(i * 7), EventTime: 1 << 40}
	}
	return Frame{Dest: 1, Msgs: []WireMessage{{Ch: 1, Cols: &WireCols{Kind: kindAd.Name(), Keys: make([]stream.Unit, rows), Vals: vals}}}}
}

// TestFrameFormCarriesColumns checks the plain-value form the probes
// use: a WireCols of typed slices goes out as raw columns and comes back
// as typed slices.
func TestFrameFormCarriesColumns(t *testing.T) {
	want := adFrame(64)
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf)
	if err := enc.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if enc.TypedRows != 64 || enc.FallbackRows != 0 {
		t.Fatalf("typed %d fallback %d rows, want 64 and 0", enc.TypedRows, enc.FallbackRows)
	}
	if perRow := float64(buf.Len()) / 64; perRow < 40 || perRow > 42 {
		t.Fatalf("%.1f bytes per 40-byte row", perRow)
	}
	var got Frame
	if err := NewFrameDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

// colsStream is a valid two-frame stream of one adEvent batch each, the
// first introducing the kind, and the offsets of the fields the error
// tests corrupt.
func colsStream(t testing.TB, rows int) (b []byte, second int) {
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf)
	f := adFrame(rows)
	if err := enc.Encode(&f); err != nil {
		t.Fatal(err)
	}
	second = buf.Len()
	if err := enc.Encode(&f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), second
}

// Offsets inside a frame whose only message is a cols message with a
// one-byte channel and no send stamp.
const (
	offMsg       = headerLen          // tag
	offKindID    = offMsg + 1 + 1 + 1 // after tag, ch, sent
	offIntroName = offKindID + 4 + 2  // after id and nameLen
	offRows      = offKindID + 4      // cols (not intro) only
)

func decodeAll(b []byte) error {
	dec := NewFrameDecoder(bytes.NewReader(b))
	for {
		_, msgs, err := dec.DecodeVector(nil)
		if err != nil {
			return err
		}
		releaseAll(msgs)
	}
}

// TestColsFrameTypedErrors drives every way a column frame can be wrong
// into its typed error: nothing panics, nothing is decoded from memory
// the frame does not hold.
func TestColsFrameTypedErrors(t *testing.T) {
	valid, second := colsStream(t, 8)
	if err := decodeAll(valid); err != io.EOF {
		t.Fatalf("valid stream: %v", err)
	}
	nameLen := len(kindAd.Name())
	patch := func(at int, with ...byte) []byte {
		b := append([]byte(nil), valid...)
		copy(b[at:], with)
		return b
	}
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

	cases := []struct {
		name   string
		stream []byte
		want   error
	}{
		{"unknown kind id", patch(second+offKindID, u32(5)...), ErrUnknownKind},
		{"duplicate kind id", append(append([]byte(nil), valid[:second]...), valid[:second]...), ErrUnknownKind},
		{"kind id used before its introduction", valid[second:], ErrUnknownKind},
		{"unknown kind name", patch(offIntroName, 'x'), ErrUnknownKind},
		{"layout fingerprint mismatch", patch(offIntroName+nameLen, 0xff, 0xee), ErrLayoutMismatch},
		{"rows × width overflowing the frame", patch(second+offRows, u32(1<<20)...), ErrShortFrame},
		{"row count beyond any frame", patch(second+offRows, u32(1<<31)...), ErrShortFrame},
		{"stream cut inside a column", valid[:len(valid)-100], ErrShortFrame},
		{"payload ending inside a column", func() []byte {
			b := append([]byte(nil), valid[:second-100]...)
			binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			return b
		}(), ErrShortFrame},
		{"fewer rows than the payload holds", patch(second+offRows, u32(7)...), ErrTrailingBytes},
		{"unknown tag", patch(offMsg, 99), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := decodeAll(c.stream)
			if err == io.EOF || err == nil {
				t.Fatalf("decoded without error")
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
		})
	}

	t.Run("string offsets", func(t *testing.T) {
		c := kindName.Get().(*stream.Cols[string, int64])
		c.Append("ab", 1)
		c.Append("cde", 2)
		var buf bytes.Buffer
		if err := NewFrameEncoder(&buf).EncodeVector(0, []Message{{Cols: c}}); err != nil {
			t.Fatal(err)
		}
		c.Release()
		valid := buf.Bytes()
		offsets := offIntroName + len(kindName.Name()) + 8 + 4 // after name, fingerprint, rows
		if got := binary.LittleEndian.Uint32(valid[offsets+4:]); got != 5 {
			t.Fatalf("second end offset is %d: the test's idea of the layout is wrong", got)
		}
		for name, ends := range map[string][2]uint32{"decreasing": {4, 3}, "past the bytes": {2, 6}, "far past the bytes": {2, 1 << 30}} {
			b := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(b[offsets:], ends[0])
			binary.LittleEndian.PutUint32(b[offsets+4:], ends[1])
			if err := decodeAll(b); !errors.Is(err, ErrShortFrame) {
				t.Errorf("%s: got %v, want ErrShortFrame", name, err)
			}
		}
	})

	t.Run("encode side", func(t *testing.T) {
		enc := NewFrameEncoder(io.Discard)
		for name, c := range map[string]struct {
			cols WireCols
			want error
		}{
			"unknown kind name": {WireCols{Kind: "cols[no,such]", Keys: []int64{1}, Vals: []int64{1}}, ErrUnknownKind},
			"ragged columns":    {WireCols{Kind: kindAd.Name(), Keys: make([]stream.Unit, 2), Vals: make([]adEvent, 3)}, ErrLayoutMismatch},
			"mistyped slices":   {WireCols{Kind: kindAd.Name(), Keys: make([]stream.Unit, 2), Vals: []int64{1, 2}}, ErrLayoutMismatch},
		} {
			err := enc.Encode(&Frame{Msgs: []WireMessage{{Cols: &c.cols}}})
			if !errors.Is(err, c.want) {
				t.Errorf("%s: got %v, want %v", name, err, c.want)
			}
		}
		if enc.Frames != 0 {
			t.Errorf("%d rejected frames were written", enc.Frames)
		}
	})
}

// TestFallbackBatchErrors covers the gob fallback's own two: a batch of
// a kind the receiver never created, and one whose slices are not the
// kind's.
func TestFallbackBatchErrors(t *testing.T) {
	c := kindList.Get().(*stream.Cols[int64, []int64])
	c.Append(1, []int64{2})
	var buf bytes.Buffer
	if err := NewFrameEncoder(&buf).EncodeVector(0, []Message{{Cols: c}}); err != nil {
		t.Fatal(err)
	}
	c.Release()
	name := []byte(kindList.Name())
	if !bytes.Contains(buf.Bytes(), name) {
		t.Fatal("kind name not found in the fallback section")
	}
	unknown := bytes.Replace(buf.Bytes(), name, bytes.Replace(name, []byte("cols"), []byte("colz"), 1), 1)
	if err := decodeAll(unknown); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind: got %v, want ErrUnknownKind", err)
	}
	// The same slices under another kind's name, of the same length so
	// gob's byte counts stay right.
	other := stream.ColKindFor[int64, []int32]()
	if len(other.Name()) != len(name) {
		t.Fatalf("%s is no same-length stand-in for %s", other, name)
	}
	if err := decodeAll(bytes.Replace(buf.Bytes(), name, []byte(other.Name()), 1)); !errors.Is(err, ErrLayoutMismatch) {
		t.Errorf("mistyped slices: got %v, want ErrLayoutMismatch", err)
	}
}

// TestColsFrameArenaReuse checks that the raw path is allocation-free in
// the steady state — the encoder's buffers, the decoder's payload and
// the kind's pooled arenas are all reused — and that what was decoded
// owns its memory: scribbling over the decoder's payload buffer changes
// nothing, before or after the batch went back to the pool.
func TestColsFrameArenaReuse(t *testing.T) {
	src := kindAd.Get().(*stream.Cols[stream.Unit, adEvent])
	names := kindName.Get().(*stream.Cols[string, int64])
	for i := 0; i < 64; i++ {
		src.Append(stream.Unit{}, adEvent{UserID: int64(i), EventTime: int64(i) << 20})
		names.Append(strings.Repeat("k", i%7), int64(i))
	}
	defer src.Release()
	defer names.Release()

	var wire bytes.Buffer
	enc := NewFrameEncoder(&wire)
	dec := NewFrameDecoder(&wire)
	in := []Message{{Ch: 1, Cols: src}}
	var out []Message
	cycle := func() {
		if err := enc.EncodeVector(3, in); err != nil {
			t.Fatal(err)
		}
		_, msgs, err := dec.DecodeVector(out[:0])
		if err != nil {
			t.Fatal(err)
		}
		msgs[0].Cols.Release()
		out = msgs
	}
	cycle() // warm-up: kind introduction, buffers, the pooled batch
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 2 {
		t.Errorf("encode+decode of a 64-row raw batch allocates %.1f times, want ≤ 2", allocs)
	}

	for _, batch := range []stream.Columns{src, names} {
		if err := enc.EncodeVector(3, []Message{{Cols: batch}}); err != nil {
			t.Fatal(err)
		}
		_, msgs, err := dec.DecodeVector(nil)
		if err != nil {
			t.Fatal(err)
		}
		got := msgs[0].Cols
		for i := range dec.payload {
			dec.payload[i] = 0xa5
		}
		if !sameMessage(Message{Cols: got}, Message{Cols: batch}) {
			t.Fatalf("%s: decoded batch changed with the decoder's payload buffer", batch.Kind())
		}
		got.Release()
		again := batch.Kind().Get()
		if _, err := again.ReadWire(batch.Len(), batch.AppendWire(nil)); err != nil {
			t.Fatal(err)
		}
		for i := range dec.payload {
			dec.payload[i] = 0x5a
		}
		if !sameMessage(Message{Cols: again}, Message{Cols: batch}) {
			t.Fatalf("%s: a reused arena aliases the decoder's payload buffer", batch.Kind())
		}
		again.Release()
	}
}

// FuzzWireColsFrame is FuzzWireFrame for frames that carry column
// batches: (1) structured — a mixed vector derived from the input (all
// four kinds, empty batches, boxed traffic, kinds introduced in
// input-dependent order) survives a connection, split into frames of an
// input-dependent size, with the encoder's row counters right; (2) raw —
// the input itself is decoded as a stream, which must end in io.EOF or
// an error, never a panic, with nothing allocated or decoded beyond the
// bytes received.
func FuzzWireColsFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x01\x05\x04\x04\x02\x09\x03\x06\x00\x02\x04\x07\x03\x01\x02\x01\x00\x07\x01"))
	// Valid streams and the corruptions of TestColsFrameTypedErrors, so
	// mutation starts next to the real layout.
	valid, second := colsStream(f, 8)
	f.Add(valid)
	f.Add(valid[:len(valid)-100])
	f.Add(valid[second:])
	f.Add(append(append([]byte(nil), valid[:second]...), valid[:second]...))
	for _, rows := range []uint32{0, 7, 9, 1 << 20, 1 << 31} {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[second+offRows:], rows)
		f.Add(b)
	}
	b := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(b[second+offKindID:], 3)
	f.Add(b)
	mixed := mkColMsgs([]byte("\x06\x00\x02\x04\x07\x03\x01\x02\x03\x03\x03\x03\x00\x01\x02\x03"))
	var buf bytes.Buffer
	if err := NewFrameEncoder(&buf).EncodeVector(9, mixed); err != nil {
		f.Fatal(err)
	}
	releaseAll(mixed)
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := mkColMsgs(data)
		per := 1
		if len(data) > 0 {
			per += int(data[0] % 9)
		}
		roundTrip(t, msgs, per)
		releaseAll(msgs)

		raw := NewFrameDecoder(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			_, got, err := raw.DecodeVector(nil)
			if err != nil {
				if len(got) != 0 {
					t.Fatalf("a failed decode returned %d messages", len(got))
				}
				break
			}
			for _, m := range got {
				if m.Cols == nil {
					continue
				}
				// Every kind here spends at least a byte per row.
				if m.Cols.Len() > len(data) {
					t.Fatalf("decoded %d rows from %d bytes of input", m.Cols.Len(), len(data))
				}
			}
			releaseAll(got)
		}
		if cap(raw.payload) > len(data)+(64<<10) {
			t.Fatalf("%d-byte payload buffer for %d bytes of input", cap(raw.payload), len(data))
		}
	})
}

// TestUniversalBatchTakesTheFallback: a batch of the universal kind —
// what the runtime's untyped edges carry — has no wire layout, so it
// crosses as one gob value, every row counted in FallbackRows, nil keys
// and values included; an unregistered element type is the typed error
// that leaves the connection usable.
func TestUniversalBatchTakesTheFallback(t *testing.T) {
	Register(adEvent{})
	rows := []stream.Event{
		stream.Item(nil, nil), stream.Item(stream.Unit{}, int64(3)), stream.Item(int64(-1), "v"),
		stream.Item("k", adEvent{UserID: 7}), stream.Item(nil, stream.Unit{}),
	}
	in := stream.AnyKind.Get()
	for _, e := range rows {
		in.AppendEvent(e)
	}
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf)
	type hidden struct{ X int }
	bad := stream.AnyKind.Get()
	bad.AppendEvent(stream.Item(int64(1), hidden{1}))
	if err := enc.EncodeVector(3, []Message{{Ch: 1, Cols: bad}}); !errors.Is(err, ErrUnregisteredType) {
		t.Fatalf("unregistered element: got %v, want ErrUnregisteredType", err)
	}
	bad.Release()
	if err := enc.EncodeVector(3, []Message{{Ch: 2, Cols: in}, {Ch: 2, Ev: stream.Mark(stream.Marker{Seq: 1})}}); err != nil {
		t.Fatal(err)
	}
	if enc.TypedRows != 0 || enc.FallbackRows != int64(len(rows)) {
		t.Fatalf("typed %d fallback %d rows, want 0 and %d", enc.TypedRows, enc.FallbackRows, len(rows))
	}
	dest, out, err := NewFrameDecoder(&buf).DecodeVector(nil)
	if err != nil || dest != 3 || len(out) != 2 {
		t.Fatalf("decode: dest %d, %d messages, err %v", dest, len(out), err)
	}
	got := out[0].Cols
	if got == nil || got.Kind() != stream.AnyKind || got.Len() != len(rows) || !out[1].Ev.IsMarker {
		t.Fatalf("decoded %+v", out)
	}
	for i, want := range rows {
		if e := got.EventAt(i); !reflect.DeepEqual(e, want) {
			t.Errorf("row %d: got %v, want %v", i, e, want)
		}
	}
	in.Release()
	got.Release()
}
