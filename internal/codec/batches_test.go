package codec

import (
	"bytes"
	"errors"
	"testing"

	"datatrace/internal/stream"
)

// TestBatchesRoundTrip encodes mixed sequences of typed and
// universal-kind batches in frames of a few rows and decodes them back
// in order: the same rows, and a kind introduced once per writer, so a
// repeated sequence encodes shorter.
func TestBatchesRoundTrip(t *testing.T) {
	Register(int64(0))
	typed := stream.ColKindFor[int64, float64]()
	var in []stream.Columns
	var want []stream.Event
	for i := range 7 {
		b := typed.Get()
		if i%3 == 2 {
			b = stream.AnyKind.Get()
		}
		for r := range i + 1 {
			e := stream.Item(int64(10*i+r), float64(r))
			b.AppendEvent(e)
			want = append(want, e)
		}
		in = append(in, b)
	}
	w, r := NewBatchWriter(), NewBatchReader()
	var sizes []int
	for range 2 {
		enc, err := w.Encode(in, 5)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(enc))
		out, err := r.Decode(bytes.Clone(enc), nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []stream.Event
		for _, b := range out {
			for i := range b.Len() {
				got = append(got, b.EventAt(i))
			}
			b.Release()
		}
		if stream.Render(got) != stream.Render(want) || len(out) != len(in) {
			t.Fatalf("decoded %d batches\n%s\nwant %d\n%s", len(out), stream.Render(got), len(in), stream.Render(want))
		}
	}
	for _, b := range in {
		b.Release()
	}
	if sizes[1] >= sizes[0] {
		t.Fatalf("the repeated sequence took %d bytes, the first %d: the kinds were introduced again", sizes[1], sizes[0])
	}
}

// TestBatchReaderRejects checks that a BatchReader fails typed on a
// truncated frame and on a frame holding a marker, and hands back the
// batches it decoded before the failure for the caller to release.
func TestBatchReaderRejects(t *testing.T) {
	b := stream.ColKindFor[int64, float64]().Get()
	b.AppendEvent(stream.Item(int64(1), 1.0))
	enc, err := NewBatchWriter().Encode([]stream.Columns{b, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	out, err := NewBatchReader().Decode(enc[:len(enc)-3], nil)
	if !errors.Is(err, ErrShortFrame) || len(out) != 1 {
		t.Fatalf("truncated second frame: %d batches, error %v", len(out), err)
	}
	out[0].Release()

	var marker bytes.Buffer
	if err := NewFrameEncoder(&marker).EncodeVector(0, []Message{{Ev: stream.Mark(stream.Marker{Seq: 1})}}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchReader().Decode(marker.Bytes(), nil); !errors.Is(err, ErrNotBatches) {
		t.Fatalf("a marker decoded as %v, want ErrNotBatches", err)
	}
}
