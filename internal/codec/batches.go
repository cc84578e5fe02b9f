package codec

import (
	"bytes"
	"errors"
	"io"

	"datatrace/internal/stream"
)

// ErrNotBatches reports a message other than a column batch where a
// BatchReader expects batches only.
var ErrNotBatches = errors.New("codec: a message that is not a column batch")

// BatchWriter encodes sequences of column batches, each into a byte
// string of frames, for one BatchReader that decodes them in the same
// order: like a link's frames, they share one encoder, so a kind or a
// gob type is introduced once, not once per sequence.
type BatchWriter struct {
	enc  *FrameEncoder
	buf  []byte
	msgs []Message
}

// NewBatchWriter creates a writer.
func NewBatchWriter() *BatchWriter {
	w := &BatchWriter{}
	w.enc = NewFrameEncoder((*encBuf)(&w.buf))
	return w
}

// Encode encodes batches as frames, each closed once it holds frameRows
// rows (whole batches), which keeps it under MaxFrameBytes for rows of
// up to MaxFrameBytes/(frameRows + the largest batch) bytes. The result
// is valid until the next call; the batches stay the caller's.
func (w *BatchWriter) Encode(batches []stream.Columns, frameRows int) ([]byte, error) {
	w.buf, w.msgs = w.buf[:0], w.msgs[:0]
	rows := 0
	for i, b := range batches {
		w.msgs = append(w.msgs, Message{Cols: b})
		if rows += b.Len(); rows >= frameRows || i == len(batches)-1 {
			err := w.enc.EncodeVector(0, w.msgs)
			clear(w.msgs)
			if err != nil {
				return nil, err
			}
			w.msgs, rows = w.msgs[:0], 0
		}
	}
	return w.buf, nil
}

// BatchReader decodes what one BatchWriter encoded, in order.
type BatchReader struct {
	src  bytes.Reader
	dec  *FrameDecoder
	msgs []Message
}

// NewBatchReader creates a reader.
func NewBatchReader() *BatchReader {
	r := &BatchReader{}
	r.dec = NewFrameDecoder(&r.src)
	return r
}

// Decode decodes one sequence, appending its batches — pooled, the
// caller's to release, on an error too — to dst.
func (r *BatchReader) Decode(src []byte, dst []stream.Columns) ([]stream.Columns, error) {
	r.src.Reset(src)
	for {
		_, msgs, err := r.dec.DecodeVector(r.msgs[:0])
		if err == io.EOF {
			return dst, nil
		}
		for _, m := range msgs {
			if m.Cols == nil {
				err = ErrNotBatches
				continue
			}
			dst = append(dst, m.Cols)
		}
		clear(msgs)
		if r.msgs = msgs; err != nil {
			return dst, err
		}
	}
}
