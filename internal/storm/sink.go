package storm

import (
	"datatrace/internal/codec"
	"datatrace/internal/stream"
)

// Cut identifies one block of a sink's output trace: block N, between
// the sink's markers N-1 and N, closed by Marker — or, when End is set,
// the trailing block after the last marker.
type Cut struct {
	N      uint64
	Marker stream.Marker
	End    bool
}

// SinkFunc consumes a sink's output on its executor's goroutine, one
// block per call in cut order, each once: under recovery after its cut
// committed, so never a row of a failed attempt. rows holds the block's
// batches in arrival order, valid only during the call (the contract of
// ColProcessor.ProcessCols): the merger releases them afterwards.
type SinkFunc func(c Cut, rows []stream.Columns)

// SetSinkConsumer installs the sink consumers of the next Run: newFunc
// returns a sink's consumer by name, or nil to collect the sink into
// Result.Sinks, as every sink is by default.
func (t *Topology) SetSinkConsumer(newFunc func(sink string) SinkFunc) { t.newSink = newFunc }

// deliverCut hands the sink's open block, closed by x.mark or the
// trailing block, to its consumer, and forgets the merger's batches.
func (x *boltExec) deliverCut(end bool) {
	x.rc.sink(Cut{N: x.cut, Marker: x.mark, End: end}, x.rows)
	clear(x.rows)
	x.rows = x.rows[:0]
	x.cut++
}

// collector is the default sink consumer. It appends each block to the
// sink's output as it arrives: assembling the output at the end instead
// is one large allocation after every pooled batch went idle, and a GC
// it triggers there drops the pools' working set (EXPERIMENTS.md,
// "Sinks consume committed cuts").
type collector struct{ out []stream.Event }

func (c *collector) add(cut Cut, rows []stream.Columns) {
	mark := &cut.Marker
	if cut.End {
		mark = nil
	}
	c.out = stream.AppendBlock(c.out, rows, mark)
}

// sinkStream is a networked worker's sink consumer: it sends each cut
// to the coordinator as one netSinkData, its batches encoded by the
// sink's codec.BatchWriter (raw columns for a wired kind, the counted
// gob fallback otherwise). The first failure — a type the codec cannot
// carry, a coordinator that is gone — ends the stream, and the worker
// reports it with its Done, so lost output fails the run.
type sinkStream struct {
	sink string
	cw   *ctrlWriter
	w    *codec.BatchWriter
	err  error
}

const sinkFrameRows = 1 << 14 // rows per frame of a cut

func (s *sinkStream) consume(c Cut, rows []stream.Columns) {
	var frames []byte
	if s.err == nil {
		frames, s.err = s.w.Encode(rows, sinkFrameRows)
	}
	if s.err == nil {
		s.err = s.cw.send(netEnvelope{Sink: &netSinkData{Sink: s.sink, Cut: c, Frames: frames}})
	}
}
