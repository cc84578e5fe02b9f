package storm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"datatrace/internal/stream"
)

// This file holds colMerge to its model: stream.MergeState, the MRG
// merger of the evaluator. The two are driven with the same
// interleaving of boxed events and column batches (a batch is expanded
// to its rows for the model) and must agree on the delivery order, on
// every merged marker, and on Pending — and Pending fed into a fresh
// colMerge must reproduce the state, which is the replay contract of
// marker-cut recovery. The batch-ownership rule is checked alongside: a
// batch is released when its block pops, never earlier, never twice
// (stream.Cols panics on a second Release).

// mergeKey gives the test its own column kind, so no other test's
// traffic shares (and refills) the arenas whose emptiness it inspects.
type mergeKey int

var mergeKind = stream.ColKindFor[mergeKey, int]()

// mOp is one scripted merger input: an item, a marker, a batch of
// rows, or (kind 3) a crash-style handover of Pending to a fresh
// merger.
type mOp struct {
	kind byte // 0 item, 1 marker, 2 batch, 3 handover
	ch   int
	rows int
	ts   int64
}

// mergePair drives a colMerge and its model in lockstep.
type mergePair struct {
	t     *testing.T
	n     int
	cm    *colMerge
	model *stream.MergeState
	// got/want are the delivery sequences, batches expanded to rows.
	got, want []stream.Event
	// live holds every batch handed to the merger and not yet seen
	// released; delivered marks the ones dcols has passed to the
	// consumer.
	live      []*stream.Cols[mergeKey, int]
	delivered map[stream.Columns]bool
	next      int
	seq       []int64
}

func newMergePair(t *testing.T, n int) *mergePair {
	p := &mergePair{t: t, n: n, model: stream.NewMergeState(n), delivered: map[stream.Columns]bool{}, seq: make([]int64, n)}
	p.cm = p.fresh()
	return p
}

func (p *mergePair) fresh() *colMerge {
	return newColMerge(p.n,
		func(e stream.Event) { p.got = append(p.got, e) },
		func(c stream.Columns) {
			if c.Len() == 0 {
				p.t.Fatalf("merger delivered a released batch")
			}
			p.delivered[c] = true
			for i := 0; i < c.Len(); i++ {
				p.got = append(p.got, c.EventAt(i))
			}
		})
}

func (p *mergePair) wantEv(e stream.Event) { p.want = append(p.want, e) }

func (p *mergePair) apply(op mOp) {
	ch := op.ch % p.n
	switch op.kind {
	case 0:
		e := stream.Item(mergeKey(p.next), p.next)
		p.next++
		c := stream.AnyKind.Get() // a boxed emission is a one-row universal batch
		c.AppendEvent(e)
		p.cm.Next(ch, message{cols: c})
		p.model.Next(ch, e, p.wantEv)
	case 1:
		e := stream.Mark(stream.Marker{Seq: p.seq[ch], Timestamp: op.ts})
		p.seq[ch]++
		p.cm.Next(ch, message{punct: markPunct, mark: e.Marker})
		p.model.Next(ch, e, p.wantEv)
	case 2:
		c := mergeKind.Get().(*stream.Cols[mergeKey, int])
		for i := 0; i < 1+op.rows%5; i++ {
			c.Append(mergeKey(p.next), p.next)
			p.model.Next(ch, stream.Item(mergeKey(p.next), p.next), p.wantEv)
			p.next++
		}
		p.live = append(p.live, c)
		p.cm.Next(ch, message{cols: c})
	case 3:
		p.handover()
	}
	p.check()
}

// expand renders a Pending list with batches expanded to rows.
func expand(pending [][]message) [][]stream.Event {
	out := make([][]stream.Event, len(pending))
	for ch, es := range pending {
		for _, e := range es {
			if e.cols == nil {
				out[ch] = append(out[ch], stream.Mark(e.mark))
				continue
			}
			for i := 0; i < e.cols.Len(); i++ {
				out[ch] = append(out[ch], e.cols.EventAt(i))
			}
		}
	}
	return out
}

// handover abandons the merger the way a crashed executor does: its
// Pending moves into a fresh merger, which must deliver nothing while
// absorbing it (pending input never completes a block) and end up in
// the same state.
func (p *mergePair) handover() {
	pending := p.cm.Pending()
	before := len(p.got)
	p.cm = p.fresh()
	for ch, es := range pending {
		for _, e := range es {
			p.cm.Next(ch, e)
		}
	}
	if len(p.got) != before {
		p.t.Fatalf("re-feeding Pending delivered %d events; pending input cannot complete a block", len(p.got)-before)
	}
	if got, want := expand(p.cm.Pending()), expand(pending); !reflect.DeepEqual(got, want) {
		p.t.Fatalf("Pending fed into a fresh merger does not reproduce the state:\n got %v\nwant %v", got, want)
	}
}

// check compares the two mergers after every step and enforces the
// ownership rule on every live batch: released (empty) exactly when
// the merger no longer holds it, and then only after it was delivered.
func (p *mergePair) check() {
	if !reflect.DeepEqual(p.got, p.want) {
		p.t.Fatalf("delivery order differs:\n got %s\nwant %s", stream.Render(p.got), stream.Render(p.want))
	}
	pending := p.cm.Pending()
	if got, want := expand(pending), p.model.Pending(); !reflect.DeepEqual(got, want) {
		p.t.Fatalf("Pending differs:\n got %v\nwant %v", got, want)
	}
	held := map[stream.Columns]bool{}
	for _, es := range pending {
		for _, e := range es {
			if e.cols != nil {
				held[e.cols] = true
			}
		}
	}
	kept := p.live[:0]
	for _, c := range p.live {
		switch {
		case held[c] && c.Len() == 0:
			p.t.Fatalf("a batch the merger still holds was released")
		case held[c]:
			kept = append(kept, c)
		case c.Len() != 0:
			p.t.Fatalf("a popped block's batch was not released")
		case !p.delivered[c]:
			p.t.Fatalf("a batch was released without having been delivered")
		}
	}
	p.live = kept
}

// finish checks Trailing against the model and that drop releases what
// is left.
func (p *mergePair) finish() {
	p.cm.Trailing()
	p.want = append(p.want, p.model.Trailing()...)
	if !reflect.DeepEqual(p.got, p.want) {
		p.t.Fatalf("trailing delivery differs:\n got %s\nwant %s", stream.Render(p.got), stream.Render(p.want))
	}
	for _, c := range p.live {
		if c.Len() == 0 {
			p.t.Fatalf("Trailing released a batch before the trailing output was safe")
		}
	}
	p.cm.drop()
	for _, c := range p.live {
		if c.Len() != 0 {
			p.t.Fatalf("drop left a batch unreleased")
		}
	}
	if got := expand(p.cm.Pending()); !reflect.DeepEqual(got, make([][]stream.Event, p.n)) {
		p.t.Fatalf("drop left the merger holding %v", got)
	}
}

func randomMergeOps(r *rand.Rand, n int) []mOp {
	ops := make([]mOp, n)
	for i := range ops {
		op := mOp{ch: r.Intn(4), rows: r.Intn(5), ts: int64(r.Intn(50))}
		switch k := r.Intn(20); {
		case k < 7:
			op.kind = 0
		case k < 12:
			op.kind = 1
		case k < 19:
			op.kind = 2
		default:
			op.kind = 3
		}
		ops[i] = op
	}
	return ops
}

func TestColMergeMatchesMergeState(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for seed := int64(0); seed < 40; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				p := newMergePair(t, n)
				for _, op := range randomMergeOps(rand.New(rand.NewSource(seed)), 120) {
					p.apply(op)
				}
				p.finish()
			})
		}
	}
}

// FuzzColMerge decodes the script from bytes: each op takes two, the
// first selecting kind and channel, the second rows and timestamp.
func FuzzColMerge(f *testing.F) {
	f.Add(uint8(2), []byte{0x00, 0x01, 0x21, 0x03, 0x10, 0x05, 0x11, 0x09})
	f.Add(uint8(3), []byte{0x20, 0x04, 0x21, 0x02, 0x10, 0x01, 0x30, 0x00, 0x11, 0x07, 0x12, 0x03, 0x22, 0x01})
	f.Add(uint8(1), []byte{0x20, 0x02, 0x10, 0x00, 0x30, 0x00, 0x00, 0x00, 0x10, 0x01})
	f.Fuzz(func(t *testing.T, n uint8, script []byte) {
		p := newMergePair(t, 1+int(n%4))
		for i := 0; i+1 < len(script) && i < 400; i += 2 {
			p.apply(mOp{kind: script[i] >> 4 & 3, ch: int(script[i] & 15), rows: int(script[i+1]), ts: int64(script[i+1] >> 2)})
		}
		p.finish()
	})
}
