package stream

import (
	"encoding"
	"fmt"
	"strconv"
)

// DefaultHash is the key-hash used by HASH splitters and fields
// groupings when the caller does not supply one: FNV-1a over the
// rendered key. Any deterministic hash preserves semantics (Theorem
// 4.3); this one is stable across runs so experiments are
// reproducible.
//
// A key renders as fmt would print it, except that an
// encoding.TextAppender key renders as its appended text (a key type
// that also has a String method, like the Smart Homes plug key, keeps
// the two equal). The common key kinds (integers and strings — every
// key the evaluation workloads route on) hash exactly those bytes
// without fmt, and everything else but a TextAppender is rendered by
// fmt.Append into a stack buffer. A typed batch hashes a TextAppender
// key into its own scratch buffer (Cols.Hashes); boxed, the appended
// text takes one allocation. Fields routing and the sender-side
// combining buffers hash every item.
func DefaultHash(key any) int {
	var buf [20]byte
	var bs []byte
	switch k := key.(type) {
	case int64:
		bs = strconv.AppendInt(buf[:0], k, 10)
	case int:
		bs = strconv.AppendInt(buf[:0], int64(k), 10)
	case int32:
		bs = strconv.AppendInt(buf[:0], int64(k), 10)
	case uint64:
		bs = strconv.AppendUint(buf[:0], k, 10)
	case string:
		return fnvString(k)
	case encoding.TextAppender:
		var b []byte
		return hashText(k, &b)
	default:
		var wide [64]byte
		bs = fmt.Append(wide[:0], key)
	}
	return fnvBytes(bs)
}

// hashText hashes the text k appends, rendering into *buf and keeping
// the grown buffer there for the next key (an interface call lets the
// buffer escape, so it is the caller's to reuse). A key whose AppendText fails
// hashes as fmt renders it.
func hashText(k encoding.TextAppender, buf *[]byte) int {
	b, err := k.AppendText((*buf)[:0])
	if err != nil {
		b = fmt.Append((*buf)[:0], k)
	}
	*buf = b
	return fnvBytes(b)
}

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnvBytes(bs []byte) int {
	h := uint32(fnvOffset32)
	for _, b := range bs {
		h ^= uint32(b)
		h *= fnvPrime32
	}
	return int(h & 0x7fffffff)
}

func fnvString(s string) int {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return int(h & 0x7fffffff)
}

// ---------------------------------------------------------------------------
// MRG, RR and HASH: the multi-channel glue elements. These operate on
// boxed events because the evaluator and the compiler use them between
// arbitrary operators.
// ---------------------------------------------------------------------------

// MergeState is the streaming implementation of MRG: it combines n
// input channels into one by aligning them on synchronization
// markers. Each channel's items are collected into blocks delimited
// by markers; when every channel has closed its block i, the blocks
// are flushed (concatenated — sound because corresponding blocks are
// unordered across channels) followed by the single merged marker i.
type MergeState struct {
	n       int
	emitted int64 // markers emitted downstream
	queued  [][]mergeBlock
	open    [][]Event
}

type mergeBlock struct {
	items []Event
	mark  Marker
}

// NewMergeState creates a merger over n input channels.
func NewMergeState(n int) *MergeState {
	return &MergeState{n: n, queued: make([][]mergeBlock, n), open: make([][]Event, n)}
}

// Channels returns the merger's input channel count.
func (m *MergeState) Channels() int { return m.n }

// Next consumes one event from channel ch and emits any output events
// that become ready.
func (m *MergeState) Next(ch int, e Event, emit func(Event)) {
	if ch < 0 || ch >= m.n {
		panic(fmt.Sprintf("merge: channel %d out of range [0,%d)", ch, m.n))
	}
	if !e.IsMarker {
		m.open[ch] = append(m.open[ch], e)
		return
	}
	m.queued[ch] = append(m.queued[ch], mergeBlock{items: m.open[ch], mark: e.Marker})
	m.open[ch] = nil
	m.advance(emit)
}

// advance flushes complete frontier blocks. Because every output
// marker flushes exactly one block from every channel, the head of
// each queue always has block index m.emitted. The merged marker
// keeps the source markers' sequence number (all channels carry the
// same one for corresponding blocks), so marker identity survives
// arbitrary split/merge compositions.
func (m *MergeState) advance(emit func(Event)) {
	for {
		for _, q := range m.queued {
			if len(q) == 0 {
				return
			}
		}
		mark := m.queued[0][0].mark
		for ch := range m.queued {
			b := m.queued[ch][0]
			for _, it := range b.items {
				emit(it)
			}
			if b.mark.Timestamp > mark.Timestamp {
				mark = b.mark
			}
		}
		emit(Mark(mark))
		// Pop only after the whole block and its marker were delivered:
		// a consumer that panics mid-block leaves the merger holding the
		// complete un-flushed input, recoverable via Pending.
		for ch := range m.queued {
			m.queued[ch] = m.queued[ch][1:]
		}
		m.emitted++
	}
}

// Pending returns, per channel, every buffered event the merger has
// not yet flushed downstream: the items and markers of the queued
// (closed but incomplete) blocks followed by the open block's items.
// Feeding each sequence back into a fresh merger on the same channel
// reproduces this merger's state — the basis of marker-cut replay in
// the execution engines.
func (m *MergeState) Pending() [][]Event {
	out := make([][]Event, m.n)
	for ch := range out {
		for _, b := range m.queued[ch] {
			out[ch] = append(out[ch], b.items...)
			out[ch] = append(out[ch], Mark(b.mark))
		}
		out[ch] = append(out[ch], m.open[ch]...)
	}
	return out
}

// Trailing returns every item still buffered at end-of-stream: the
// items of blocks that closed on some channels but never completed on
// all of them (possible when an upstream fails or channels carry
// unequal marker counts), followed by each channel's final open
// block. The markers of incomplete blocks are not synthesized.
func (m *MergeState) Trailing() []Event {
	var out []Event
	for ch := range m.queued {
		for _, b := range m.queued[ch] {
			out = append(out, b.items...)
		}
	}
	for _, open := range m.open {
		out = append(out, open...)
	}
	return out
}

// MergeEvents merges complete event sequences (batch form of MRG):
// block i of the output is the concatenation of block i of every
// input, followed by one marker. Trailing items after a channel's
// last marker are appended after the last common marker.
func MergeEvents(inputs ...[]Event) []Event {
	if len(inputs) == 1 {
		return append([]Event(nil), inputs[0]...)
	}
	m := NewMergeState(len(inputs))
	var out []Event
	emit := func(e Event) { out = append(out, e) }
	idx := make([]int, len(inputs))
	// Feed channels round-robin so block buffering is exercised
	// deterministically; any feeding order yields an equivalent trace.
	for {
		progressed := false
		for ch, in := range inputs {
			if idx[ch] < len(in) {
				m.Next(ch, in[idx[ch]], emit)
				idx[ch]++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	// Trailing items of the incomplete final block.
	out = append(out, m.Trailing()...)
	return out
}

// SplitRoundRobin is the RR splitter: it distributes items cyclically
// over n output channels and broadcasts every marker to all channels.
// RR is a splitter in the paper's sense: RR ≫ MRG is the identity
// transduction on U(K,V).
func SplitRoundRobin(input []Event, n int) [][]Event {
	out := make([][]Event, n)
	next := 0
	for _, e := range input {
		if e.IsMarker {
			for ch := range out {
				out[ch] = append(out[ch], e)
			}
			continue
		}
		out[next] = append(out[next], e)
		next = (next + 1) % n
	}
	return out
}

// SplitHash is the HASH splitter: it routes the item (k,v) to channel
// hash(k) mod n and broadcasts markers. HASH preserves per-key order,
// so it is also a sound splitter for O(K,V).
func SplitHash(input []Event, n int, hash func(any) int) [][]Event {
	if hash == nil {
		hash = DefaultHash
	}
	out := make([][]Event, n)
	for _, e := range input {
		if e.IsMarker {
			for ch := range out {
				out[ch] = append(out[ch], e)
			}
			continue
		}
		ch := hash(e.Key) % n
		out[ch] = append(out[ch], e)
	}
	return out
}
