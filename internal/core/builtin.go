package core

import (
	"fmt"
	"slices"

	"datatrace/internal/stream"
)

// ---------------------------------------------------------------------------
// SORT: U(K,V) → O(K,V).
// ---------------------------------------------------------------------------

// Sort is the SORT< data-trace transduction of section 4: it converts
// an unordered trace of U(K,V) into an ordered trace of O(K,V) by
// imposing, for every key separately, the total order Less on the
// items between consecutive synchronization markers. Parallelizable
// by key (Theorem 4.3: SORT = HASH ≫ (SORT ∥ … ∥ SORT) ≫ MRG).
type Sort[K comparable, V any] struct {
	// OpName names the operator; "SORT" is customary.
	OpName string
	// In and Out describe the channel types (U in, O out, same K/V).
	In, Out stream.Type
	// Less is the strict total order imposed per key, typically "by
	// timestamp".
	Less func(a, b V) bool
}

// Name implements Operator.
func (s *Sort[K, V]) Name() string { return s.OpName }

// InType implements Operator.
func (s *Sort[K, V]) InType() stream.Type { return s.In }

// OutType implements Operator.
func (s *Sort[K, V]) OutType() stream.Type { return s.Out }

// Mode implements Operator.
func (s *Sort[K, V]) Mode() ParMode { return ParKeyed }

// IsSort marks the operator as a SORT vertex so the compiler can
// apply its sort-fusion rule.
func (s *Sort[K, V]) IsSort() bool { return true }

// Validate implements Operator.
func (s *Sort[K, V]) Validate() error {
	if s.OpName == "" {
		return fmt.Errorf("sort operator needs a name")
	}
	if s.Less == nil {
		return fmt.Errorf("%s: Less is required", s.OpName)
	}
	if s.In.Kind != stream.Unordered || s.Out.Kind != stream.Ordered {
		return fmt.Errorf("%s: SORT is typed U(K,V) → O(K,V), got %s → %s", s.OpName, s.In, s.Out)
	}
	if s.In.Key != s.Out.Key || s.In.Val != s.Out.Val {
		return fmt.Errorf("%s: SORT must preserve key and value types, got %s → %s", s.OpName, s.In, s.Out)
	}
	return nil
}

// New implements Operator.
func (s *Sort[K, V]) New() Instance {
	return &sortInstance[K, V]{op: s, keyedState: keyedState[K, []V, struct{}]{template: "sort", flat: sortRecs[V]}}
}

// sortInstance's record is a key's values in the open block. At a
// marker the store empties, but mid-block checkpoints are supported
// for completeness. The emptied buffers are kept in free for the next
// block's keys, so a steady state appends without growing.
type sortInstance[K comparable, V any] struct {
	op *Sort[K, V]
	keyedState[K, []V, struct{}]
	free   [][]V
	sorter stableSorter[V]
	rowSink[K, V]
}

// sortRecs writes the buffered values ragged: no head, every key's
// values flattened.
func sortRecs[V any](d *codecDesc) recCodec[[]V] {
	return newRaggedRecs(d,
		func(r *[]V, vals []V) (struct{}, []V) { return struct{}{}, append(vals, *r...) },
		func(_ struct{}, vals []V) []V { return vals })
}

func (in *sortInstance[K, V]) Next(e stream.Event, emit func(stream.Event)) {
	if e.IsMarker {
		in.flush(func(key K, v V) { emit(stream.Item(key, v)) })
		emit(e)
		return
	}
	in.add(castKey[K](in.op.OpName, e.Key), castVal[V](in.op.OpName, e.Value))
}

// add buffers one item under its key.
func (in *sortInstance[K, V]) add(key K, v V) {
	i, born := in.slot(key)
	if born && len(in.free) > 0 {
		in.recs[i] = in.free[len(in.free)-1]
		in.free = in.free[:len(in.free)-1]
	}
	in.recs[i] = append(in.recs[i], v)
}

// flush is the marker step: every key's values, sorted, in first-seen
// key order; then the store empties.
func (in *sortInstance[K, V]) flush(emit func(K, V)) {
	for i, key := range in.keys {
		vals := in.recs[i]
		in.sorter.sort(vals, in.op.Less)
		for _, v := range vals {
			emit(key, v)
		}
		clear(vals)
		in.free = append(in.free, vals[:0])
	}
	in.reset()
}

// stableSorter sorts slices of V stably by a less function, without
// reflection: a natural merge sort. It keeps its scratch (the merge
// buffer and the run ends) across calls.
type stableSorter[V any] struct {
	buf  []V
	ends []int
}

// minRun is the length short runs are extended to by insertion sort
// before merging.
const minRun = 24

// sort sorts s by less, equal elements keeping their order. The
// ascending runs s already has (a SORT's input is often a
// concatenation of sorted runs, one per upstream key) are found and
// extended to minRun; adjacent runs then merge pairwise, back and
// forth between s and the buffer, so n items take n·log2(runs) moves.
func (ss *stableSorter[V]) sort(s []V, less func(a, b V) bool) {
	n := len(s)
	ends := ss.ends[:0]
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && !less(s[hi], s[hi-1]) {
			hi++
		}
		if hi-lo < minRun && hi < n {
			end := min(lo+minRun, n)
			insertionSort(s[lo:end], hi-lo, less)
			hi = end
		}
		ends = append(ends, hi)
		lo = hi
	}
	ss.ends = ends
	if len(ends) < 2 {
		return
	}
	ss.buf = slices.Grow(ss.buf[:0], n)[:n]
	src, dst := s, ss.buf
	for len(ends) > 1 {
		lo, m := 0, 0
		for k := 0; k < len(ends); k += 2 {
			mid, hi := ends[k], ends[k]
			if k+1 < len(ends) {
				hi = ends[k+1]
				mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi], less)
			} else {
				copy(dst[lo:hi], src[lo:hi])
			}
			ends[m], lo = hi, hi
			m++
		}
		ends = ends[:m]
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	clear(ss.buf)
}

// insertionSort sorts s stably, given that s[:sorted] already is.
func insertionSort[V any](s []V, sorted int, less func(a, b V) bool) {
	for i := max(sorted, 1); i < len(s); i++ {
		v, j := s[i], i
		for ; j > 0 && less(v, s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = v
	}
}

// mergeRuns merges the sorted runs a and b into dst, taking from a on
// ties.
func mergeRuns[V any](dst, a, b []V, less func(a, b V) bool) {
	if !less(b[0], a[len(a)-1]) {
		copy(dst[copy(dst, a):], b)
		return
	}
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// RunInstance feeds a complete event sequence through a fresh
// instance of op and returns the produced output sequence — the
// sequential, single-copy execution whose trace is the operator's
// denotation on the input trace.
func RunInstance(op Operator, input []stream.Event) []stream.Event {
	inst := op.New()
	var out []stream.Event
	emit := func(e stream.Event) { out = append(out, e) }
	for _, e := range input {
		inst.Next(e, emit)
	}
	return out
}

// RunParallel deploys op at the given parallelism behind the splitter
// its mode allows (HASH for keyed operators, RR for stateless ones)
// and merges the instance outputs with marker alignment — the
// right-hand side of the Theorem 4.3 equations. It panics when the
// operator's mode forbids replication.
func RunParallel(op Operator, input []stream.Event, parallelism int, hash func(any) int) []stream.Event {
	if parallelism <= 1 {
		return RunInstance(op, input)
	}
	var parts [][]stream.Event
	switch op.Mode() {
	case ParAny:
		parts = stream.SplitRoundRobin(input, parallelism)
	case ParKeyed:
		parts = stream.SplitHash(input, parallelism, hash)
	default:
		panic(fmt.Sprintf("%s: operator mode %s cannot be parallelized", op.Name(), op.Mode()))
	}
	outs := make([][]stream.Event, parallelism)
	for i, part := range parts {
		outs[i] = RunInstance(op, part)
	}
	return stream.MergeEvents(outs...)
}
