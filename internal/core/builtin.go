package core

import (
	"fmt"
	"sort"

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
// for completeness.
type sortInstance[K comparable, V any] struct {
	op *Sort[K, V]
	keyedState[K, []V, struct{}]
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
		for i, key := range in.keys {
			vals := in.recs[i]
			sort.SliceStable(vals, func(i, j int) bool { return in.op.Less(vals[i], vals[j]) })
			for _, v := range vals {
				emit(stream.Item(key, v))
			}
		}
		in.reset()
		emit(e)
		return
	}
	i, _ := in.slot(castKey[K](in.op.OpName, e.Key))
	in.recs[i] = append(in.recs[i], castVal[V](in.op.OpName, e.Value))
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
