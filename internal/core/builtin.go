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
	return &sortInstance[K, V]{op: s, buf: make(map[K][]V)}
}

type sortInstance[K comparable, V any] struct {
	op    *Sort[K, V]
	buf   map[K][]V
	keys  []K
	codec *sortCodec[K, V] // built at the first snapshot or restore
}

func (in *sortInstance[K, V]) Next(e stream.Event, emit func(stream.Event)) {
	if e.IsMarker {
		for _, key := range in.keys {
			vals := in.buf[key]
			sort.SliceStable(vals, func(i, j int) bool { return in.op.Less(vals[i], vals[j]) })
			for _, v := range vals {
				emit(stream.Item(key, v))
			}
			delete(in.buf, key)
		}
		in.keys = in.keys[:0]
		emit(e)
		return
	}
	key := castKey[K](in.op.OpName, e.Key)
	if _, ok := in.buf[key]; !ok {
		in.keys = append(in.keys, key)
	}
	in.buf[key] = append(in.buf[key], castVal[V](in.op.OpName, e.Value))
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
