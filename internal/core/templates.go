package core

import (
	"fmt"

	"datatrace/internal/stream"
)

// Emit is the output callback handed to template callbacks: it emits
// one key-value pair on the operator's output channel.
type Emit[L, W any] func(key L, value W)

// ---------------------------------------------------------------------------
// OpStateless (Table 1): transduction U(K,V) → U(L,W).
// ---------------------------------------------------------------------------

// Stateless is the OpStateless template: the output depends only on
// the current event, never on the input history. Stateless operators
// may be replicated behind any splitter (ParAny).
//
// The zero OnMarker is allowed: markers are still forwarded.
type Stateless[K, V, L, W any] struct {
	// OpName names the operator in topologies and error messages.
	OpName string
	// In and Out describe the channel types; both must be unordered
	// (an ordered input is accepted via subtyping at the DAG level).
	In, Out stream.Type
	// OnItem processes one key-value pair.
	OnItem func(emit Emit[L, W], key K, value V)
	// OnMarker optionally reacts to a synchronization marker. The
	// marker itself is forwarded automatically afterwards.
	OnMarker func(emit Emit[L, W], m stream.Marker)
}

// Name implements Operator.
func (s *Stateless[K, V, L, W]) Name() string { return s.OpName }

// InType implements Operator.
func (s *Stateless[K, V, L, W]) InType() stream.Type { return s.In }

// OutType implements Operator.
func (s *Stateless[K, V, L, W]) OutType() stream.Type { return s.Out }

// Mode implements Operator: stateless operators split arbitrarily.
func (s *Stateless[K, V, L, W]) Mode() ParMode { return ParAny }

// Validate implements Operator.
func (s *Stateless[K, V, L, W]) Validate() error {
	if s.OpName == "" {
		return fmt.Errorf("stateless operator needs a name")
	}
	if s.OnItem == nil {
		return fmt.Errorf("%s: OnItem is required", s.OpName)
	}
	if s.In.Kind != stream.Unordered || s.Out.Kind != stream.Unordered {
		return fmt.Errorf("%s: OpStateless is typed U(K,V) → U(L,W), got %s → %s", s.OpName, s.In, s.Out)
	}
	return nil
}

// New implements Operator.
func (s *Stateless[K, V, L, W]) New() Instance { return &statelessInstance[K, V, L, W]{op: s} }

type statelessInstance[K, V, L, W any] struct {
	op   *Stateless[K, V, L, W]
	emit func(stream.Event)
	out  Emit[L, W]
	// The columnar output (batch.go).
	rowSink[L, W]
}

func (in *statelessInstance[K, V, L, W]) Next(e stream.Event, emit func(stream.Event)) {
	// The adapter closure is built once per instance (it reads in.emit
	// through the receiver) so the per-event hot path is allocation-free.
	in.emit = emit
	if in.out == nil {
		in.out = func(key L, value W) { in.emit(stream.Item(key, value)) }
	}
	if e.IsMarker {
		if in.op.OnMarker != nil {
			in.op.OnMarker(in.out, e.Marker)
		}
		emit(e)
		return
	}
	in.op.OnItem(in.out, castKey[K](in.op.OpName, e.Key), castVal[V](in.op.OpName, e.Value))
}

// ---------------------------------------------------------------------------
// OpKeyedOrdered (Table 1): transduction O(K,V) → O(K,W).
// ---------------------------------------------------------------------------

// KeyedOrdered is the OpKeyedOrdered template: an order-dependent
// stateful computation per key, over input that is ordered per key
// between markers. The paper's restriction that "every occurrence of
// emit must preserve the input key" is enforced by construction: the
// emit callback takes only a value and the framework attaches the
// current key.
type KeyedOrdered[K comparable, V, W, S any] struct {
	// OpName names the operator.
	OpName string
	// In and Out describe the channel types; both must be ordered and
	// share the key type name.
	In, Out stream.Type
	// InitialState produces the state a key starts in when first seen.
	InitialState func() S
	// OnItem consumes the next value for key in per-key order and
	// returns the updated state. emit outputs (key, w) pairs.
	OnItem func(emit func(w W), state S, key K, value V) S
	// OnMarker optionally reacts to a marker for each live key and
	// returns the updated state; nil keeps the state unchanged.
	OnMarker func(emit func(w W), state S, key K, m stream.Marker) S
}

// Name implements Operator.
func (o *KeyedOrdered[K, V, W, S]) Name() string { return o.OpName }

// InType implements Operator.
func (o *KeyedOrdered[K, V, W, S]) InType() stream.Type { return o.In }

// OutType implements Operator.
func (o *KeyedOrdered[K, V, W, S]) OutType() stream.Type { return o.Out }

// Mode implements Operator: keyed operators split by key hash.
func (o *KeyedOrdered[K, V, W, S]) Mode() ParMode { return ParKeyed }

// Validate implements Operator.
func (o *KeyedOrdered[K, V, W, S]) Validate() error {
	if o.OpName == "" {
		return fmt.Errorf("keyed-ordered operator needs a name")
	}
	if o.InitialState == nil || o.OnItem == nil {
		return fmt.Errorf("%s: InitialState and OnItem are required", o.OpName)
	}
	if o.In.Kind != stream.Ordered || o.Out.Kind != stream.Ordered {
		return fmt.Errorf("%s: OpKeyedOrdered is typed O(K,V) → O(K,W), got %s → %s", o.OpName, o.In, o.Out)
	}
	if o.In.Key != o.Out.Key {
		return fmt.Errorf("%s: OpKeyedOrdered must preserve the key type, got %s → %s", o.OpName, o.In, o.Out)
	}
	return nil
}

// New implements Operator.
func (o *KeyedOrdered[K, V, W, S]) New() Instance {
	return &keyedOrderedInstance[K, V, W, S]{op: o, keyedState: keyedState[K, S, struct{}]{template: "ko"}}
}

type keyedOrderedInstance[K comparable, V, W, S any] struct {
	op *KeyedOrdered[K, V, W, S]
	// The store's record is the key's state.
	keyedState[K, S, struct{}]
	// emit/curKey/out implement the key-preserving emit callback with
	// one closure per instance instead of one per event; wOut is its
	// columnar form, which emits into the rowSink (batch.go).
	emit   func(stream.Event)
	curKey K
	out    func(w W)
	wOut   func(w W)
	rowSink[K, W]
}

func (in *keyedOrderedInstance[K, V, W, S]) Next(e stream.Event, emit func(stream.Event)) {
	in.emit = emit
	if in.out == nil {
		in.out = func(w W) { in.emit(stream.Item(in.curKey, w)) }
	}
	if e.IsMarker {
		in.marker(e.Marker, in.out)
		emit(e)
		return
	}
	in.item(castKey[K](in.op.OpName, e.Key), castVal[V](in.op.OpName, e.Value), in.out)
}

// item runs OnItem for one arrival, in key order.
func (in *keyedOrderedInstance[K, V, W, S]) item(key K, v V, out func(W)) {
	i, born := in.slot(key)
	if born {
		in.recs[i] = in.op.InitialState()
	}
	in.curKey = key
	in.recs[i] = in.op.OnItem(out, in.recs[i], key, v)
}

// marker runs OnMarker for every live key.
func (in *keyedOrderedInstance[K, V, W, S]) marker(m stream.Marker, out func(W)) {
	if in.op.OnMarker == nil {
		return
	}
	for i, key := range in.keys {
		in.curKey = key
		in.recs[i] = in.op.OnMarker(out, in.recs[i], key, m)
	}
}

// ---------------------------------------------------------------------------
// OpKeyedUnordered (Tables 1 and 3): transduction U(K,V) → U(L,W).
// ---------------------------------------------------------------------------

// KeyedUnordered is the OpKeyedUnordered template: a stateful
// computation per key over unordered input. Between markers, items
// are folded into a commutative-monoid aggregate (ID, Combine) and do
// not touch the state, so the result is independent of arrival order;
// at each marker the aggregate is absorbed into the state via
// UpdateState. OnItem may consult only the last state snapshot (the
// one formed at the previous marker). In, ID, Combine, InitialState
// and UpdateState must be pure; MergeInto and Fold may mutate only what
// the runtime hands them as owned (see inPlace).
type KeyedUnordered[K comparable, V, L, W, S, A any] struct {
	// OpName names the operator.
	OpName string
	// InT and OutT describe the channel types; both must be unordered.
	InT, OutT stream.Type
	// In injects one key-value pair into the aggregation monoid.
	In func(key K, value V) A
	// ID is the identity element of the monoid.
	ID func() A
	// Combine is the monoid operation; it must be associative and
	// commutative for the operator to be consistent (Theorem 4.2).
	Combine func(x, y A) A
	// MergeInto and Fold optionally run the monoid in place on
	// aggregates the runtime owns (see inPlace); nil keeps the pure
	// form. In and Combine stay required: they are the specification
	// the in-place form is checked against.
	MergeInto func(dst *A, src A)
	Fold      func(acc *A, key K, value V)
	// InitialState produces the state a key starts in.
	InitialState func() S
	// UpdateState absorbs a block's aggregate into the state at a
	// marker.
	UpdateState func(old S, agg A) S
	// OnItem optionally emits output when an item arrives; it sees
	// only the state snapshot from the last marker. Nil is allowed.
	OnItem func(emit Emit[L, W], lastState S, key K, value V)
	// OnMarker optionally emits output at a marker, after UpdateState
	// has run for the key. Nil is allowed.
	OnMarker func(emit Emit[L, W], newState S, key K, m stream.Marker)
}

// Name implements Operator.
func (o *KeyedUnordered[K, V, L, W, S, A]) Name() string { return o.OpName }

// InType implements Operator.
func (o *KeyedUnordered[K, V, L, W, S, A]) InType() stream.Type { return o.InT }

// OutType implements Operator.
func (o *KeyedUnordered[K, V, L, W, S, A]) OutType() stream.Type { return o.OutT }

// Mode implements Operator.
func (o *KeyedUnordered[K, V, L, W, S, A]) Mode() ParMode { return ParKeyed }

// Validate implements Operator.
func (o *KeyedUnordered[K, V, L, W, S, A]) Validate() error {
	if o.OpName == "" {
		return fmt.Errorf("keyed-unordered operator needs a name")
	}
	if o.In == nil || o.ID == nil || o.Combine == nil || o.InitialState == nil || o.UpdateState == nil {
		return fmt.Errorf("%s: In, ID, Combine, InitialState and UpdateState are required", o.OpName)
	}
	if o.InT.Kind != stream.Unordered || o.OutT.Kind != stream.Unordered {
		return fmt.Errorf("%s: OpKeyedUnordered is typed U(K,V) → U(L,W), got %s → %s", o.OpName, o.InT, o.OutT)
	}
	return nil
}

// New implements Operator. The instance is the streaming algorithm of
// Table 3: a per-key record {agg, state} plus the state that a
// not-yet-seen key would currently have (startS, the store's scalar).
func (o *KeyedUnordered[K, V, L, W, S, A]) New() Instance {
	return &keyedUnorderedInstance[K, V, L, W, S, A]{
		op:         o,
		keyedState: keyedState[K, kuRec[A, S], S]{template: "ku", scalar: o.InitialState()},
	}
}

// kuRec is a keyed-unordered key's record. Its fields are exported so
// that a record without a wire layout takes the gob fallback whole.
type kuRec[A, S any] struct {
	Agg   A
	State S
}

type keyedUnorderedInstance[K comparable, V, L, W, S, A any] struct {
	op *KeyedUnordered[K, V, L, W, S, A]
	keyedState[K, kuRec[A, S], S]
	emit func(stream.Event)
	out  Emit[L, W]
	// The typed marker output (batch.go).
	rowSink[L, W]
}

// row returns key's record, born with aggregate ID() and state startS.
// The pointer is good until the next row call.
func (in *keyedUnorderedInstance[K, V, L, W, S, A]) row(key K) *kuRec[A, S] {
	i, born := in.slot(key)
	if born {
		in.recs[i] = kuRec[A, S]{in.op.ID(), in.scalar}
	}
	return &in.recs[i]
}

func (in *keyedUnorderedInstance[K, V, L, W, S, A]) Next(e stream.Event, emit func(stream.Event)) {
	in.emit = emit
	if in.out == nil {
		in.out = func(key L, value W) { in.emit(stream.Item(key, value)) }
	}
	if e.IsMarker {
		in.marker(e.Marker, in.out)
		emit(e)
		return
	}
	key := castKey[K](in.op.OpName, e.Key)
	r := in.row(key)
	v := castVal[V](in.op.OpName, e.Value)
	if in.op.OnItem != nil {
		in.op.OnItem(in.out, r.State, key, v)
	}
	in.op.fold(&r.Agg, key, v)
}

// marker runs the Table 3 marker step, emitting on out: every live
// key absorbs its block aggregate into its state, then OnMarker runs.
func (in *keyedUnorderedInstance[K, V, L, W, S, A]) marker(m stream.Marker, out Emit[L, W]) {
	for i, key := range in.keys {
		r := &in.recs[i]
		r.State, r.Agg = in.op.UpdateState(r.State, r.Agg), in.op.ID()
		if in.op.OnMarker != nil {
			in.op.OnMarker(out, r.State, key, m)
		}
	}
	in.scalar = in.op.UpdateState(in.scalar, in.op.ID())
}

// fold absorbs one item into an aggregate the instance owns: r.agg
// starts as ID() at every key's birth and after every marker, and only
// fold touches it in between.
func (o *KeyedUnordered[K, V, L, W, S, A]) fold(acc *A, key K, v V) {
	switch {
	case o.Fold != nil:
		o.Fold(acc, key, v)
	case o.MergeInto != nil:
		o.MergeInto(acc, o.In(key, v))
	default:
		*acc = o.Combine(*acc, o.In(key, v))
	}
}

// castKey unboxes an event key with a template-level error message on
// mismatch — the runtime analogue of the DAG type check.
func castKey[K any](op string, key any) K {
	k, ok := key.(K)
	if !ok {
		panic(fmt.Sprintf("%s: event key %v (%T) does not have the operator's key type %T", op, key, key, k))
	}
	return k
}

// castVal unboxes an event value.
func castVal[V any](op string, value any) V {
	v, ok := value.(V)
	if !ok {
		panic(fmt.Sprintf("%s: event value %v (%T) does not have the operator's value type %T", op, value, value, v))
	}
	return v
}
