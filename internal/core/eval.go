package core

import (
	"fmt"

	"datatrace/internal/stream"
)

// Eval computes the DAG's denotation on the given inputs: every
// operator runs as a single sequential instance, multi-input nodes
// merge their channels with marker alignment, and the result maps
// each sink name to its output event sequence. This is the reference
// semantics that every deployment — EvalDeployed here, and the
// distributed execution in internal/storm — must match up to trace
// equivalence (Corollary 4.4). Monoids run in their pure form: a
// KeyedUnordered's MergeInto executes its Combine, and the denotation
// is what every execution of it is checked against.
//
// inputs maps source names to their event sequences; a missing source
// gets an empty stream.
func (d *DAG) Eval(inputs map[string][]stream.Event) (map[string][]stream.Event, error) {
	return d.eval(inputs, false, nil)
}

// EvalDeployed evaluates the DAG with every operator's parallelism
// hint applied: each operator with hint p > 1 is replicated p times
// behind the splitter its mode permits (RR for stateless, HASH for
// keyed) and the replica outputs are merged on markers — the
// deployment of Figure 1 and Corollary 4.4, executed deterministically
// in-process. Passing hash = nil uses DefaultHash.
func (d *DAG) EvalDeployed(inputs map[string][]stream.Event, hash func(any) int) (map[string][]stream.Event, error) {
	return d.eval(inputs, true, hash)
}

func (d *DAG) eval(inputs map[string][]stream.Event, deployed bool, hash func(any) int) (map[string][]stream.Event, error) {
	if err := d.Check(); err != nil {
		return nil, err
	}
	values := make(map[int][]stream.Event, len(d.nodes))
	outputs := map[string][]stream.Event{}
	for _, n := range d.nodes {
		switch n.Kind {
		case SourceNode:
			values[n.ID] = inputs[n.Name]
		case OpNode:
			ins := make([][]stream.Event, len(n.Inputs))
			for i, in := range n.Inputs {
				ins[i] = values[in.ID]
			}
			merged := stream.MergeEvents(ins...)
			op, par := n.Op, 1
			if deployed {
				par = n.Parallelism
			} else if ip, ok := op.(inPlace); ok {
				op = ip.pure()
			}
			values[n.ID] = RunParallel(op, merged, par, hash)
		case SinkNode:
			out := values[n.Inputs[0].ID]
			values[n.ID] = out
			outputs[n.Name] = out
		}
	}
	return outputs, nil
}

// EquivalentOutputs reports whether two evaluation results agree as
// data traces at every sink of the DAG, comparing each sink's streams
// under the sink's channel type.
func (d *DAG) EquivalentOutputs(a, b map[string][]stream.Event) error {
	for _, sink := range d.Sinks() {
		x, y := a[sink.Name], b[sink.Name]
		if !stream.Equivalent(sink.Type, x, y) {
			return fmt.Errorf("sink %s outputs differ as traces of %s:\n  %s\n  %s",
				sink.Name, sink.Type, stream.Render(x), stream.Render(y))
		}
	}
	return nil
}
