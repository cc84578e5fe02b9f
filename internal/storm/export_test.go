package storm

import "datatrace/internal/stream"

// Seams for the external test package (query_cols_test.go), which
// builds compiled topologies — internal/compile imports this package,
// so those tests cannot live inside it.

// WrapBolts passes every bolt the topology's factories build through
// wrap.
func (t *Topology) WrapBolts(wrap func(component string, b Bolt) Bolt) {
	for name, c := range t.components {
		if build := c.bolt; build != nil {
			c.bolt = func(i int) Bolt { return wrap(name, build(i)) }
		}
	}
}

// WrapColCombiners passes every typed sender-side combining buffer the
// topology's edges build through wrap.
func (t *Topology) WrapColCombiners(wrap func(stream.ColCombiner) stream.ColCombiner) {
	for _, c := range t.components {
		for i := range c.inputs {
			if spec := c.inputs[i].colComb; spec != nil {
				wrapped := *spec
				wrapped.New = func() stream.ColCombiner { return wrap(spec.New()) }
				c.inputs[i].colComb = &wrapped
			}
		}
	}
}
