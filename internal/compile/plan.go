package compile

import (
	"fmt"
	"strings"
	"sync/atomic"

	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// Plan is the optimization pipeline's debugging output: which
// operators ended up fused into which bolts, and which edges carry
// sender-side combining buffers. CompileWithPlan returns it alongside
// the topology; fused bolts additionally feed per-stage delivery
// counters into it at run time, restoring the per-operator visibility
// a fused chain would otherwise lose by sharing one executor's
// metrics.
type Plan struct {
	// Name is the compiled topology's name.
	Name string
	// Bolts lists every emitted bolt with the operator stages running
	// inside it, in execution order. More than one stage means fusion
	// happened (a fused SORT appears as its own stage).
	Bolts []PlanBolt
	// CombinedEdges lists the edges carrying sender-side combining
	// buffers (the Combiners pass); Columnar marks the typed variant.
	CombinedEdges []PlanEdge
	// ColumnarEdges lists the (non-combined) edges selected for the
	// typed struct-of-arrays transport: both endpoints exposed the same
	// canonical column kind.
	ColumnarEdges []PlanEdge
	// Placement maps each emitted executor to its worker when
	// Options.Workers is set (the same table every worker process of
	// a networked run computes); nil when placement is off.
	Placement []storm.Placed
}

// PlanBolt describes one emitted bolt.
type PlanBolt struct {
	Name        string
	Parallelism int
	// Stages names the operators executed inside the bolt, in order.
	Stages []string
	// OutKind is the kind of the batches the bolt emits, nil when it
	// emits boxed rows.
	OutKind *stream.ColKind
	// counts[i] accumulates events delivered into stage i, summed over
	// the component's instances; allocated only for fused bolts.
	counts []*atomic.Int64
}

// PlanEdge is one combined or columnar connection.
type PlanEdge struct {
	From, To string
	// Cap is the combining buffer's distinct-key capacity (combined
	// edges only).
	Cap int
	// Columnar reports that the edge moves typed column batches.
	Columnar bool
}

// StageCount is one fused stage's delivery count.
type StageCount struct {
	Stage  string
	Events int64
}

// StageCounts returns the per-stage delivery counts of a fused bolt,
// readable during or after a run of the compiled topology. Unknown or
// unfused bolts return nil.
func (p *Plan) StageCounts(bolt string) []StageCount {
	for i := range p.Bolts {
		b := &p.Bolts[i]
		if b.Name != bolt || b.counts == nil {
			continue
		}
		out := make([]StageCount, len(b.Stages))
		for j, s := range b.Stages {
			out[j] = StageCount{Stage: s, Events: b.counts[j].Load()}
		}
		return out
	}
	return nil
}

// addBolt records one emitted bolt, allocating shared stage counters
// when the bolt fuses several stages, and returns the counter slice
// for the bolt factory to capture.
func (p *Plan) addBolt(name string, par int, stages []string, out *stream.ColKind) []*atomic.Int64 {
	pb := PlanBolt{Name: name, Parallelism: par, Stages: stages, OutKind: out}
	if len(stages) > 1 {
		pb.counts = make([]*atomic.Int64, len(stages))
		for i := range pb.counts {
			pb.counts[i] = new(atomic.Int64)
		}
	}
	p.Bolts = append(p.Bolts, pb)
	return pb.counts
}

// String renders the plan for debugging.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimization plan for %s:\n", p.Name)
	for _, pb := range p.Bolts {
		if len(pb.Stages) > 1 {
			fmt.Fprintf(&b, "  bolt %s ×%d fuses [%s]\n", pb.Name, pb.Parallelism, strings.Join(pb.Stages, " → "))
		} else {
			fmt.Fprintf(&b, "  bolt %s ×%d\n", pb.Name, pb.Parallelism)
		}
	}
	for _, e := range p.CombinedEdges {
		kind := "combined"
		if e.Columnar {
			kind = "combined typed"
		}
		fmt.Fprintf(&b, "  edge %s → %s %s (cap %d)\n", e.From, e.To, kind, e.Cap)
	}
	for _, e := range p.ColumnarEdges {
		fmt.Fprintf(&b, "  edge %s → %s columnar\n", e.From, e.To)
	}
	for _, pl := range p.Placement {
		fmt.Fprintf(&b, "  %s[%d] → worker %d (gid %d)\n", pl.Component, pl.Instance, pl.Worker, pl.GID)
	}
	return b.String()
}
