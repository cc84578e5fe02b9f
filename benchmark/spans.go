package main

import (
	"time"

	"datatrace/internal/metrics"
)

// span is one interval the harness recorded around its own calls into
// the layers (set-up, materialise, compile, verify, trial, probe.<name>)
// or one sampled executor span the runtime reported for a traced trial.
// Spans of one workload run share its Workload id; Parent is the ID of
// the enclosing span, 0 for a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps a run's spans in memory; they are written out once, when
// the run ends. The harness is single-threaded between trials, so the
// enclosing span is simply the innermost open one.
type spanLog struct {
	workload string
	spans    []span
	open     []int // IDs of the open spans, innermost last
}

func newSpanLog(workload string) *spanLog { return &spanLog{workload: workload} }

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string) (end func()) {
	id := len(l.spans) + 1
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Workload: l.workload, Name: name, StartNs: time.Now().UnixNano()})
	l.open = append(l.open, id)
	return func() {
		l.spans[id-1].EndNs = time.Now().UnixNano()
		l.open = l.open[:len(l.open)-1]
	}
}

// adopt records the runtime's sampled executor spans as children of the
// innermost open span (the traced trial that produced them).
func (l *spanLog) adopt(snap metrics.StatsSnapshot) {
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	for _, is := range snap.Instances {
		for _, s := range is.Spans {
			l.spans = append(l.spans, span{
				ID: len(l.spans) + 1, Parent: parent, Workload: l.workload,
				Name:    "exec." + s.Component,
				StartNs: s.Start, EndNs: s.End,
			})
		}
	}
}
