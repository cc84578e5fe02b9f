package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file implements the copy-on-read export of Stats: Snapshot
// freezes every executor's counters, histograms and sampled spans
// into plain values that are safe to keep, merge and render while the
// run continues. A monitoring goroutine polls Snapshot; the table
// examples/observability prints is ObsTable over ByComponent.

// InstanceSnapshot is the frozen view of one executor's stats.
type InstanceSnapshot struct {
	Component string
	Instance  int

	Executed int64
	Emitted  int64
	Busy     time.Duration
	Restarts int64
	Replayed int64
	Dropped  int64
	// Cuts counts committed marker cuts (markers executed); Executed −
	// Cuts is the parallelism-invariant item count.
	Cuts int64

	// MaxQueueDepth is the high-water inbox depth (backpressure gauge).
	MaxQueueDepth int64
	// QueueDepth is the most recently observed inbox depth (the live
	// gauge; MaxQueueDepth is its monotonic high-water).
	QueueDepth int64

	// Exec, Queue and MarkerLag are latency histograms: per-event
	// execute latency, emit-to-receive inbox latency, and marker-cut
	// start → snapshot-flush lag. Empty when observability is off.
	Exec      Hist
	Queue     Hist
	MarkerLag Hist

	// Spans are the retained sampled execute spans (oldest first);
	// SpanTotal is the lifetime number sampled.
	Spans     []Span
	SpanTotal int64
}

// StatsSnapshot is the frozen view of a whole run.
type StatsSnapshot struct {
	// Instances are ordered by component, then instance.
	Instances []InstanceSnapshot
}

// Snapshot freezes the current counters into plain values. It is safe
// to call at any time, including while executors are running: every
// counter read is atomic and histogram copies are monitoring reads
// (samples landing mid-copy may or may not be included).
func (s *Stats) Snapshot() StatsSnapshot {
	insts := s.Instances()
	out := StatsSnapshot{Instances: make([]InstanceSnapshot, 0, len(insts))}
	for _, is := range insts {
		snap := InstanceSnapshot{
			Component:     is.Component,
			Instance:      is.Instance,
			Executed:      is.Executed(),
			Emitted:       is.Emitted(),
			Busy:          is.Busy(),
			Restarts:      is.Restarts(),
			Replayed:      is.Replayed(),
			Dropped:       is.Dropped(),
			Cuts:          is.Cuts(),
			MaxQueueDepth: is.MaxQueueDepth(),
			QueueDepth:    is.QueueDepth(),
			Exec:          is.ExecHist(),
			Queue:         is.QueueHist(),
			MarkerLag:     is.MarkerLagHist(),
		}
		snap.Spans, snap.SpanTotal = is.Spans()
		out.Instances = append(out.Instances, snap)
	}
	return out
}

// ComponentSnapshot aggregates the instance snapshots of one
// component: counters are summed, histograms merged, the queue gauge
// is the max over instances.
type ComponentSnapshot struct {
	Component string
	Instances int

	Executed int64
	Emitted  int64
	Busy     time.Duration
	Restarts int64
	Replayed int64
	Dropped  int64
	Cuts     int64

	MaxQueueDepth int64
	QueueDepth    int64
	Exec          Hist
	Queue         Hist
	MarkerLag     Hist
}

// ByComponent folds the per-instance snapshots into per-component
// aggregates, ordered by component name.
func (s StatsSnapshot) ByComponent() []ComponentSnapshot {
	byName := make(map[string]*ComponentSnapshot)
	for _, is := range s.Instances {
		c := byName[is.Component]
		if c == nil {
			c = &ComponentSnapshot{Component: is.Component}
			byName[is.Component] = c
		}
		c.Instances++
		c.Executed += is.Executed
		c.Emitted += is.Emitted
		c.Busy += is.Busy
		c.Restarts += is.Restarts
		c.Replayed += is.Replayed
		c.Dropped += is.Dropped
		c.Cuts += is.Cuts
		if is.MaxQueueDepth > c.MaxQueueDepth {
			c.MaxQueueDepth = is.MaxQueueDepth
		}
		if is.QueueDepth > c.QueueDepth {
			c.QueueDepth = is.QueueDepth
		}
		c.Exec = c.Exec.Merge(is.Exec)
		c.Queue = c.Queue.Merge(is.Queue)
		c.MarkerLag = c.MarkerLag.Merge(is.MarkerLag)
	}
	out := make([]ComponentSnapshot, 0, len(byName))
	for _, c := range byName {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// ObsTable renders the per-component observability table printed by
// `go run ./examples/observability`: p50/p99 execute latency, max queue
// depth, and marker-cut lag per component.
func (s StatsSnapshot) ObsTable() string {
	comps := s.ByComponent()
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %4s %12s %10s %10s %8s %10s %10s\n",
		"component", "inst", "executed", "exec p50", "exec p99", "maxq", "mark p50", "mark p99")
	for _, c := range comps {
		markP50, markP99 := "-", "-"
		if !c.MarkerLag.Empty() {
			markP50 = fmtDur(c.MarkerLag.QuantileDuration(0.50))
			markP99 = fmtDur(c.MarkerLag.QuantileDuration(0.99))
		}
		execP50, execP99 := "-", "-"
		if !c.Exec.Empty() {
			execP50 = fmtDur(c.Exec.QuantileDuration(0.50))
			execP99 = fmtDur(c.Exec.QuantileDuration(0.99))
		}
		fmt.Fprintf(&b, "%-24s %4d %12d %10s %10s %8d %10s %10s\n",
			c.Component, c.Instances, c.Executed, execP50, execP99,
			c.MaxQueueDepth, markP50, markP99)
	}
	return b.String()
}

// SpanTrace renders the sampled spans of all executors in one
// chronological trace, timestamps relative to the earliest span.
func (s StatsSnapshot) SpanTrace() string {
	var all []Span
	for _, is := range s.Instances {
		all = append(all, is.Spans...)
	}
	if len(all) == 0 {
		return "(no spans sampled)\n"
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	base := all[0].Start
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-24s %4s %8s %10s\n", "t+", "component", "inst", "seq", "dur")
	for _, sp := range all {
		fmt.Fprintf(&b, "%-12s %-24s %4d %8d %10s\n",
			fmtDur(time.Duration(sp.Start-base)), sp.Component, sp.Instance,
			sp.Seq, fmtDur(sp.Duration()))
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return d.String()
	case d < time.Millisecond:
		return d.Round(10 * time.Nanosecond).String()
	case d < time.Second:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}
