// Package metrics collects per-executor execution statistics and
// derives the simulated-cluster throughput model shared by every
// runtime backend (the storm-style engine and the micro-batch
// engine): measured busy times are packed onto W workers with the LPT
// rule and throughput at W workers is input tuples over the resulting
// makespan (see DESIGN.md for why this reproduces the paper's scaling
// figures on a single machine).
//
// On top of the counters the package provides the observability
// subsystem: log-bucketed latency histograms (histogram.go), sampled
// event-trace spans (span.go) and queue gauges, all readable mid-run
// through the copy-on-read Stats.Snapshot. Every counter is an
// atomic, so a monitoring goroutine can poll while executors run —
// race-clean by construction, proven by the -race soak tests.
package metrics

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ObsConfig tunes the observability subsystem of one run. The zero
// value disables it entirely: no histograms are allocated, no
// timestamps are taken, and the per-event cost is a nil-pointer test.
type ObsConfig struct {
	// Enabled turns on latency histograms, queue gauges, marker-lag
	// tracking and span sampling for every executor.
	Enabled bool
	// SampleEvery samples one execute span per N executed events per
	// executor (0 selects the default of 256; < 0 disables spans).
	SampleEvery int
	// SpanRing is the per-executor span ring capacity (0 = 128).
	SpanRing int
}

// DefaultObsConfig returns the enabled configuration with default
// sampling parameters.
func DefaultObsConfig() ObsConfig { return ObsConfig{Enabled: true} }

func (c ObsConfig) sampleEvery() int {
	if c.SampleEvery == 0 {
		return 256
	}
	return c.SampleEvery
}

func (c ObsConfig) spanRing() int {
	if c.SpanRing <= 0 {
		return 128
	}
	return c.SpanRing
}

// InstanceStats are the metrics of one executor (component instance).
// Writes go through the Add/Observe methods and are performed by the
// executor that owns the record; reads may come from any goroutine at
// any time (Stats.Snapshot, the accessor methods), so every counter
// is an atomic.
type InstanceStats struct {
	// Component and Instance identify the executor.
	Component string
	Instance  int

	executed atomic.Int64 // events processed (spouts: produced)
	emitted  atomic.Int64 // events sent downstream
	busy     atomic.Int64 // ns doing work, excluding channel blocking
	restarts atomic.Int64 // marker-cut recoveries of this executor
	replayed atomic.Int64 // events re-delivered during recoveries
	dropped  atomic.Int64 // events discarded after degradation

	// cuts counts marker cuts this executor completed (aligned
	// recoverable executors only). Executed counts markers too — once
	// per cut per instance — so Executed − Cuts is the instance's item
	// deliveries, a quantity invariant under the component's
	// parallelism (and therefore comparable across rescaled runs).
	cuts atomic.Int64

	// combinedIn/combinedOut measure the sender-side combining buffers
	// of this executor's combined edges: events absorbed into partial
	// aggregates, and partial aggregates shipped. Their ratio is the
	// combiner's compression (hit rate = 1 − out/in); both stay zero on
	// uncombined edges.
	combinedIn  atomic.Int64
	combinedOut atomic.Int64

	// maxQueue is the high-water inbox depth observed at receives —
	// the backpressure gauge (0 when observability is disabled).
	maxQueue atomic.Int64
	// curQueue is the most recently observed inbox depth — the live
	// backpressure gauge a feedback controller reacts to (the
	// high-water gauge is monotonic and goes blind to sustained
	// backlog once its peak is set).
	curQueue atomic.Int64

	// exec/queue/markerLag are nil when observability is disabled;
	// every Observe method is nil-safe, which keeps the disabled hot
	// path at a single pointer test.
	exec      *Histogram // per-event execute latency
	queue     *Histogram // emit-to-receive inbox latency
	markerLag *Histogram // marker-cut start → snapshot-flush lag
	spans     *spanRing  // sampled execute spans
}

// AddExecuted counts n processed events.
func (is *InstanceStats) AddExecuted(n int64) { is.executed.Add(n) }

// Executed returns the events processed so far (for spouts: produced).
func (is *InstanceStats) Executed() int64 { return is.executed.Load() }

// AddEmitted counts n events sent downstream.
func (is *InstanceStats) AddEmitted(n int64) { is.emitted.Add(n) }

// Emitted returns the events sent downstream so far.
func (is *InstanceStats) Emitted() int64 { return is.emitted.Load() }

// AddBusy accrues work time.
func (is *InstanceStats) AddBusy(d time.Duration) { is.busy.Add(int64(d)) }

// Busy returns the accumulated work time (excluding channel blocking).
func (is *InstanceStats) Busy() time.Duration { return time.Duration(is.busy.Load()) }

// SetBusy overwrites the busy time (Normalize, tests).
func (is *InstanceStats) SetBusy(d time.Duration) { is.busy.Store(int64(d)) }

// AddRestarts counts n recoveries.
func (is *InstanceStats) AddRestarts(n int64) { is.restarts.Add(n) }

// Restarts returns the recoveries performed.
func (is *InstanceStats) Restarts() int64 { return is.restarts.Load() }

// AddReplayed counts n re-delivered events.
func (is *InstanceStats) AddReplayed(n int64) { is.replayed.Add(n) }

// Replayed returns the events re-delivered during recoveries.
func (is *InstanceStats) Replayed() int64 { return is.replayed.Load() }

// AddDropped counts n discarded events.
func (is *InstanceStats) AddDropped(n int64) { is.dropped.Add(n) }

// Dropped returns the events discarded after degradation.
func (is *InstanceStats) Dropped() int64 { return is.dropped.Load() }

// AddCuts counts n completed marker cuts.
func (is *InstanceStats) AddCuts(n int64) { is.cuts.Add(n) }

// Cuts returns the marker cuts this executor completed.
func (is *InstanceStats) Cuts() int64 { return is.cuts.Load() }

// AddCombinedIn counts n events absorbed into sender-side partial
// aggregates.
func (is *InstanceStats) AddCombinedIn(n int64) { is.combinedIn.Add(n) }

// CombinedIn returns the events absorbed into partial aggregates.
func (is *InstanceStats) CombinedIn() int64 { return is.combinedIn.Load() }

// AddCombinedOut counts n partial aggregates shipped downstream.
func (is *InstanceStats) AddCombinedOut(n int64) { is.combinedOut.Add(n) }

// CombinedOut returns the partial aggregates shipped downstream.
func (is *InstanceStats) CombinedOut() int64 { return is.combinedOut.Load() }

// ObsEnabled reports whether this record collects observability data.
// Executors use it to skip the extra time.Now calls of queue-latency
// stamping when observability is off.
func (is *InstanceStats) ObsEnabled() bool { return is.exec != nil }

// ObserveExec records one execute-latency sample and, on the sampling
// grid, an event-trace span. start is when the execution began; d its
// duration. No-op when observability is disabled.
func (is *InstanceStats) ObserveExec(start time.Time, d time.Duration) {
	if is.exec == nil {
		return
	}
	is.exec.RecordDuration(d)
	is.spans.sample(is.executed.Load(), start, d)
}

// ObserveQueue records one emit-to-receive inbox latency sample.
func (is *InstanceStats) ObserveQueue(d time.Duration) { is.queue.RecordDuration(d) }

// ObserveQueueDepth folds one observed inbox depth into the
// high-water backpressure gauge. No-op when observability is off.
func (is *InstanceStats) ObserveQueueDepth(depth int) {
	if is.exec == nil {
		return
	}
	atomicMax(&is.maxQueue, int64(depth))
	is.curQueue.Store(int64(depth))
}

// MaxQueueDepth returns the high-water inbox depth.
func (is *InstanceStats) MaxQueueDepth() int64 { return is.maxQueue.Load() }

// QueueDepth returns the most recently observed inbox depth.
func (is *InstanceStats) QueueDepth() int64 { return is.curQueue.Load() }

// ObserveMarkerLag records one marker-cut lag sample: the time from a
// cut's first marker arrival to its snapshot flush.
func (is *InstanceStats) ObserveMarkerLag(d time.Duration) { is.markerLag.RecordDuration(d) }

// ExecHist returns a snapshot of the execute-latency histogram.
func (is *InstanceStats) ExecHist() Hist { return is.exec.Snapshot() }

// QueueHist returns a snapshot of the inbox-latency histogram.
func (is *InstanceStats) QueueHist() Hist { return is.queue.Snapshot() }

// MarkerLagHist returns a snapshot of the marker-cut-lag histogram.
func (is *InstanceStats) MarkerLagHist() Hist { return is.markerLag.Snapshot() }

// Spans returns the retained sampled spans (oldest first) and the
// lifetime total sampled.
func (is *InstanceStats) Spans() ([]Span, int64) { return is.spans.snapshot() }

// Stats aggregates per-instance metrics for a topology run. Beyond
// raw counters it computes the simulated-cluster schedule used by the
// evaluation: this reproduction runs on a single machine, so
// "throughput at W workers" is derived by packing the measured
// per-executor busy times onto W workers (LPT greedy) and taking the
// makespan — the standard surrogate for multi-machine scaling when
// real machines are unavailable (see DESIGN.md).
type Stats struct {
	mu        sync.Mutex
	instances []*InstanceStats
	obs       ObsConfig
	wire      WireStats
}

// WireStats are the counters of a networked run's data links, summed
// over every worker's outgoing links (all zero for an in-process run).
type WireStats struct {
	// Frames and Bytes count what was written to the links.
	Frames, Bytes int64
	// TypedRows crossed a link as raw columns; FallbackRows crossed it
	// through gob: boxed items and the rows of batches whose kind has no
	// wire layout.
	TypedRows, FallbackRows int64
	// WriterBlocked is the time the links' writer goroutines spent inside
	// socket writes, CreditStall the time executors waited for a
	// destination's credit window to reopen.
	WriterBlocked, CreditStall time.Duration
}

// Add folds another set of links' counters into w.
func (w *WireStats) Add(o WireStats) {
	w.Frames += o.Frames
	w.Bytes += o.Bytes
	w.TypedRows += o.TypedRows
	w.FallbackRows += o.FallbackRows
	w.WriterBlocked += o.WriterBlocked
	w.CreditStall += o.CreditStall
}

// AddWire folds one worker's link counters into the run's.
func (s *Stats) AddWire(w WireStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wire.Add(w)
}

// Wire returns the run's link counters.
func (s *Stats) Wire() WireStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wire
}

// NewStats creates an empty collector.
func NewStats() *Stats { return &Stats{} }

// SetObservability configures the observability subsystem for
// instances registered after the call (runtimes call it once, before
// starting executors).
func (s *Stats) SetObservability(cfg ObsConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = cfg
}

// Observability returns the active configuration.
func (s *Stats) Observability() ObsConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obs
}

// Instance registers and returns the stats record for an executor.
func (s *Stats) Instance(component string, idx int) *InstanceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	is := &InstanceStats{Component: component, Instance: idx}
	if s.obs.Enabled {
		is.exec = NewHistogram()
		is.queue = NewHistogram()
		is.markerLag = NewHistogram()
		if s.obs.sampleEvery() > 0 {
			is.spans = newSpanRing(component, idx, s.obs.sampleEvery(), s.obs.spanRing())
		}
	}
	s.instances = append(s.instances, is)
	return is
}

// normalize rescales the measured busy times when they are physically
// impossible: per-executor busy is measured with wall-clock windows,
// and when the scheduler preempts an executor mid-window the time of
// whoever runs instead is double-counted. Total CPU cannot exceed
// wall × GOMAXPROCS, so when the measured total overflows that limit
// every executor is scaled down proportionally — shares are
// preserved, double counting is removed. Without this, bursty
// executors (block flushes at markers) would look up to 2× more
// expensive than they are on a loaded single-core machine.
// Normalize is exported for runtime backends; see the method body.
func (s *Stats) Normalize(wall time.Duration) {
	limit := wall * time.Duration(runtime.GOMAXPROCS(0))
	if limit <= 0 {
		return
	}
	var total time.Duration
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, is := range s.instances {
		total += is.Busy()
	}
	if total <= limit {
		return
	}
	factor := float64(limit) / float64(total)
	for _, is := range s.instances {
		is.SetBusy(time.Duration(float64(is.Busy()) * factor))
	}
}

// Instances returns all executor records, ordered by component then
// instance.
func (s *Stats) Instances() []*InstanceStats {
	s.mu.Lock()
	out := append([]*InstanceStats(nil), s.instances...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Instance < out[j].Instance
	})
	return out
}

// Component sums the executed/emitted counters of one component.
func (s *Stats) Component(name string) (executed, emitted int64) {
	for _, is := range s.Instances() {
		if is.Component == name {
			executed += is.Executed()
			emitted += is.Emitted()
		}
	}
	return executed, emitted
}

// ComponentItems sums one component's item deliveries: executed events
// minus completed marker cuts. Markers are broadcast and counted once
// per cut per instance, so raw Executed grows with the instance count;
// the items quantity is invariant under the component's parallelism,
// which makes it the right counter to compare across rescaled runs.
func (s *Stats) ComponentItems(name string) int64 {
	var items int64
	for _, is := range s.Instances() {
		if is.Component == name {
			items += is.Executed() - is.Cuts()
		}
	}
	return items
}

// Combined sums the combining-buffer counters over all executors:
// events absorbed into sender-side partial aggregates and partial
// aggregates shipped. A run without combined edges returns (0, 0).
func (s *Stats) Combined() (in, out int64) {
	for _, is := range s.Instances() {
		in += is.CombinedIn()
		out += is.CombinedOut()
	}
	return in, out
}

// Recovery sums the fault-tolerance counters over all executors:
// restarts performed, events replayed from replay buffers, and events
// dropped by degraded executors.
func (s *Stats) Recovery() (restarts, replayed, dropped int64) {
	for _, is := range s.Instances() {
		restarts += is.Restarts()
		replayed += is.Replayed()
		dropped += is.Dropped()
	}
	return restarts, replayed, dropped
}

// TotalBusy is the sum of busy time over all executors — the total
// compute the run consumed, independent of scheduling.
func (s *Stats) TotalBusy() time.Duration {
	var total time.Duration
	for _, is := range s.Instances() {
		total += is.Busy()
	}
	return total
}

// Makespan packs the executors' busy times onto the given number of
// workers using the LPT (longest processing time first) greedy rule
// and returns the resulting schedule length — the simulated wall time
// of the run on a cluster of that many machines.
func (s *Stats) Makespan(workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	insts := s.Instances()
	busy := make([]time.Duration, 0, len(insts))
	for _, is := range insts {
		busy = append(busy, is.Busy())
	}
	sort.Slice(busy, func(i, j int) bool { return busy[i] > busy[j] })
	loads := make([]time.Duration, workers)
	for _, b := range busy {
		// Assign to the least-loaded worker.
		min := 0
		for w := 1; w < workers; w++ {
			if loads[w] < loads[min] {
				min = w
			}
		}
		loads[min] += b
	}
	var max time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// Throughput returns simulated tuples/second at the given worker
// count for a run that consumed inputTuples source tuples.
func (s *Stats) Throughput(inputTuples int64, workers int) float64 {
	ms := s.Makespan(workers)
	if ms <= 0 {
		return 0
	}
	return float64(inputTuples) / ms.Seconds()
}

// String renders a per-component summary table. The recovery columns
// (restarts, replayed, dropped) appear only when some executor has a
// nonzero counter, so failure-free runs render as before.
func (s *Stats) String() string {
	restarts, replayed, dropped := s.Recovery()
	recovery := restarts != 0 || replayed != 0 || dropped != 0
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %4s %12s %12s %12s", "component", "inst", "executed", "emitted", "busy")
	if recovery {
		fmt.Fprintf(&b, " %9s %9s %9s", "restarts", "replayed", "dropped")
	}
	b.WriteByte('\n')
	for _, is := range s.Instances() {
		fmt.Fprintf(&b, "%-24s %4d %12d %12d %12s",
			is.Component, is.Instance, is.Executed(), is.Emitted(), is.Busy().Round(time.Microsecond))
		if recovery {
			fmt.Fprintf(&b, " %9d %9d %9d", is.Restarts(), is.Replayed(), is.Dropped())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Filtered returns a new Stats containing only the executors whose
// component satisfies keep — e.g. to compare backends on operator
// work alone, excluding sources a backend does not model. Records are
// deep copies: mutating the filtered view never touches the original.
func (s *Stats) Filtered(keep func(component string) bool) *Stats {
	out := NewStats()
	for _, is := range s.Instances() {
		if !keep(is.Component) {
			continue
		}
		c := &InstanceStats{Component: is.Component, Instance: is.Instance}
		c.executed.Store(is.Executed())
		c.emitted.Store(is.Emitted())
		c.busy.Store(int64(is.Busy()))
		c.restarts.Store(is.Restarts())
		c.replayed.Store(is.Replayed())
		c.dropped.Store(is.Dropped())
		c.cuts.Store(is.Cuts())
		c.combinedIn.Store(is.CombinedIn())
		c.combinedOut.Store(is.CombinedOut())
		c.maxQueue.Store(is.MaxQueueDepth())
		c.curQueue.Store(is.QueueDepth())
		if is.ObsEnabled() {
			c.exec = histogramFrom(is.ExecHist())
			c.queue = histogramFrom(is.QueueHist())
			c.markerLag = histogramFrom(is.MarkerLagHist())
		}
		out.mu.Lock()
		out.instances = append(out.instances, c)
		out.mu.Unlock()
	}
	return out
}
