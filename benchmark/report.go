package main

import (
	"fmt"
	"sort"

	"datatrace/internal/metrics"
)

// metric is one reported value, as the contract line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output of one run.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is the detail file one run leaves in the out directory; a
// full set merges them into result.json and spans.json.
type runReport struct {
	Workload   string  `json:"workload"`
	Spec       spec    `json:"spec"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Short      bool    `json:"short"`
	GOMAXPROCS int     `json:"gomaxprocs"`

	Correct   bool   `json:"correct"`
	Error     string `json:"error,omitempty"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Digest is the order-insensitive digest of the full-size sink,
	// identical across trials (and across q4-dense and q4-tcp).
	Digest string `json:"digest"`

	Metrics map[string]metric `json:"metrics"`
	// Trials holds, for every metric measured once per trial, its
	// median with quartiles, extremes and the trial count.
	Trials map[string]summary `json:"trials,omitempty"`
	// Samples holds sample counts behind percentiles.
	Samples map[string]int `json:"samples,omitempty"`
	Notes   []string       `json:"notes,omitempty"`
	Spans   []span         `json:"spans,omitempty"`
}

// perTrial computes one value per trial.
func perTrial(ts []*trial, f func(*trial) float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t)
	}
	return out
}

// pooled concatenates a per-trial sample set over all trials.
func pooled(ts []*trial, f func(*trial) []float64) []float64 {
	var out []float64
	for _, t := range ts {
		out = append(out, f(t)...)
	}
	return out
}

// report turns an outcome into the run's report.
func report(o *outcome) *runReport {
	cfg := o.cfg
	r := &runReport{
		Workload: cfg.sp.Name, Spec: cfg.sp, Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.traced, Short: cfg.short, GOMAXPROCS: o.gomaxproc,
		Metrics: map[string]metric{}, Trials: map[string]summary{}, Samples: map[string]int{},
	}
	for _, t := range o.untraced {
		r.Attempted += t.items
		r.Failed += t.failedItems(o.itemsCut)
	}
	if r.Attempted == 0 {
		r.Attempted = 1 // the output check failed before any trial
	}
	r.Correct = o.checkErr == nil
	if !r.Correct {
		r.Error = o.checkErr.Error()
		r.Failed = r.Attempted
		return r
	}
	r.Digest = fmt.Sprintf("%016x", o.untraced[0].digest)
	if cfg.traced {
		o.perLayer(r)
		r.Spans = o.spans.spans
	} else {
		o.endToEnd(r)
	}
	return r
}

func (r *runReport) put(name, unit string, value float64) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// putTrials reports the median of a per-trial value and keeps its
// spread alongside.
func (r *runReport) putTrials(name, unit string, values []float64) {
	s := summarise(values)
	r.Trials[name] = s
	r.put(name, unit, s.Median)
}

func (o *outcome) endToEnd(r *runReport) {
	ts := o.untraced
	r.putTrials("throughput_eps", "items/s", perTrial(ts, func(t *trial) float64 { return float64(t.items) / t.wall.Seconds() }))
	r.putTrials("cpu_us_per_event", "us", perTrial(ts, func(t *trial) float64 { return float64(t.cpu.Microseconds()) / float64(t.items) }))
	r.putTrials("allocs_per_event", "count", perTrial(ts, func(t *trial) float64 { return float64(t.mallocs) / float64(t.items) }))
	r.putTrials("alloc_bytes_per_event", "B", perTrial(ts, func(t *trial) float64 { return float64(t.bytes) / float64(t.items) }))
	r.putTrials("peak_rss_mb", "MiB", perTrial(ts, func(t *trial) float64 { return t.rssMiB }))
	// Latency percentiles are taken over groups of consecutive cuts of all
	// measured trials together, so that the 95th has its ten samples
	// beyond it in every group.
	lat := pooled(ts, func(t *trial) []float64 { return t.latMs })
	r.put("cut_latency_p50_ms", "ms", groupedPercentile(lat, 0.50))
	r.put("cut_latency_p95_ms", "ms", groupedPercentile(lat, 0.95))
	r.Samples["cut_latency"] = len(lat)
	if !supported(len(lat), 0.95) {
		r.Notes = append(r.Notes, fmt.Sprintf("cut_latency_p95_ms rests on %d samples, fewer than ten beyond it", len(lat)))
	}
	r.putTrials("setup_s", "s", o.setupS)
}

// roleShares folds a run's per-executor busy times into the share of
// the wall each role was busy: sources, operators (the busiest and the
// sum) and the sink. The tap is the benchmark's and counts nowhere.
//
// Two corrections come first. The runtime books a spout's whole loop as
// busy, including the time a replay source waits for its window or
// schedule, so a source's busy time is taken from its own record instead
// (active minus waited). And when the booked times of a process add up
// to more than its processors could have worked, Stats.Normalize scales
// all of them down; the spouts, whose true booked time is their active
// time, give that scale away, and the other executors of the same
// process are scaled back up by it.
func roleShares(t *trial) (src, opMax, opSum, sink float64) {
	workerOf := func(component string, instance int) int {
		for _, p := range t.placed {
			if p.Component == component && p.Instance == instance {
				return p.Worker
			}
		}
		return 0
	}
	booked, active := map[int]float64{}, map[int]float64{}
	var srcBusy float64
	spouts := 0
	for _, is := range t.stats.Instances() {
		if t.kinds[is.Component] != "spout" || is.Instance >= len(t.sources) || t.sources[is.Instance] == nil {
			continue
		}
		log, w := t.sources[is.Instance], workerOf(is.Component, is.Instance)
		booked[w] += is.Busy().Seconds()
		active[w] += float64(log.ActiveNs) / 1e9
		srcBusy += float64(log.ActiveNs-log.WaitedNs) / 1e9
		spouts++
	}
	scale := func(w int) float64 {
		if booked[w] > 0 && booked[w] < active[w] {
			return booked[w] / active[w]
		}
		return 1
	}
	type acc struct {
		busy float64
		n    int
	}
	by := map[string]*acc{}
	for _, is := range t.stats.Instances() {
		a := by[is.Component]
		if a == nil {
			a = &acc{}
			by[is.Component] = a
		}
		a.busy += is.Busy().Seconds() / scale(workerOf(is.Component, is.Instance))
		a.n++
	}
	wall := t.wall.Seconds()
	for name, a := range by {
		share := a.busy / (wall * float64(a.n))
		switch {
		case name == tapName || t.kinds[name] == "spout":
		case t.kinds[name] == "sink":
			sink = share
		default:
			opSum += share
			if share > opMax {
				opMax = share
			}
		}
	}
	if spouts > 0 {
		src = srcBusy / (wall * float64(spouts))
	}
	return
}

func (o *outcome) perLayer(r *runReport) {
	for name, m := range o.probes {
		r.Metrics[name] = m
	}
	ts := o.untraced
	share := func(pick func(src, opMax, opSum, sink float64) float64) []float64 {
		return perTrial(ts, func(t *trial) float64 { return pick(roleShares(t)) })
	}
	r.putTrials("storm.src_busy_share", "ratio", share(func(src, _, _, _ float64) float64 { return src }))
	r.putTrials("storm.op_busy_share_max", "ratio", share(func(_, opMax, _, _ float64) float64 { return opMax }))
	r.putTrials("storm.op_busy_share_sum", "ratio", share(func(_, _, opSum, _ float64) float64 { return opSum }))
	r.putTrials("storm.sink_busy_share", "ratio", share(func(_, _, _, sink float64) float64 { return sink }))
	r.putTrials("storm.combine.out_in_ratio", "ratio", perTrial(ts, func(t *trial) float64 {
		in, out := t.stats.Combined()
		if in == 0 {
			return 0
		}
		return float64(out) / float64(in)
	}))
	r.putTrials("storm.cuts", "count", perTrial(ts, func(t *trial) float64 {
		var n int64
		for _, is := range t.stats.Instances() {
			if is.Component != tapName {
				n += is.Cuts()
			}
		}
		return float64(n)
	}))
	r.putTrials("storm.restarts", "count", perTrial(ts, func(t *trial) float64 {
		restarts, _, _ := t.stats.Recovery()
		return float64(restarts)
	}))
	r.putTrials("storm.dropped", "count", perTrial(ts, func(t *trial) float64 { return float64(t.dropped) }))

	// Harness validity (meaningful for the open loop; a closed loop has no
	// schedule, so its generator lag is 0 and its sent share 1).
	lat := pooled(ts, func(t *trial) []float64 { return t.latMs })
	r.put("harness.gen_lag_p95_ms", "ms", percentile(pooled(ts, func(t *trial) []float64 { return t.genLagMs }), 0.95))
	r.put("harness.achieved_rate_share", "ratio", median(perTrial(ts, func(t *trial) float64 { return t.sentShare })))
	r.put("harness.cut_latency_p99_ms", "ms", percentile(lat, 0.99))
	r.Samples["cut_latency"] = len(lat)
	// Backlog growth: the slope of cut latency over the cut's position in
	// its trial, in ms of latency per second of run.
	var xs, ys []float64
	for _, t := range ts {
		for i, l := range t.latMs {
			xs = append(xs, t.wall.Seconds()*float64(i)/float64(len(t.latMs)))
			ys = append(ys, l)
		}
	}
	r.put("harness.backlog_growth_ms_per_s", "ms/s", slope(xs, ys))
	late := 0
	for _, l := range lat {
		if l > float64(lateLimit)/1e6 {
			late++
		}
	}
	r.put("harness.late_share", "ratio", float64(late)/float64(max(1, len(lat))))
	r.put("harness.failed_share", "ratio", float64(r.Failed)/float64(r.Attempted))

	o.tracedMetrics(r)
	o.attribution(r)
}

// tracedMetrics reports what the runtime's own observability saw in the
// traced pass, and what switching it on cost.
func (o *outcome) tracedMetrics(r *runReport) {
	var execP50, execP99, qP50, qP99, depth, lagP50, lagP99 float64
	if len(o.traced) > 0 && o.traced[len(o.traced)-1].stats != nil {
		t := o.traced[len(o.traced)-1]
		var busiest *metrics.ComponentSnapshot
		var queue, lag metrics.Hist
		comps := t.stats.Snapshot().ByComponent()
		for i := range comps {
			c := &comps[i]
			if c.Component == tapName || t.kinds[c.Component] == "spout" {
				continue
			}
			queue = queue.Merge(c.Queue)
			lag = lag.Merge(c.MarkerLag)
			if float64(c.MaxQueueDepth) > depth {
				depth = float64(c.MaxQueueDepth)
			}
			if t.kinds[c.Component] == "bolt" && (busiest == nil || c.Busy > busiest.Busy) {
				busiest = c
			}
		}
		if busiest != nil {
			execP50, execP99 = float64(busiest.Exec.Quantile(0.50)), float64(busiest.Exec.Quantile(0.99))
		}
		qP50, qP99 = float64(queue.Quantile(0.50))/1e3, float64(queue.Quantile(0.99))/1e3
		lagP50, lagP99 = float64(lag.Quantile(0.50))/1e3, float64(lag.Quantile(0.99))/1e3
	}
	r.put("storm.exec_p50_ns", "ns", execP50)
	r.put("storm.exec_p99_ns", "ns", execP99)
	r.put("storm.queue_wait_p50_us", "us", qP50)
	r.put("storm.queue_wait_p99_us", "us", qP99)
	r.put("storm.queue_depth_max", "count", depth)
	r.put("storm.marker_lag_p50_us", "us", lagP50)
	r.put("storm.marker_lag_p99_us", "us", lagP99)

	eps := func(ts []*trial) float64 {
		return median(perTrial(ts, func(t *trial) float64 { return float64(t.items) / t.wall.Seconds() }))
	}
	overhead := 0.0
	if len(o.traced) > 0 {
		overhead = 1 - eps(o.traced)/eps(o.untraced)
	}
	r.put("trace.overhead_share", "ratio", overhead)
}

// sortedNames returns a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
