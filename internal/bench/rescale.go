package bench

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"datatrace/internal/metrics"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// This file measures elastic rescaling: the bursty-workload sweep
// behind EXPERIMENTS.md's autoscaling section. The workload has a
// lull–burst–lull shape — a paced trickle, then a sustained burst
// arriving faster than one worker can process, then a trickle again —
// and a keyed aggregation whose per-event cost makes the aggregation
// stage the bottleneck during the burst. Static parallelism must pick
// one point on the provisioning curve: par 1 is under-provisioned for
// the burst (the backlog drains at 1× speed), par 4 is
// over-provisioned for the lulls. The autoscaled run starts at 1,
// scales out when the burst builds queue depth, and scales back in
// when the lull returns — its throughput should approach the best
// static configuration's while never paying par 4 up front.

// RescaleWorkload shapes the bursty stream.
type RescaleWorkload struct {
	// LullBlocks marker blocks of LullPerBlock events open and close
	// the stream, paced at LullPace per event — a trickle one
	// aggregation instance absorbs with slack.
	LullBlocks, LullPerBlock int
	LullPace                 time.Duration
	// BurstBlocks marker blocks of BurstPerBlock events arrive in the
	// middle, paced at BurstPace per BurstEvery events — an arrival
	// rate above a single instance's processing capacity but within
	// the maximum configuration's, so the burst is survivable only at
	// scale. The burst is paced, not dumped: a source that outruns
	// event time by minutes would also push every cut barrier minutes
	// into the future, hiding exactly the reconfiguration latency this
	// sweep measures.
	BurstBlocks, BurstPerBlock int
	BurstEvery                 int
	BurstPace                  time.Duration
	// Keys is the key cardinality of the aggregation.
	Keys int
	// Cost is the simulated per-event processing cost of the
	// aggregation stage.
	Cost time.Duration
}

// DefaultRescaleWorkload sizes the sweep for seconds-long runs per
// configuration.
func DefaultRescaleWorkload() RescaleWorkload {
	// Small blocks keep cuts frequent: a rescale waits for the next
	// cut barrier, so the reconfiguration latency is about one block's
	// processing time at the pre-rescale parallelism. The nominal
	// sleeps below land near the scheduler's ~1ms timer floor, so the
	// effective per-event cost is ~1.1ms (≈870 events/s per instance)
	// and the burst arrives at ~3/1.1ms ≈ 2700 events/s — roughly 3×
	// one instance's capacity, under 4 instances'.
	return RescaleWorkload{
		LullBlocks: 6, LullPerBlock: 20, LullPace: 2 * time.Millisecond,
		BurstBlocks: 64, BurstPerBlock: 100, BurstEvery: 3, BurstPace: time.Millisecond,
		Keys: 64,
		Cost: 100 * time.Microsecond,
	}
}

// Items is the total number of non-marker events.
func (w RescaleWorkload) Items() int64 {
	return int64(2*w.LullBlocks*w.LullPerBlock + w.BurstBlocks*w.BurstPerBlock)
}

// Cuts is the number of marker cuts.
func (w RescaleWorkload) Cuts() int { return 2*w.LullBlocks + w.BurstBlocks }

// blockPace is one block's arrival pacing: sleep pace once per every
// items.
type blockPace struct {
	every int
	pace  time.Duration
}

// events materializes the stream: one marker per block, items keyed
// round-robin over the key space. paces[b] is the pacing of block b.
func (w RescaleWorkload) events() (events []stream.Event, paces []blockPace) {
	seq := int64(0)
	n := 0
	block := func(perBlock int, p blockPace) {
		for i := 0; i < perBlock; i++ {
			events = append(events, stream.Item(n%w.Keys, 1))
			n++
		}
		events = append(events, stream.Mark(stream.Marker{Seq: seq, Timestamp: seq}))
		seq++
		paces = append(paces, p)
	}
	lull := blockPace{every: 1, pace: w.LullPace}
	burst := blockPace{every: w.BurstEvery, pace: w.BurstPace}
	for b := 0; b < w.LullBlocks; b++ {
		block(w.LullPerBlock, lull)
	}
	for b := 0; b < w.BurstBlocks; b++ {
		block(w.BurstPerBlock, burst)
	}
	for b := 0; b < w.LullBlocks; b++ {
		block(w.LullPerBlock, lull)
	}
	return events, paces
}

// pacedSpout replays events, sleeping the enclosing block's pace once
// per its every items — the arrival-rate model of the bursty source.
func pacedSpout(events []stream.Event, paces []blockPace) storm.SpoutFunc {
	i, block, since := 0, 0, 0
	return func() (stream.Event, bool) {
		if i >= len(events) {
			return stream.Event{}, false
		}
		e := events[i]
		i++
		if e.IsMarker {
			block++
			return e, true
		}
		p := paces[block]
		if since++; p.pace > 0 && since >= p.every {
			since = 0
			time.Sleep(p.pace)
		}
		return e, true
	}
}

// costlyAggBolt is a recoverable, reshardable per-key running sum
// whose per-event cost models an expensive aggregation (a DB write, a
// feature computation): the knob that makes the aggregation stage the
// burst's bottleneck.
type costlyAggBolt struct {
	cost time.Duration
	sums map[int]int64
}

func newCostlyAggBolt(cost time.Duration) func(int) storm.Bolt {
	return func(int) storm.Bolt { return &costlyAggBolt{cost: cost, sums: map[int]int64{}} }
}

func (b *costlyAggBolt) Next(e stream.Event, emit func(stream.Event)) {
	if e.IsMarker {
		emit(e)
		return
	}
	if b.cost > 0 {
		time.Sleep(b.cost)
	}
	k := e.Key.(int)
	b.sums[k] += int64(e.Value.(int))
	emit(stream.Item(k, b.sums[k]))
}

func (b *costlyAggBolt) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b.sums); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (b *costlyAggBolt) Restore(data []byte) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(&b.sums)
}

// Reshard implements storm.Resharder: every key's running sum moves
// to the key's owner under the new parallelism.
func (b *costlyAggBolt) Reshard(old [][]byte, newPar int, owner func(key any) int) ([][]byte, error) {
	shards := make([]map[int]int64, newPar)
	for j := range shards {
		shards[j] = map[int]int64{}
	}
	for _, blob := range old {
		if len(blob) == 0 {
			continue
		}
		var sums map[int]int64
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&sums); err != nil {
			return nil, err
		}
		for k, v := range sums {
			shards[owner(k)][k] += v
		}
	}
	out := make([][]byte, newPar)
	for j, m := range shards {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			return nil, err
		}
		out[j] = buf.Bytes()
	}
	return out, nil
}

// RescaleRow is one configuration's measurement.
type RescaleRow struct {
	// Config labels the provisioning: "static" or "autoscaled".
	Config string
	// Par is the static parallelism, or the Min..Max range.
	Par string
	// Wall is the run's wall time.
	Wall time.Duration
	// Throughput is items per second of wall time.
	Throughput float64
	// Rescales is the number of live reconfigurations performed.
	Rescales int
	// FinalPar is the aggregation's parallelism when the run ended.
	FinalPar int
}

// RescaleSweepResult is the full bursty sweep.
type RescaleSweepResult struct {
	Workload RescaleWorkload
	Rows     []RescaleRow
	// AutoVsBest is autoscaled throughput over the best static
	// configuration's (1.0 = parity).
	AutoVsBest float64
	// AutoVsUnder is autoscaled throughput over the most
	// under-provisioned static configuration's.
	AutoVsUnder float64
}

const (
	rescaleMinPar = 1
	rescaleMaxPar = 4
)

// RescaleSweep runs the bursty workload at static parallelism 1, 2
// and 4 and once under the autoscaler (Min 1, Max 4), interleaving
// repetitions and keeping each configuration's best wall time.
func RescaleSweep(cfg Config) (*RescaleSweepResult, error) {
	w := DefaultRescaleWorkload()
	events, paces := w.events()
	items := w.Items()

	build := func(par int, auto bool) *storm.Topology {
		top := storm.NewTopology("bursty-agg")
		top.AddSpout("src", 1, func(int) storm.Spout { return pacedSpout(events, paces) })
		top.AddBolt("agg", par, newCostlyAggBolt(w.Cost)).FieldsGrouping("src", true)
		top.AddSink("sink", "agg")
		top.SetRecovery(storm.RecoveryPolicy{Enabled: true})
		if auto {
			top.SetObservability(metrics.ObsConfig{Enabled: true})
			top.SetAutoscale(&storm.AutoscalePolicy{
				Component: "agg",
				Min:       rescaleMinPar,
				Max:       rescaleMaxPar,
				Interval:  2 * time.Millisecond,
				HighDepth: 32,
				Sustain:   1,
				// The lull trickle executes a couple of events per
				// poll; treating that as idle lets the controller
				// scale back in after the burst drains.
				LowDelta: 4,
			})
		}
		return top
	}

	type outcome struct {
		wall     time.Duration
		rescales int
		finalPar int
	}
	runOnce := func(par int, auto bool) (outcome, error) {
		top := build(par, auto)
		res, err := top.Run()
		if err != nil {
			return outcome{}, err
		}
		o := outcome{wall: res.Wall, rescales: top.Rescales(), finalPar: par}
		for _, c := range top.Components() {
			if c.Name == "agg" {
				o.finalPar = c.Parallelism
			}
		}
		return o, nil
	}

	configs := []struct {
		label, par string
		startPar   int
		auto       bool
	}{
		{"static", "1", 1, false},
		{"static", "2", 2, false},
		{"static", "4", 4, false},
		{"autoscaled", fmt.Sprintf("%d..%d", rescaleMinPar, rescaleMaxPar), rescaleMinPar, true},
	}
	best := make([]outcome, len(configs))
	for i := 0; i < 3; i++ {
		for ci, c := range configs {
			o, err := runOnce(c.startPar, c.auto)
			if err != nil {
				return nil, fmt.Errorf("bench: rescale sweep %s par=%s: %w", c.label, c.par, err)
			}
			if i == 0 || o.wall < best[ci].wall {
				best[ci] = o
			}
		}
	}

	res := &RescaleSweepResult{Workload: w}
	var auto, bestStatic, underStatic float64
	for ci, c := range configs {
		o := best[ci]
		th := float64(items) / o.wall.Seconds()
		res.Rows = append(res.Rows, RescaleRow{
			Config: c.label, Par: c.par, Wall: o.wall, Throughput: th,
			Rescales: o.rescales, FinalPar: o.finalPar,
		})
		switch {
		case c.auto:
			auto = th
		case bestStatic == 0:
			bestStatic, underStatic = th, th
		default:
			bestStatic, underStatic = max(bestStatic, th), min(underStatic, th)
		}
	}
	res.AutoVsBest = auto / bestStatic
	res.AutoVsUnder = auto / underStatic
	return res, nil
}

// Table renders the sweep as aligned text.
func (r *RescaleSweepResult) Table() string {
	t := newTable("config,par,wall,items/s,rescales,final_par")
	for _, row := range r.Rows {
		t.addf("%s,%s,%s,%.0f,%d,%d", row.Config, row.Par, row.Wall.Round(time.Microsecond),
			row.Throughput, row.Rescales, row.FinalPar)
	}
	w := r.Workload
	return fmt.Sprintf("== rescale: bursty workload, static provisioning vs autoscaler (%d items, %d cuts, burst %d×%d, bolt cost %v) ==\n%s"+
		"autoscaled/best-static throughput: %.2f   autoscaled/under-provisioned: %.2f\n",
		w.Items(), w.Cuts(), w.BurstBlocks, w.BurstPerBlock, w.Cost, t.text(), r.AutoVsBest, r.AutoVsUnder)
}

// CSV renders the sweep as comma-separated records.
func (r *RescaleSweepResult) CSV() string {
	t := newTable("figure,config,par,wall_s,items_per_s,rescales,final_par")
	for _, row := range r.Rows {
		t.addf("rescale,%s,%s,%f,%f,%d,%d", row.Config, row.Par, row.Wall.Seconds(), row.Throughput,
			row.Rescales, row.FinalPar)
	}
	return t.csv()
}
