package bench

import (
	"fmt"
	"time"

	"datatrace/internal/compile"
	"datatrace/internal/iot"
	"datatrace/internal/storm"
)

// This file measures the marker-cut recovery subsystem: the
// checkpoint-interval sweep behind EXPERIMENTS.md's recovery section.
// The marker period is the checkpoint interval — a cut happens at
// every marker — so sweeping the IoT workload's MarkerPeriod trades
// crash-free overhead (more cuts = more snapshots and smaller send
// batches) against recovery cost (a crash replays at most one block
// per input channel).

// RecoveryRow is one marker-period measurement.
type RecoveryRow struct {
	// MarkerPeriod is the event-time seconds between markers (the
	// checkpoint interval).
	MarkerPeriod int
	// Blocks is the number of marker-delimited blocks in the stream.
	Blocks int
	// BaseWall is the crash-free wall time with recovery disabled.
	BaseWall time.Duration
	// RecWall is the crash-free wall time with recovery enabled.
	RecWall time.Duration
	// OverheadPct is the crash-free overhead of checkpointing:
	// (RecWall-BaseWall)/BaseWall × 100.
	OverheadPct float64
	// CrashWall is the wall time of a run with one injected mid-stream
	// crash, recovery enabled.
	CrashWall time.Duration
	// RecoveryCost is CrashWall - RecWall: the extra wall time the
	// crash cost (restart + replay of the in-flight block).
	RecoveryCost time.Duration
	// Replayed is the number of events re-delivered from replay
	// buffers during the recovery.
	Replayed int64
	// Restarts is the number of executor restarts performed.
	Restarts int64
}

// RecoverySweepResult is the full sweep.
type RecoverySweepResult struct {
	Rows []RecoveryRow
	// Par is the per-stage parallelism every run used.
	Par int
}

// RecoverySweep runs the IoT pipeline at several marker periods,
// three times each: recovery off (baseline), recovery on without
// faults (overhead), and recovery on with one injected crash of a
// mid-pipeline bolt instance (recovery cost).
func RecoverySweep(cfg Config) (*RecoverySweepResult, error) {
	par := cfg.SourcePar
	if par < 2 {
		par = 2
	}
	res := &RecoverySweepResult{Par: par}
	sensor := iot.DefaultSensorConfig()
	sensor.Seconds = 3600
	sensor.Sensors = 16

	for _, period := range []int{5, 10, 30, 60, 120} {
		sensor.MarkerPeriod = period
		events := iot.Stream(sensor)

		// Chain fusion and combiners stay off: EXPERIMENTS.md's
		// checkpoint-interval sweep measured this configuration.
		build := func(rec *storm.RecoveryPolicy) (*storm.Topology, error) {
			return compile.Compile(iot.PipelineDAG(sensor, par), map[string]compile.SourceSpec{
				"hub": {Parallelism: 1, Factory: func(int) storm.Spout { return storm.SliceSpout(events) }},
			}, &compile.Options{FuseSort: true, Recovery: rec})
		}
		run := func(rec *storm.RecoveryPolicy, plan *storm.FaultPlan) (*storm.Result, error) {
			top, err := build(rec)
			if err != nil {
				return nil, err
			}
			top.SetFaultPlan(plan)
			return top.Run()
		}
		rec := &storm.RecoveryPolicy{Enabled: true, Logf: func(string, ...any) {}}
		// Crash the first mid-pipeline bolt instance mid-stream; the
		// component name is read off the compiled topology so sort
		// fusion cannot invalidate it.
		probe, err := build(rec)
		if err != nil {
			return nil, err
		}
		victim := ""
		for _, c := range probe.Components() {
			if c.Kind == "bolt" {
				victim = c.Name
				break
			}
		}
		if victim == "" {
			return nil, fmt.Errorf("bench: recovery sweep found no bolt to crash")
		}
		plan := storm.NewFaultPlan().CrashAt(victim, 0, 10000)

		// Interleave the three configurations across repetitions (so
		// machine-load drift hits them equally) and keep each one's
		// minimum wall — the least-perturbed run of a fixed workload.
		configs := []struct {
			label string
			rec   *storm.RecoveryPolicy
			plan  *storm.FaultPlan
		}{{"baseline", nil, nil}, {"crash-free", rec, nil}, {"crash", rec, plan}}
		best := make([]*storm.Result, len(configs))
		for i := 0; i < 7; i++ {
			for ci, c := range configs {
				r, err := run(c.rec, c.plan)
				if err != nil {
					return nil, fmt.Errorf("bench: recovery sweep %s (period %ds): %w", c.label, period, err)
				}
				if best[ci] == nil || r.Wall < best[ci].Wall {
					best[ci] = r
				}
			}
		}
		base, recWall, crashWall := best[0].Wall, best[1].Wall, best[2].Wall
		restarts, replayed, _ := best[2].Stats.Recovery()

		res.Rows = append(res.Rows, RecoveryRow{
			MarkerPeriod: period,
			Blocks:       sensor.Seconds / period,
			BaseWall:     base,
			RecWall:      recWall,
			OverheadPct:  100 * (recWall.Seconds() - base.Seconds()) / base.Seconds(),
			CrashWall:    crashWall,
			RecoveryCost: crashWall - recWall,
			Replayed:     replayed,
			Restarts:     restarts,
		})
	}
	return res, nil
}

// Table renders the sweep as aligned text.
func (r *RecoverySweepResult) Table() string {
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	t := newTable("period,blocks,base_wall,rec_wall,ovh_%,crash_wall,rec_cost,replayed,restarts")
	for _, row := range r.Rows {
		t.addf("%ds,%d,%s,%s,%.1f%%,%s,%s,%d,%d", row.MarkerPeriod, row.Blocks, us(row.BaseWall), us(row.RecWall),
			row.OverheadPct, us(row.CrashWall), us(row.RecoveryCost), row.Replayed, row.Restarts)
	}
	return fmt.Sprintf("== recovery: checkpoint-interval sweep (IoT pipeline, par=%d, one injected crash) ==\n%s", r.Par, t.text())
}

// CSV renders the sweep as comma-separated records.
func (r *RecoverySweepResult) CSV() string {
	t := newTable("figure,marker_period_s,blocks,base_wall_s,rec_wall_s,overhead_pct,crash_wall_s,recovery_cost_s,replayed,restarts")
	for _, row := range r.Rows {
		t.addf("recovery,%d,%d,%f,%f,%f,%f,%f,%d,%d", row.MarkerPeriod, row.Blocks,
			row.BaseWall.Seconds(), row.RecWall.Seconds(), row.OverheadPct,
			row.CrashWall.Seconds(), row.RecoveryCost.Seconds(), row.Replayed, row.Restarts)
	}
	return t.csv()
}
