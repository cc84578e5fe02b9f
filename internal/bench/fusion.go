package bench

import (
	"fmt"
	"time"

	"datatrace/internal/compile"
)

// This file measures the compiler's optimization passes: chain fusion
// (collapsing maximal stateless operator chains into one bolt) and
// shuffle-side combiners (sender-side partial aggregation on fields
// edges into combinable keyed consumers). Generated Query IV — whose
// pipeline has both a fusable Filter→Project chain and a combinable
// fields edge into the sliding count — runs end-to-end under each of
// the four on/off combinations, so the sweep reads directly as "what
// does each pass buy on the evaluation's centerpiece".

// FusionRow is one pass-combination measurement.
type FusionRow struct {
	// Label names the combination ("none", "fusion", "combiners", "both").
	Label string
	// FuseChains and Combiners are the pass switches of the run.
	FuseChains bool
	Combiners  bool
	// Wall is the minimum end-to-end wall time over the repetitions.
	Wall time.Duration
	// walls are the repetitions' wall times in run order; the gate's
	// dense guard pairs them across rows.
	walls []time.Duration
	// Throughput is input tuples divided by Wall.
	Throughput float64
	// Speedup is the passes-off wall time divided by this row's wall
	// time (1.00 for the passes-off row itself).
	Speedup float64
	// CombinedIn and CombinedOut are the combiner traffic counters of
	// the run: items folded into combining buffers and partial
	// aggregates flushed out. Zero when the combiner pass is off.
	CombinedIn, CombinedOut int64
	// Compression is CombinedIn / CombinedOut — the average number of
	// raw items each flushed partial stands for (0 when no combining).
	Compression float64
}

// FusionSweepResult is the full sweep.
type FusionSweepResult struct {
	Rows []FusionRow
	// Par is the per-stage parallelism every run used.
	Par int
	// Reps is the number of interleaved repetitions per combination.
	Reps int
}

// FusionSweep runs generated Query IV once per pass combination per
// repetition (see interleave) and keeps each combination's minimum wall.
func FusionSweep(cfg Config) (*FusionSweepResult, error) {
	return fusionSweep(cfg, 5, []FusionRow{
		{Label: "none"},
		{Label: "fusion", FuseChains: true},
		{Label: "combiners", Combiners: true},
		{Label: "both", FuseChains: true, Combiners: true},
	})
}

// fusionSweep measures rows, which arrive with their label and pass
// switches set; the first is the baseline of the Speedup column.
func fusionSweep(cfg Config, reps int, rows []FusionRow) (*FusionSweepResult, error) {
	arms := make([]arm, len(rows))
	for i, row := range rows {
		spec := queryIV(cfg)
		spec.Options = compile.Defaults()
		spec.Options.FuseChains, spec.Options.Combiners = row.FuseChains, row.Combiners
		arms[i] = arm{label: row.Label, spec: spec}
	}
	runs, err := interleave(cfg, "fusion", reps, arms)
	if err != nil {
		return nil, err
	}
	base := minWall(runs[0])
	for i := range rows {
		row, last := &rows[i], runs[i][reps-1].stats
		for _, r := range runs[i] {
			row.walls = append(row.walls, r.wall)
		}
		row.Wall = minWall(runs[i])
		row.Throughput = float64(countItems(last, "yahoo")) / row.Wall.Seconds()
		row.Speedup = base.Seconds() / row.Wall.Seconds()
		row.CombinedIn, row.CombinedOut = last.Combined()
		if row.CombinedOut > 0 {
			row.Compression = float64(row.CombinedIn) / float64(row.CombinedOut)
		}
	}
	return &FusionSweepResult{Rows: rows, Par: arms[0].spec.Par, Reps: reps}, nil
}

// Table renders the sweep as aligned text.
func (r *FusionSweepResult) Table() string {
	t := newTable("passes,wall,tuples/s,speedup,combined_in,combined_out,compression")
	for _, row := range r.Rows {
		comp := "-"
		if row.Compression > 0 {
			comp = fmt.Sprintf("%.1fx", row.Compression)
		}
		t.addf("%s,%s,%.0f,%.2fx,%d,%d,%s", row.Label, row.Wall.Round(time.Microsecond),
			row.Throughput, row.Speedup, row.CombinedIn, row.CombinedOut, comp)
	}
	return fmt.Sprintf("== fusion: optimization-pass sweep (Query IV generated, par=%d, min of %d interleaved reps) ==\n%s",
		r.Par, r.Reps, t.text())
}

// CSV renders the sweep as comma-separated records.
func (r *FusionSweepResult) CSV() string {
	t := newTable("figure,passes,fuse_chains,combiners,wall_s,tuples_per_s,speedup,combined_in,combined_out,compression")
	for _, row := range r.Rows {
		t.addf("fusion,%s,%v,%v,%f,%f,%f,%d,%d,%f", row.Label, row.FuseChains, row.Combiners,
			row.Wall.Seconds(), row.Throughput, row.Speedup, row.CombinedIn, row.CombinedOut, row.Compression)
	}
	return t.csv()
}
