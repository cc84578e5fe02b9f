package bench

import (
	"fmt"
	"time"

	"datatrace/internal/compile"
	"datatrace/internal/storm"
)

// This file measures the batched edge transport: the batch-size sweep
// behind EXPERIMENTS.md's transport section. Query IV (the Yahoo
// pipeline, the evaluation's centerpiece) runs end-to-end at a range
// of batch sizes, BatchSize 1 being exactly the seed's
// one-send-per-event transport, so the sweep reads directly as "what
// does vectorized edge transfer buy on this workload".

// TransportRow is one batch-size measurement.
type TransportRow struct {
	// BatchSize is the transport batch size of the run (1 = unbatched).
	BatchSize int
	// Wall is the minimum end-to-end wall time over the repetitions.
	Wall time.Duration
	// Throughput is input tuples divided by Wall.
	Throughput float64
	// Speedup is the batch-1 wall time divided by this row's wall time
	// (1.00 for the batch-1 row itself).
	Speedup float64
}

// TransportSweepResult is the full sweep.
type TransportSweepResult struct {
	Rows []TransportRow
	// Par is the per-stage parallelism every run used.
	Par int
	// Reps is the number of interleaved repetitions per batch size.
	Reps int
}

// TransportSweep runs generated Query IV once per batch size per
// repetition (see interleave) and keeps each size's minimum wall.
func TransportSweep(cfg Config) (*TransportSweepResult, error) {
	return transportSweep(cfg, []int{1, 4, 16, 64, 256, 1024})
}

func transportSweep(cfg Config, batches []int) (*TransportSweepResult, error) {
	arms := make([]arm, len(batches))
	for i, batch := range batches {
		spec := queryIV(cfg)
		spec.Options = compile.Defaults()
		spec.Options.Transport = &storm.TransportOptions{BatchSize: batch}
		arms[i] = arm{label: fmt.Sprintf("batch %d", batch), spec: spec}
	}
	const reps = 5
	runs, err := interleave(cfg, "transport", reps, arms)
	if err != nil {
		return nil, err
	}
	res := &TransportSweepResult{Par: arms[0].spec.Par, Reps: reps}
	base := minWall(runs[0])
	for i, batch := range batches {
		wall := minWall(runs[i])
		res.Rows = append(res.Rows, TransportRow{
			BatchSize:  batch,
			Wall:       wall,
			Throughput: float64(countItems(runs[i][0].stats, "yahoo")) / wall.Seconds(),
			Speedup:    base.Seconds() / wall.Seconds(),
		})
	}
	return res, nil
}

// Table renders the sweep as aligned text.
func (r *TransportSweepResult) Table() string {
	t := newTable("batch,wall,tuples/s,speedup")
	for _, row := range r.Rows {
		t.addf("%d,%s,%.0f,%.2fx", row.BatchSize, row.Wall.Round(time.Microsecond), row.Throughput, row.Speedup)
	}
	return fmt.Sprintf("== transport: batch-size sweep (Query IV generated, par=%d, min of %d interleaved reps) ==\n%s",
		r.Par, r.Reps, t.text())
}

// CSV renders the sweep as comma-separated records.
func (r *TransportSweepResult) CSV() string {
	t := newTable("figure,batch_size,wall_s,tuples_per_s,speedup")
	for _, row := range r.Rows {
		t.addf("transport,%d,%f,%f,%f", row.BatchSize, row.Wall.Seconds(), row.Throughput, row.Speedup)
	}
	return t.csv()
}
