package queries

import (
	"fmt"
	"testing"

	"datatrace/internal/compile"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// TestChaosColumnarRecoveryMidBatch crashes generated Query IV — typed
// batches on every hot edge, marker-cut recovery on — at the points
// where batch-granular replay could go wrong: an injected fault on the
// first row of a batch, in its middle and on its last row (the batch is
// then re-queued whole, exactly once), on a marker, at a cut's flush
// (CorruptEdge fires while the block's typed output is staged, before
// anything is appended), and again during the replay that follows (the
// corruption armed twice re-fires inside the replayed block's flush).
// Each run's sink trace must equal the fault-free run's, with at least
// one restart and a non-empty replay. stream.Cols panics on a second
// Release, so a batch released twice fails the run. Run under -race
// (scripts/check.sh runs every suite so).
//
// One source partition makes the target's input deterministic: at
// parallelism p, Project[0] receives rows = 120/p items per block in
// batches of at most `batch` rows, then the marker, so event indices
// below name exact rows.
func TestChaosColumnarRecoveryMidBatch(t *testing.T) {
	def, err := ByName("IV")
	if err != nil {
		t.Fatal(err)
	}
	const perBlock = 120 // testEnv: 120 events per marker period
	for _, par := range []int{1, 2, 4} {
		for _, batch := range []int{1, 64} {
			spec := Spec{Query: "IV", Variant: Generated, Par: par, SourcePar: 1,
				Options: optionsFrom(nil, func(o *compile.Options) {
					o.Recovery, o.Transport = &storm.RecoveryPolicy{Enabled: true}, &storm.TransportOptions{BatchSize: batch}
				})}
			run := func(plan *storm.FaultPlan) *storm.Result {
				t.Helper()
				env := testEnv(t)
				top, err := build(env, spec, nil)
				if err != nil {
					t.Fatal(err)
				}
				top.SetFaultPlan(plan)
				res, err := top.Run()
				if err != nil {
					t.Fatalf("par=%d batch=%d: %v", par, batch, err)
				}
				return res
			}
			sinkType := def.SinkType(testEnv(t))
			ref := run(nil).Sinks["sink"]

			rows := perBlock / par // rows per block at Project[0]
			block := rows + 1      // events per block, marker included
			first := min(rows, batch)
			crashAt := func(n int) *storm.FaultPlan {
				return storm.NewFaultPlan().CrashAt("Project", 0, int64(n))
			}
			corrupt := func(times int) *storm.FaultPlan {
				return storm.NewFaultPlan().Add(storm.Fault{Kind: storm.CorruptFault,
					Component: "Project", Instance: 0, To: "Count(10 sec)", AtEvent: 5, Times: times})
			}
			cases := []struct {
				name string
				plan *storm.FaultPlan
				// restarts is the exact restart count expected of the
				// target, 0 for "at least one".
				restarts int64
			}{
				{"first row of a batch", crashAt(2*block + 1), 1},
				{"inside a batch", crashAt(2*block + 1 + first/2), 1},
				{"last row of a batch", crashAt(2*block + first), 1},
				{"on a marker", crashAt(3 * block), 1},
				{"twice in one batch", storm.NewFaultPlan().CrashTimes("Project", 0, int64(block+1), 2), 2},
				{"at the cut flush", corrupt(1), 1},
				{"during replay", corrupt(2), 2},
				{"Count mid-block", storm.NewFaultPlan().CrashAt("Count(10 sec)", 0, 3), 0},
			}
			for _, tc := range cases {
				t.Run(fmt.Sprintf("par%d/batch%d/%s", par, batch, tc.name), func(t *testing.T) {
					res := run(tc.plan)
					if !stream.Equivalent(sinkType, res.Sinks["sink"], ref) {
						t.Fatalf("recovered trace differs from the fault-free run (%d vs %d events)",
							len(res.Sinks["sink"]), len(ref))
					}
					restarts, replayed, dropped := res.Stats.Recovery()
					if restarts < 1 || tc.restarts != 0 && restarts != tc.restarts {
						t.Fatalf("restarts = %d, want %d (0 = at least one)", restarts, tc.restarts)
					}
					if replayed == 0 || dropped != 0 {
						t.Fatalf("replayed = %d dropped = %d, want a non-empty replay and no drops", replayed, dropped)
					}
				})
			}
		}
	}
}
