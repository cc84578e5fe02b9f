package compile_test

import (
	"testing"

	"datatrace/internal/compile"
	"datatrace/internal/iot"
	"datatrace/internal/smarthome"
	"datatrace/internal/storm"
	"datatrace/internal/workload"
)

// columnar reports whether plan lists from→to as a typed edge.
func columnar(plan *compile.Plan, from, to string) bool {
	for _, e := range plan.ColumnarEdges {
		if e.From == from && e.To == to && e.Columnar {
			return true
		}
	}
	for _, e := range plan.CombinedEdges {
		if e.From == from && e.To == to && e.Columnar {
			return true
		}
	}
	return false
}

// TestOrderedPlansAreColumnar checks that the pipelines on O(K,V)
// types move typed batches on every inter-operator data edge: the
// Smart Homes plan's JFM→LI, LI→Map, Map→AVG and AVG→Predict (each
// SORT fused into its consumer) and the IoT plan's JFM→LI and
// LI→MaxOfAvg. Their hubs are boxed sources, so the edges out of the
// hub are not typed in the plan.
func TestOrderedPlansAreColumnar(t *testing.T) {
	env, err := smarthome.NewEnv(workload.DefaultSmartHomeConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	spout := compile.SourceSpec{Parallelism: 1, Factory: func(int) storm.Spout { return storm.SliceSpout(nil) }}
	_, plan, err := compile.CompileWithPlan(smarthome.PipelineDAG(env, 2), map[string]compile.SourceSpec{"hub": spout}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]string{{"JFM", "LI"}, {"LI", "Map"}, {"Map", "AVG"}, {"AVG", "Predict"}} {
		if !columnar(plan, e[0], e[1]) {
			t.Errorf("Smart Homes edge %s→%s is not columnar, plan:\n%s", e[0], e[1], plan)
		}
	}

	_, plan, err = compile.CompileWithPlan(iot.PipelineDAG(iot.SensorConfig{Sensors: 4, Seconds: 10}, 2), map[string]compile.SourceSpec{"hub": spout}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]string{{"JFM", "LI"}, {"LI", "MaxOfAvg"}} {
		if !columnar(plan, e[0], e[1]) {
			t.Errorf("IoT edge %s→%s is not columnar, plan:\n%s", e[0], e[1], plan)
		}
	}
}
