package compile_test

import (
	"testing"

	"datatrace/internal/compile"
	"datatrace/internal/iot"
	"datatrace/internal/queries"
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

// TestTypedMarkerOutputRule pins which KeyedUnordered bolts emit their
// marker output typed: the ones with a consumer that reads the kind
// typed, which in the registry is Query VI's Features alone (Cluster
// reads its (location, user vector) rows through a typed combiner).
// Queries II–V's counts, Query VI's Cluster and the IoT pipeline's
// MaxOfAvg feed a sink and stay boxed. A sink's readers box typed rows
// one by one — the default collector, and a plain Bolt tapping the
// stream — each of them again, where the boxed marker step boxes every
// row once for all of them; typing Query IV's Count would double the
// allocations per item of its benchmark runs.
func TestTypedMarkerOutputRule(t *testing.T) {
	env, err := queries.NewEnv(workload.DefaultYahooConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	typed := map[string]bool{}
	for _, def := range queries.All() {
		cols := def.ColSources(env, 2)
		src := compile.SourceSpec{Parallelism: 2, Cols: cols[0].ColKind(), Factory: func(i int) storm.Spout { return cols[i] }}
		_, plan, err := compile.CompileWithPlan(def.DAG(env, 2), map[string]compile.SourceSpec{"yahoo": src}, nil)
		if err != nil {
			t.Fatalf("query %s: %v", def.Name, err)
		}
		for _, b := range plan.Bolts {
			typed[def.Name+"/"+b.Name] = b.OutKind != nil
		}
	}
	spout := compile.SourceSpec{Parallelism: 1, Factory: func(int) storm.Spout { return storm.SliceSpout(nil) }}
	_, plan, err := compile.CompileWithPlan(iot.PipelineDAG(iot.SensorConfig{Sensors: 4, Seconds: 10}, 2), map[string]compile.SourceSpec{"hub": spout}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range plan.Bolts {
		typed["IoT/"+b.Name] = b.OutKind != nil
	}
	want := map[string]bool{
		"VI/Features":     true,
		"II/CountPerUser": false, "III/Summarize": false, "IV/Count(10 sec)": false,
		"V/Count(tumbling)": false, "VI/Cluster": false, "IoT/MaxOfAvg": false,
	}
	for bolt, w := range want {
		got, ok := typed[bolt]
		switch {
		case !ok:
			t.Errorf("no bolt %s in the plans", bolt)
		case got != w:
			t.Errorf("bolt %s emits typed marker output: %v, want %v", bolt, got, w)
		}
	}
}
