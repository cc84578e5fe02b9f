package iot

import (
	"strings"
	"testing"

	"datatrace/internal/core"
	"datatrace/internal/stream"
)

func TestStreamShape(t *testing.T) {
	cfg := DefaultSensorConfig()
	events := Stream(cfg)
	markers := 0
	lastTS := int64(-1)
	watermark := int64(0)
	for _, e := range events {
		if e.IsMarker {
			markers++
			watermark = e.Marker.Timestamp
			continue
		}
		_, v, err := ParseMeasurement(e.Value.(string))
		if err != nil {
			t.Fatal(err)
		}
		if v.TS < watermark {
			t.Fatalf("measurement at ts %d after watermark %d", v.TS, watermark)
		}
		if v.TS < lastTS {
			// The hub emits in globally increasing timestamp order in
			// this generator (sensors interleaved per second).
			t.Fatalf("timestamps not monotone: %d after %d", v.TS, lastTS)
		}
		lastTS = v.TS
	}
	if markers != cfg.Seconds/cfg.MarkerPeriod {
		t.Fatalf("markers = %d, want %d", markers, cfg.Seconds/cfg.MarkerPeriod)
	}
}

func TestParseMeasurement(t *testing.T) {
	id, v, err := ParseMeasurement("3,21.500,47")
	if err != nil || id != 3 || v.Scalar != 21.5 || v.TS != 47 {
		t.Fatalf("got %d %+v %v", id, v, err)
	}
	for _, bad := range []string{"", "1,2", "x,2.0,3", "1,x,3", "1,2.0,x"} {
		if _, _, err := ParseMeasurement(bad); err == nil {
			t.Fatalf("%q must fail to parse", bad)
		}
	}
}

func TestTypedPipelineTypeChecks(t *testing.T) {
	cfg := DefaultSensorConfig()
	if err := PipelineDAG(cfg, 2).Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSection2TypeCheckerRejectsNaivePipeline: the framework refuses
// the pipeline that feeds the unordered Map output into the
// order-requiring LI — the static counterpart of the runtime
// corruption RunNaive exhibits.
func TestSection2TypeCheckerRejectsNaivePipeline(t *testing.T) {
	err := IllTypedDAG(DefaultSensorConfig(), 2).Check()
	if err == nil {
		t.Fatal("ill-typed pipeline must be rejected")
	}
	if !strings.Contains(err.Error(), "expects input O(ID,V)") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestSection2NaiveDeploymentBreaksSemantics: the hand-parallelized
// deployment produces a different output trace than the
// specification.
func TestSection2NaiveDeploymentBreaksSemantics(t *testing.T) {
	cfg := DefaultSensorConfig()
	ref, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunNaive(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Equivalent(SinkType(), res.Sinks["sink"], ref["sink"]) {
		t.Fatal("naive parallelization unexpectedly preserved the output trace")
	}
	// The structural symptom: duplicated markers (each Map replica
	// forwards every marker) make the sink see more markers per block.
	refMarkers, naiveMarkers := 0, 0
	for _, e := range ref["sink"] {
		if e.IsMarker {
			refMarkers++
		}
	}
	for _, e := range res.Sinks["sink"] {
		if e.IsMarker {
			naiveMarkers++
		}
	}
	if naiveMarkers <= refMarkers {
		t.Fatalf("expected marker duplication: naive %d vs reference %d", naiveMarkers, refMarkers)
	}
}

// TestSection2TypedDeploymentPreservesSemantics: the same
// parallelization requested through the typed framework (with SORT
// making the reordering explicit) is equivalent to the specification
// at every parallelism.
func TestSection2TypedDeploymentPreservesSemantics(t *testing.T) {
	cfg := DefaultSensorConfig()
	ref, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		res, err := RunTyped(cfg, par)
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if !stream.Equivalent(SinkType(), res.Sinks["sink"], ref["sink"]) {
			t.Fatalf("par %d: typed deployment changed the output trace", par)
		}
	}
}

func TestMaxOfAvgSemantics(t *testing.T) {
	op := MaxOfAvgOp()
	inst := op.New()
	var out []stream.Event
	emit := func(e stream.Event) { out = append(out, e) }
	// Block 0: avg(10,20) = 15. Block 1: avg(4) = 4 (max stays 15).
	inst.Next(stream.Item(1, V{Scalar: 10, TS: 0}), emit)
	inst.Next(stream.Item(1, V{Scalar: 20, TS: 1}), emit)
	inst.Next(stream.Mark(stream.Marker{Seq: 0, Timestamp: 10}), emit)
	inst.Next(stream.Item(1, V{Scalar: 4, TS: 11}), emit)
	inst.Next(stream.Mark(stream.Marker{Seq: 1, Timestamp: 20}), emit)
	var vals []float64
	for _, e := range out {
		if !e.IsMarker {
			vals = append(vals, e.Value.(V).Scalar)
		}
	}
	if len(vals) != 2 || vals[0] != 15 || vals[1] != 15 {
		t.Fatalf("max-of-avg emissions = %v, want [15 15]", vals)
	}
}

func TestJFMFiltersNonWindowSensors(t *testing.T) {
	cfg := DefaultSensorConfig()
	ref, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ref["sink"] {
		if e.IsMarker {
			continue
		}
		if id := e.Key.(int); !cfg.nearWindow(id) {
			t.Fatalf("non-window sensor %d leaked through", id)
		}
	}
}

// TestSeqnumFixIsCorrectButSerial: the sequence-number practical fix
// recovers the specification's output exactly, at the cost of a
// mandatory serial re-sequencing stage.
func TestSeqnumFixIsCorrectButSerial(t *testing.T) {
	cfg := DefaultSensorConfig()
	ref, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		res, err := RunSeqnum(cfg, par)
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if !stream.Equivalent(SinkType(), res.Sinks["sink"], ref["sink"]) {
			t.Fatalf("par %d: seqnum pipeline output differs from the specification", par)
		}
	}
}

func TestResequencerReordersContiguously(t *testing.T) {
	var got []int
	r := newResequencer(func(e stream.Event, emit func(stream.Event)) {
		got = append(got, e.Value.(int))
	})
	emitNothing := func(stream.Event) {}
	feed := func(n int64, v int) {
		r.Next(stream.Item(stream.Unit{}, Sequenced{N: n, V: v}), emitNothing)
	}
	feed(2, 20)
	feed(0, 0)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("after 2,0: got %v", got)
	}
	feed(1, 10)
	if len(got) != 3 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("after 1: got %v", got)
	}
}

// TestLISnapshotIsRaw pins LI's state to a wire layout: a pointer or a
// slice in it would move every checkpoint of the pipeline to the gob
// fallback.
func TestLISnapshotIsRaw(t *testing.T) {
	if layout := core.SnapshotLayout(LIOp().New()); layout == "" || strings.Contains(layout, "gob") {
		t.Fatalf("LI snapshot layout %q, want raw columns", layout)
	}
}
