package storm

import (
	"strings"
	"testing"

	"datatrace/internal/stream"
)

func noopSpout(int) Spout { return SliceSpout(nil) }

func TestValidateRejectsCycle(t *testing.T) {
	top := NewTopology("cyclic")
	top.AddSpout("src", 1, noopSpout)
	top.AddBolt("a", 1, identityBolt).ShuffleGrouping("src", true).ShuffleGrouping("b", true)
	top.AddBolt("b", 1, identityBolt).ShuffleGrouping("a", true)
	_, err := top.Run()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestValidateRejectsSpoutWithInputs(t *testing.T) {
	top := NewTopology("bad-spout")
	top.AddSpout("src", 1, noopSpout)
	top.AddSpout("src2", 1, noopSpout)
	// Spouts expose no fluent input API, so a subscribing spout can
	// only arise from in-package construction; validate still guards it.
	top.components["src2"].inputs = []connection{{from: "src", aligned: true}}
	_, err := top.Run()
	if err == nil || !strings.Contains(err.Error(), "cannot have inputs") {
		t.Fatalf("want spout-with-inputs error, got %v", err)
	}
}

func TestValidateRejectsBoltWithoutInputs(t *testing.T) {
	top := NewTopology("orphan")
	top.AddSpout("src", 1, noopSpout)
	top.AddBolt("island", 1, identityBolt)
	_, err := top.Run()
	if err == nil || !strings.Contains(err.Error(), "no inputs") {
		t.Fatalf("want bolt-without-inputs error, got %v", err)
	}
}

func TestValidateRejectsUnknownSource(t *testing.T) {
	top := NewTopology("dangling")
	top.AddSpout("src", 1, noopSpout)
	top.AddBolt("b", 1, identityBolt).ShuffleGrouping("nope", true)
	_, err := top.Run()
	if err == nil || !strings.Contains(err.Error(), "unknown component") {
		t.Fatalf("want unknown-component error, got %v", err)
	}
}

func TestValidateRejectsSubscribeToSink(t *testing.T) {
	top := NewTopology("sink-sub")
	top.AddSpout("src", 1, noopSpout)
	top.AddBolt("b", 1, identityBolt).ShuffleGrouping("src", true)
	top.AddSink("out", "b")
	top.AddBolt("after", 1, identityBolt).ShuffleGrouping("out", true)
	_, err := top.Run()
	if err == nil || !strings.Contains(err.Error(), "subscribes to sink") {
		t.Fatalf("want subscribe-to-sink error, got %v", err)
	}
}

func TestValidateRejectsMixedAlignedAndRawInputs(t *testing.T) {
	top := NewTopology("mixed")
	top.AddSpout("src", 1, noopSpout)
	top.AddSpout("src2", 1, noopSpout)
	top.AddBolt("b", 1, identityBolt).ShuffleGrouping("src", true).ShuffleGrouping("src2", false)
	_, err := top.Run()
	if err == nil || !strings.Contains(err.Error(), "mixes aligned and raw") {
		t.Fatalf("want mixed-inputs error, got %v", err)
	}
}

// A sink borrows its block's batches from the aligned merger until the
// cut is delivered, so raw sink inputs are rejected.
func TestValidateRejectsRawSinkInputs(t *testing.T) {
	top := NewTopology("raw-sink")
	top.AddSpout("src", 1, noopSpout)
	top.AddSink("out")
	top.Decl("out").ShuffleGrouping("src", false)
	_, err := top.Run()
	if err == nil || !strings.Contains(err.Error(), "raw inputs") {
		t.Fatalf("want raw-sink error, got %v", err)
	}
}

func TestDeclPanicsOnUnknownBolt(t *testing.T) {
	top := NewTopology("decl")
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Decl of an unknown component must panic")
		}
	}()
	top.Decl("ghost")
}

func TestDeclPanicsOnSpout(t *testing.T) {
	top := NewTopology("decl-spout")
	top.AddSpout("src", 1, noopSpout)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Decl of a spout must panic")
		}
	}()
	top.Decl("src")
}

func TestComponentsListsDeclarationOrderAndKinds(t *testing.T) {
	top := NewTopology("info")
	top.AddSpout("src", 2, noopSpout)
	top.AddBolt("mid", 3, identityBolt).ShuffleGrouping("src", true)
	top.AddSink("out", "mid")
	got := top.Components()
	want := []ComponentInfo{
		{Name: "src", Parallelism: 2, Kind: "spout"},
		{Name: "mid", Parallelism: 3, Kind: "bolt"},
		{Name: "out", Parallelism: 1, Kind: "sink"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d components, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("component %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSinkCollectsAlignedTrace(t *testing.T) {
	in := testStream(2, 4, 2)
	top := NewTopology("sink-align")
	top.AddSpout("src", 1, func(int) Spout { return SliceSpout(in) })
	top.AddBolt("id", 2, identityBolt).ShuffleGrouping("src", true)
	top.AddSink("sink", "id")
	res, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equivalent(stream.U("Int", "Int"), res.Sinks["sink"], in) {
		t.Fatal("sink trace not equivalent to the input")
	}
}
