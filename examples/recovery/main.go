// Recovery: marker-aligned checkpointing, on both execution backends.
//
// Part 1 (micro-batch): the IoT pipeline runs for a few batches, a
// checkpoint is taken at a marker boundary (a consistent cut: every
// operator has processed exactly the same prefix of blocks), the
// engine is discarded ("crash"), a fresh engine is restored from the
// checkpoint, and the run resumes.
//
// Part 2 (storm runtime): the same pipeline is compiled with
// marker-cut recovery enabled and a FaultPlan injects a panic into a
// mid-pipeline bolt instance partway through the stream. The executor
// restarts from its last completed marker cut, restores its snapshot,
// and replays the in-flight block.
//
// Both recovered outputs are verified trace-equivalent to an
// uninterrupted run — failure and recovery do not change the
// computation's semantics.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"

	"datatrace/internal/compile"
	"datatrace/internal/iot"
	"datatrace/internal/microbatch"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

func main() {
	cfg := iot.DefaultSensorConfig()
	cfg.Seconds = 80
	inputs := map[string][]stream.Event{"hub": iot.Stream(cfg)}
	blocks := cfg.Seconds / cfg.MarkerPeriod

	full, err := microbatch.RunDAG(iot.PipelineDAG(cfg, 2), inputs, nil)
	if err != nil {
		log.Fatal(err)
	}

	cut := blocks / 2
	e1, err := microbatch.New(iot.PipelineDAG(cfg, 2), nil)
	if err != nil {
		log.Fatal(err)
	}
	first, err := e1.RunBatches(inputs, 0, cut)
	if err != nil {
		log.Fatal(err)
	}
	cp, err := e1.Checkpoint(cut)
	if err != nil {
		log.Fatal(err)
	}
	bytes := 0
	for _, parts := range cp.State {
		for _, b := range parts {
			bytes += len(b)
		}
	}
	fmt.Printf("processed %d/%d batches, checkpoint taken: %d operator partitions, %d bytes of state\n",
		cut, blocks, len(cp.State), bytes)

	// "Crash": e1 is abandoned. Restore a fresh engine and resume.
	e2, err := microbatch.Restore(iot.PipelineDAG(cfg, 2), cp, nil)
	if err != nil {
		log.Fatal(err)
	}
	rest, err := e2.RunBatches(inputs, cp.Batch, -1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored and resumed: %d more batches\n", rest.Batches)

	combined := append(append([]stream.Event(nil), first.Sinks["sink"]...), rest.Sinks["sink"]...)
	equal := stream.Equivalent(iot.SinkType(), combined, full.Sinks["sink"])
	fmt.Println("resumed output ≡ uninterrupted run:", equal)
	if !equal {
		log.Fatal("recovery changed the semantics")
	}

	// Part 2: the storm runtime recovers in place from an injected
	// crash. Compile the pipeline with recovery enabled, then crash a
	// mid-pipeline bolt instance at its 40th input event.
	events := inputs["hub"]
	opts := compile.Defaults()
	opts.Recovery = &storm.RecoveryPolicy{Enabled: true, Logf: log.Printf}
	build := func() (*storm.Topology, error) {
		return compile.Compile(iot.PipelineDAG(cfg, 2), map[string]compile.SourceSpec{
			"hub": {Parallelism: 1, Factory: func(int) storm.Spout { return storm.SliceSpout(events) }},
		}, opts)
	}
	top, err := build()
	if err != nil {
		log.Fatal(err)
	}
	victim := ""
	for _, c := range top.Components() {
		if c.Kind == "bolt" {
			victim = c.Name
			break
		}
	}
	top.SetFaultPlan(storm.NewFaultPlan().CrashAt(victim, 0, 40))
	res, err := top.Run()
	if err != nil {
		log.Fatal(err)
	}
	restarts, replayed, dropped := res.Stats.Recovery()
	fmt.Printf("storm runtime: crashed %s[0] at event 40; %d restart(s), %d event(s) replayed, %d dropped\n",
		victim, restarts, replayed, dropped)

	equal = stream.Equivalent(iot.SinkType(), res.Sinks["sink"], full.Sinks["sink"])
	fmt.Println("recovered storm output ≡ uninterrupted run:", equal)
	if !equal {
		log.Fatal("storm recovery changed the semantics")
	}
}
