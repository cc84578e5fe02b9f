package queries

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"datatrace/internal/compile"
	"datatrace/internal/metrics"
	"datatrace/internal/storm"
)

// TestOneDeclarationPerKnob pins compile.Options as the one declaration
// of every deployment knob: each field set through a Spec reaches the
// topology of the Generated variant, each runtime knob reaches the
// Handcrafted one, and each serialisable knob crosses a NetSpec payload
// intact.
func TestOneDeclarationPerKnob(t *testing.T) {
	recovery := storm.RecoveryPolicy{Enabled: true, MaxRestarts: 3, OnUnrecoverable: storm.DropAndLog}
	transport := storm.TransportOptions{BatchSize: 5, FlushInterval: 3 * time.Millisecond}
	obs := metrics.ObsConfig{Enabled: true, SampleEvery: 7, SpanRing: 9}
	faults := storm.NewFaultPlan().CrashAt("Count(10 sec)", 0, 1)
	rescale := storm.NewRescalePlan().RescaleAt("Count(10 sec)", 3, 1)
	autoscale := &storm.AutoscalePolicy{Component: "Count(10 sec)", Min: 1, Max: 4}
	topology := func(t *testing.T, variant Variant, set func(*compile.Options)) *storm.Topology {
		t.Helper()
		top, err := build(testEnv(t), Spec{Query: "IV", Variant: variant, Par: 2, Options: optionsFrom(nil, set)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return top
	}

	// Runtime knobs, on both variants. storm.Topology keeps them in
	// unexported fields with no getters, so the check reads the field
	// the setter writes.
	runtime := []struct {
		field string
		set   func(*compile.Options)
		want  any
	}{
		{"recovery", func(o *compile.Options) { o.Recovery = &recovery }, recovery},
		{"faultPlan", func(o *compile.Options) { o.FaultPlan = faults }, faults},
		{"rescalePlan", func(o *compile.Options) { o.Rescale = rescale }, rescale},
		{"autoscale", func(o *compile.Options) { o.Autoscale = autoscale }, autoscale},
		{"transport", func(o *compile.Options) { o.Transport = &transport }, transport},
		{"obs", func(o *compile.Options) { o.Observability = &obs }, obs},
		{"workers", func(o *compile.Options) { o.Workers = 3 }, 3},
	}
	for _, variant := range []Variant{Generated, Handcrafted} {
		for _, k := range runtime {
			for _, on := range []bool{false, true} {
				top := topology(t, variant, func(o *compile.Options) {
					if on {
						k.set(o)
					}
				})
				field := reflect.ValueOf(top).Elem().FieldByName(k.field)
				if !field.IsValid() {
					t.Fatalf("storm.Topology has no field %q", k.field)
				}
				got := reflect.NewAt(field.Type(), unsafe.Pointer(field.UnsafeAddr())).Elem().Interface()
				if reached := reflect.DeepEqual(got, k.want); reached != on {
					t.Errorf("%s %s set=%v: topology holds %+v, knob is %+v", variant, k.field, on, got, k.want)
				}
			}
		}
	}

	// Optimization passes, on the Generated variant (the Handcrafted one
	// has none). No registered query has a SORT vertex, so FuseSort has
	// nothing to act on here; compile's TestSortFusionRemovesComponent
	// covers it.
	for _, def := range All() {
		for _, n := range def.DAG(testEnv(t), 1).Nodes() {
			if s, ok := n.Op.(interface{ IsSort() bool }); ok && s.IsSort() {
				t.Fatalf("query %s has a SORT vertex: observe FuseSort here", def.Name)
			}
		}
	}
	passes := []struct {
		name    string
		off     func(*compile.Options)
		observe func(*testing.T, *storm.Topology) string
	}{
		{"FuseChains", func(o *compile.Options) { o.FuseChains = false },
			func(_ *testing.T, top *storm.Topology) string { return top.String() }},
		{"Combiners", func(o *compile.Options) { o.Combiners = false },
			func(t *testing.T, top *storm.Topology) string {
				res, err := top.Run()
				if err != nil {
					t.Fatal(err)
				}
				in, _ := res.Stats.Combined()
				return fmt.Sprint("combined items: ", in)
			}},
	}
	for _, p := range passes {
		on := p.observe(t, topology(t, Generated, func(*compile.Options) {}))
		if off := p.observe(t, topology(t, Generated, p.off)); on == off {
			t.Errorf("%s: the topology is the same with the pass on and off:\n%s", p.name, on)
		}
	}

	// Every serialisable knob crosses a worker payload intact, at values
	// other than the defaults; the recovery log stays behind.
	logged := recovery
	logged.Logf = t.Logf
	ns := NetSpec{Spec: Spec{Query: "IV", Variant: Generated, Par: 2, SourcePar: 2, Options: &compile.Options{
		FuseSort: false, FuseChains: true, Combiners: false, Workers: 3,
		Recovery: &logged, Transport: &transport, Observability: &obs,
	}}, Cfg: netTestCfg(), OpDelay: time.Millisecond}
	payload, err := ns.Payload()
	if err != nil {
		t.Fatal(err)
	}
	var got NetSpec
	if err := json.Unmarshal([]byte(payload), &got); err != nil {
		t.Fatal(err)
	}
	want := ns
	want.Options = optionsFrom(ns.Options, func(o *compile.Options) { o.Recovery = &recovery })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("payload round trip:\n got %+v\nwant %+v", *got.Options, *want.Options)
	}
}

// TestNetSpecRejectsCoordinatorOnlyKnobs: a fault plan, rescale plan or
// autoscaler acts in the process that runs the topology, so a worker
// payload cannot carry one; Payload and RunNetworked name the field
// instead of running without it.
func TestNetSpecRejectsCoordinatorOnlyKnobs(t *testing.T) {
	for _, k := range []struct {
		field string
		set   func(*compile.Options)
	}{
		{"FaultPlan", func(o *compile.Options) { o.FaultPlan = storm.NewFaultPlan().CrashAt("Count(10 sec)", 0, 1) }},
		{"Rescale", func(o *compile.Options) { o.Rescale = storm.NewRescalePlan().RescaleAt("Count(10 sec)", 3, 1) }},
		{"Autoscale", func(o *compile.Options) {
			o.Autoscale = &storm.AutoscalePolicy{Component: "Count(10 sec)", Min: 1, Max: 4}
		}},
	} {
		ns := NetSpec{Spec: Spec{Query: "IV", Variant: Generated, Par: 2, Options: optionsFrom(nil, k.set)}, Cfg: netTestCfg()}
		_, err := ns.Payload()
		var coord *CoordinatorOnlyError
		if !errors.As(err, &coord) || coord.Field != k.field {
			t.Fatalf("Payload with %s: got %v, want a CoordinatorOnlyError naming it", k.field, err)
		}
		// RunNetworked checks before it spawns a worker.
		if _, err := RunNetworked(ns, nil); !errors.As(err, &coord) || coord.Field != k.field {
			t.Fatalf("RunNetworked with %s: got %v, want a CoordinatorOnlyError naming it", k.field, err)
		}
	}
}
