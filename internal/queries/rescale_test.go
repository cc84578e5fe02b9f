package queries

import (
	"testing"

	"datatrace/internal/compile"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// rescaleProbe builds (without running) the generated topology of a
// spec and returns the name of its first bolt component — the rescale
// target — plus every component name, for counter comparison.
func rescaleProbe(t *testing.T, def Def, spec Spec) (target string, components []string) {
	t.Helper()
	env := testEnv(t)
	top, err := build(env, spec, nil)
	if err != nil {
		t.Fatalf("probe build: %v", err)
	}
	for _, ci := range top.Components() {
		components = append(components, ci.Name)
		if ci.Kind == "bolt" && target == "" {
			target = ci.Name
		}
	}
	if target == "" {
		t.Fatal("no bolt component to rescale")
	}
	return target, components
}

// TestRescaleEquivalenceDifferential is the query-level differential
// proof of live rescaling: every generated query I–VI runs with
// mid-stream parallelism changes at scripted marker cuts — scale-out,
// scale-in, and out-then-in — at transport batch sizes 1 and 64, and
// each run must match a fixed-parallelism oracle both in its sink
// trace and in every component's executed item count (Executed −
// Cuts, which is parallelism-invariant), proving no event was lost,
// duplicated, or misrouted across the reconfiguration barriers. Both
// sides run with recovery on (the oracle must count cuts the same
// way) and combiners off (idle-interval combiner flushes make
// combined delivery counts timing-dependent, which would break the
// exact count comparison; combiner composition is covered by the
// storm-level rescale tests). A plan step whose cut never completes
// fails the run, so a passing run certifies every rescale fired.
// Run under -race (scripts/check.sh runs every suite so).
func TestRescaleEquivalenceDifferential(t *testing.T) {
	type scenario struct {
		name string
		par  int
		plan func(target string) *storm.RescalePlan
	}
	scenarios := []scenario{
		{"up", 2, func(c string) *storm.RescalePlan {
			return storm.NewRescalePlan().RescaleAt(c, 4, 3)
		}},
		{"down", 4, func(c string) *storm.RescalePlan {
			return storm.NewRescalePlan().RescaleAt(c, 1, 3)
		}},
		{"upThenDown", 2, func(c string) *storm.RescalePlan {
			return storm.NewRescalePlan().RescaleAt(c, 5, 2).RescaleAt(c, 1, 7)
		}},
	}
	for _, def := range All() {
		def := def
		t.Run("Query"+def.Name, func(t *testing.T) {
			env := testEnv(t)
			sinkType := def.SinkType(env)
			base := Spec{Query: def.Name, Variant: Generated, SourcePar: 2,
				Options: optionsFrom(nil, func(o *compile.Options) {
					o.Recovery, o.Combiners = &storm.RecoveryPolicy{Enabled: true}, false
				})}

			probeSpec := base
			probeSpec.Par = 2
			target, components := rescaleProbe(t, def, probeSpec)

			oracleSpec := base
			oracleSpec.Par = 2
			// Fresh env per run: Query II mutates the DB.
			oracleEnv := testEnv(t)
			oracle, err := Run(oracleEnv, oracleSpec)
			if err != nil {
				t.Fatalf("fixed-par oracle: %v", err)
			}

			for _, sc := range scenarios {
				for _, batch := range []int{1, 64} {
					spec := base
					spec.Par = sc.par
					spec.Options = optionsFrom(base.Options, func(o *compile.Options) {
						o.Transport, o.Rescale = &storm.TransportOptions{BatchSize: batch}, sc.plan(target)
					})
					runEnv := testEnv(t)
					res, err := Run(runEnv, spec)
					if err != nil {
						t.Fatalf("%s batch=%d: %v", sc.name, batch, err)
					}
					if !stream.Equivalent(sinkType, res.Sinks["sink"], oracle.Sinks["sink"]) {
						t.Fatalf("%s batch=%d: rescaled trace differs from fixed-par oracle (%d vs %d events)",
							sc.name, batch, len(res.Sinks["sink"]), len(oracle.Sinks["sink"]))
					}
					for _, name := range components {
						got, want := res.Stats.ComponentItems(name), oracle.Stats.ComponentItems(name)
						if got != want {
							t.Fatalf("%s batch=%d: component %s executed %d items, oracle %d",
								sc.name, batch, name, got, want)
						}
					}
				}
			}
		})
	}
}
