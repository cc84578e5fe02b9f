package queries

import (
	"math/rand"
	"testing"

	"datatrace/internal/compile"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// permuteWithinBlocks shuffles the items inside each marker-delimited
// block, leaving every marker in place. For an unordered source type
// U(K,V) — all six queries' sources, including Query II's user-keyed
// one — this is exactly the set of reorderings that preserve the
// input's data trace (items of one block form a bag; markers are
// linearly ordered), so it is the dependence relation's full orbit: a
// consistent query must produce an equivalent output on any of them.
func permuteWithinBlocks(events []stream.Event, r *rand.Rand) []stream.Event {
	out := append([]stream.Event(nil), events...)
	start := 0
	for i := 0; i <= len(out); i++ {
		if i < len(out) && !out[i].IsMarker {
			continue
		}
		block := out[start:i]
		r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		start = i + 1
	}
	return out
}

// TestConformanceDifferentialQueries is the differential conformance
// battery: for every query I–VI, the generated topology and the
// handcrafted topology are run on randomized dependence-respecting
// permutations of the partitioned input at parallelism 1, 2 and 4,
// and each output must be trace-equivalent to the reference
// denotation computed on the unpermuted input. This simultaneously
// exercises (a) consistency — permuted inputs denote the same trace,
// so outputs must agree — and (b) semantics preservation of both
// implementations on the concurrent runtime (run it under -race).
func TestConformanceDifferentialQueries(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, def := range All() {
		def := def
		t.Run("Query"+def.Name, func(t *testing.T) {
			env := testEnv(t)
			ref, err := def.Reference(env)
			if err != nil {
				t.Fatal(err)
			}
			sinkType := def.SinkType(env)

			// Materialize the partitioned source once; every run below
			// permutes a fresh copy.
			srcEnv := testEnv(t)
			parts := def.Sources(srcEnv, 2)
			base := make([][]stream.Event, len(parts))
			for i, it := range parts {
				base[i] = workload.Collect(it)
			}

			for _, par := range []int{1, 2, 4} {
				for _, variant := range []Variant{Generated, Handcrafted} {
					perm := make([][]stream.Event, len(base))
					for i := range base {
						perm[i] = permuteWithinBlocks(base[i], r)
					}
					// Fresh env per run: Query II mutates the DB.
					runEnv := testEnv(t)
					res, err := RunOn(runEnv, Spec{Query: def.Name, Variant: variant, Par: par}, perm)
					if err != nil {
						t.Fatalf("par=%d %s: %v", par, variant, err)
					}
					if !stream.Equivalent(sinkType, res.Sinks["sink"], ref["sink"]) {
						t.Fatalf("par=%d %s: permuted input produced a different output trace (%d vs %d events)",
							par, variant, len(res.Sinks["sink"]), len(ref["sink"]))
					}
				}
			}
		})
	}
}

// TestTransportEquivalenceDifferential proves the batched edge
// transport semantics-preserving at the query level: every generated
// topology I–VI runs at batch sizes {1, 4, 64, 1024} × parallelism
// {1, 2, 4} on the same partitioned input, and each sink output must
// be equal as a data trace to the BatchSize-1 run of the same
// parallelism — the unbatched transport is the oracle. Run under
// -race (scripts/check.sh runs every suite so) so flush interleavings
// are exercised under real executor concurrency.
func TestTransportEquivalenceDifferential(t *testing.T) {
	for _, def := range All() {
		def := def
		t.Run("Query"+def.Name, func(t *testing.T) {
			env := testEnv(t)
			sinkType := def.SinkType(env)
			srcEnv := testEnv(t)
			parts := def.Sources(srcEnv, 2)
			base := make([][]stream.Event, len(parts))
			for i, it := range parts {
				base[i] = workload.Collect(it)
			}
			run := func(par, batch int) []stream.Event {
				t.Helper()
				in := make([][]stream.Event, len(base))
				for i := range base {
					in[i] = append([]stream.Event(nil), base[i]...)
				}
				// Fresh env per run: Query II mutates the DB.
				runEnv := testEnv(t)
				res, err := RunOn(runEnv, Spec{
					Query: def.Name, Variant: Generated, Par: par,
					Options: optionsFrom(nil, func(o *compile.Options) { o.Transport = &storm.TransportOptions{BatchSize: batch} }),
				}, in)
				if err != nil {
					t.Fatalf("par=%d batch=%d: %v", par, batch, err)
				}
				return res.Sinks["sink"]
			}
			for _, par := range []int{1, 2, 4} {
				baseline := run(par, 1)
				for _, batch := range []int{4, 64, 1024} {
					out := run(par, batch)
					if !stream.Equivalent(sinkType, out, baseline) {
						t.Fatalf("par=%d batch=%d: batched output is not trace-equivalent to the BatchSize-1 run (%d vs %d events)",
							par, batch, len(out), len(baseline))
					}
				}
			}
		})
	}
}

// TestPermuteWithinBlocksRespectsDependence pins the permutation
// helper itself: markers keep their positions, each block keeps its
// item multiset, and the permuted sequence stays trace-equivalent to
// the original under the source's unordered type.
func TestPermuteWithinBlocksRespectsDependence(t *testing.T) {
	env := testEnv(t)
	def, _ := ByName("I")
	in := def.ReferenceInput(env)
	r := rand.New(rand.NewSource(99))
	perm := permuteWithinBlocks(in, r)
	if len(perm) != len(in) {
		t.Fatalf("permutation changed length: %d vs %d", len(perm), len(in))
	}
	for i, e := range in {
		if e.IsMarker != perm[i].IsMarker {
			t.Fatalf("marker moved at position %d", i)
		}
		if e.IsMarker && e.Marker != perm[i].Marker {
			t.Fatalf("marker changed at position %d", i)
		}
	}
	srcType := stream.U("Ut", "YItem")
	if !stream.Equivalent(srcType, in, perm) {
		t.Fatal("permuted input is not trace-equivalent to the original")
	}
	changed := false
	for i := range in {
		if in[i] != perm[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("permutation was the identity; seed must actually shuffle")
	}
}
