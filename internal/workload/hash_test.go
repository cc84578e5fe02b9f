package workload

import (
	"fmt"
	"hash/fnv"
	"testing"

	"datatrace/internal/db"
	"datatrace/internal/stream"
)

// This file checks the load-balance premise behind the compiler's
// fields grouping and combiner placement: stream.DefaultHash must
// spread the key populations the evaluation workloads actually route
// on — Yahoo campaign ids and Smart Homes house keys — roughly evenly
// across instances. A pathological hash would silently serialize a
// "parallel" keyed stage (and starve the per-destination combining
// buffers), so the bound is pinned here: at parallelism 2, 4 and 8 no
// instance may receive more than 2× its fair share of distinct keys.

// assertBalanced hashes every key at several parallelisms and fails
// if any instance holds more than twice the fair share.
func assertBalanced(t *testing.T, population string, keys []any) {
	t.Helper()
	for _, par := range []int{2, 4, 8} {
		counts := make([]int, par)
		for _, k := range keys {
			counts[stream.DefaultHash(k)%par]++
		}
		fair := float64(len(keys)) / float64(par)
		for inst, c := range counts {
			if float64(c) > 2*fair {
				t.Errorf("%s: par=%d instance %d got %d of %d keys (fair share %.1f, limit %.1f); distribution %v",
					population, par, inst, c, len(keys), fair, 2*fair, counts)
			}
		}
	}
}

// TestDefaultHashBalancedOnWorkloadKeys runs the balance check over
// both benchmark key populations at their default sizes.
func TestDefaultHashBalancedOnWorkloadKeys(t *testing.T) {
	y, err := NewYahoo(DefaultYahooConfig())
	if err != nil {
		t.Fatal(err)
	}
	campaigns := make([]any, 0, 100)
	for ad := int64(0); ad < int64(y.Ads()); ad++ {
		cid := y.CampaignOf(ad)
		if len(campaigns) == 0 || campaigns[len(campaigns)-1] != any(cid) {
			campaigns = append(campaigns, cid)
		}
	}
	assertBalanced(t, "yahoo campaign ids", campaigns)

	// A wider campaign population than the benchmark default, so the
	// bound is not an artifact of the small id range.
	wide := make([]any, 0, 1000)
	for cid := int64(0); cid < 1000; cid++ {
		wide = append(wide, cid)
	}
	assertBalanced(t, "yahoo campaign ids (wide)", wide)

	sh, err := NewSmartHome(DefaultSmartHomeConfig())
	if err != nil {
		t.Fatal(err)
	}
	houses := map[PlugKey]bool{}
	plugs := make([]any, 0, len(sh.Plugs()))
	for _, k := range sh.Plugs() {
		plugs = append(plugs, k)
		houses[PlugKey{Building: k.Building, Unit: k.Unit}] = true
	}
	assertBalanced(t, "smart homes plug keys", plugs)

	houseKeys := make([]any, 0, len(houses))
	for h := range houses {
		houseKeys = append(houseKeys, h)
	}
	assertBalanced(t, "smart homes house keys", houseKeys)
}

// fmtHash is DefaultHash's formula as fmt states it: FNV-1a over the
// key as fmt.Fprint renders it.
func fmtHash(key any) int {
	h := fnv.New32a()
	fmt.Fprint(h, key)
	return int(h.Sum32() & 0x7fffffff)
}

// TestDefaultHashPinnedToFmtRendering pins the key hash to its
// fmt-rendering formula over every plug key SetupDB loads and over a
// struct without methods: rescale owner maps and Fields routing depend
// on these values, so computing them without fmt (the plug key renders
// through AppendText) must not move one. The typed hash of a batch
// agrees row by row and allocates nothing.
func TestDefaultHashPinnedToFmtRendering(t *testing.T) {
	cfg := DefaultSmartHomeConfig()
	cfg.Buildings, cfg.UnitsPerBuilding, cfg.PlugsPerUnit = 12, 11, 13
	sh, err := NewSmartHome(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := db.New()
	if err := sh.SetupDB(d); err != nil {
		t.Fatal(err)
	}
	batch := stream.ColKindFor[PlugKey, int]().Get().(*stream.Cols[PlugKey, int])
	defer batch.Release()
	n := 0
	d.MustTable("plugs").Scan(func(row db.Row) bool {
		n++
		var k PlugKey
		if _, err := fmt.Sscanf(row[0].(string), "%d/%d/%d", &k.Building, &k.Unit, &k.Plug); err != nil {
			t.Fatal(err)
		}
		if got, want := stream.DefaultHash(k), fmtHash(k); got != want {
			t.Fatalf("plug %v: DefaultHash %d, fmt formula %d", k, got, want)
		}
		batch.Append(k, 0)
		return true
	})
	if n != len(sh.Plugs()) {
		t.Fatalf("plugs table has %d rows, generator %d plugs", n, len(sh.Plugs()))
	}
	hashes := batch.Hashes(nil)
	for i, k := range batch.Keys {
		if hashes[i] != fmtHash(k) || batch.HashAt(i) != hashes[i] {
			t.Fatalf("row %d (%v): typed hash %d / %d, fmt formula %d", i, k, hashes[i], batch.HashAt(i), fmtHash(k))
		}
	}

	type bare struct {
		A int
		B string
		C [2]float64
	}
	for _, k := range []bare{{}, {1, "x", [2]float64{0.5, -2}}, {-7, "a b", [2]float64{1e300, 3}}} {
		if got, want := stream.DefaultHash(k), fmtHash(k); got != want {
			t.Fatalf("%+v: DefaultHash %d, fmt formula %d", k, got, want)
		}
		typed := stream.ColKindFor[bare, int]().Get().(*stream.Cols[bare, int])
		typed.Append(k, 0)
		if got := typed.HashAt(0); got != fmtHash(k) {
			t.Fatalf("%+v: typed hash %d, fmt formula %d", k, got, fmtHash(k))
		}
		typed.Release()
	}

	dst := make([]int, 0, batch.Len())
	if a := testing.AllocsPerRun(20, func() { dst = batch.Hashes(dst[:0]) }); a != 0 {
		t.Errorf("hashing a batch of %d plug keys allocates %.1f times", batch.Len(), a)
	}
}
