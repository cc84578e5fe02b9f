package bench

import (
	"strings"
	"testing"
	"time"

	"datatrace/internal/metrics"
	"datatrace/internal/workload"
)

// smallConfig keeps harness tests fast.
func smallConfig() Config {
	y := workload.DefaultYahooConfig()
	y.EventsPerSecond = 150
	y.Seconds = 6
	y.Users = 50
	y.Campaigns = 10
	y.AdsPerCampaign = 5
	sh := workload.DefaultSmartHomeConfig()
	sh.Buildings = 2
	sh.UnitsPerBuilding = 2
	sh.PlugsPerUnit = 2
	sh.Seconds = 40
	return Config{
		Yahoo:      y,
		OpDelay:    time.Microsecond,
		SmartHome:  sh,
		MaxWorkers: 4,
		SourcePar:  2,
	}
}

func TestFigure4Harness(t *testing.T) {
	fig, err := Figure4(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 6 {
		t.Fatalf("got %d panels, want 6", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Series) != 2 {
			t.Fatalf("panel %q has %d series, want 2", p.Title, len(p.Series))
		}
		for _, s := range p.Series {
			if len(s.Points) != 4 {
				t.Fatalf("series %q has %d points, want 4", s.Label, len(s.Points))
			}
			for _, pt := range s.Points {
				if pt.Throughput <= 0 {
					t.Fatalf("non-positive throughput in %q at %d workers", s.Label, pt.Workers)
				}
			}
			// Throughput must be monotone non-decreasing in workers —
			// adding machines never hurts the simulated makespan.
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].Throughput+1e-9 < s.Points[i-1].Throughput {
					t.Fatalf("series %q throughput decreases at %d workers", s.Label, s.Points[i].Workers)
				}
			}
		}
	}
}

// mediumConfig is large enough for stable busy-time measurement (per-
// executor busy times in the milliseconds); the shape assertions below
// need that stability.
func mediumConfig() Config {
	cfg := smallConfig()
	cfg.Yahoo.EventsPerSecond = 1500
	cfg.Yahoo.Seconds = 12
	cfg.Yahoo.Users = 200
	cfg.OpDelay = 2 * time.Microsecond
	return cfg
}

// busyBound is the speedup at w workers that a run's per-instance busy
// times guarantee: list scheduling — the makespan model's LPT rule is one —
// finishes within total/w + (1-1/w)·longest (Graham), so the bound
// depends only on the longest executor's share of the total busy time,
// not on how fast the machine ran. 0 for an empty run.
func busyBound(st *metrics.Stats, w int) float64 {
	var total, longest time.Duration
	for _, is := range st.Instances() {
		total += is.Busy()
		longest = max(longest, is.Busy())
	}
	if total <= 0 {
		return 0
	}
	share := float64(longest) / float64(total)
	return 1 / (1/float64(w) + (1-1/float64(w))*share)
}

// checkScaling asserts the scaling property of one run from its
// per-instance busy times (Stats): the run's work is divisible enough
// that any list schedule on 4 workers is ≥ 1.5× faster than on one
// (busyBound), and the simulated makespan keeps that guarantee. A share
// of the run's own busy time does not move when the whole machine is
// loaded, so this holds where the measured speedup ratio was flaky;
// wall-clock ratios are dttbench -gate's, which interleaves and takes
// medians.
func checkScaling(t *testing.T, name string, s Series) {
	t.Helper()
	bound := busyBound(s.Stats, 4)
	t.Logf("%s: speedup at 4 workers %.2f, guaranteed by the busy times %.2f", name, s.SpeedupAt(4), bound)
	if bound < 1.5 {
		t.Errorf("%s: one executor holds too much of the busy time: guaranteed speedup at 4 workers = %.2f, want ≥ 1.5", name, bound)
	}
	if sp := s.SpeedupAt(4); sp < bound*(1-1e-9) {
		t.Errorf("%s: makespan speedup at 4 workers = %.2f, below the list-scheduling bound %.2f", name, sp, bound)
	}
}

func TestFigure4ScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling shape needs the medium workload")
	}
	// The compute-heavy parallelizable queries must actually scale:
	// ≥1.5× at 4 workers for both variants.
	fig, err := Figure4(mediumConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig.Panels {
		for _, s := range p.Series {
			checkScaling(t, p.Title+" / "+s.Label, s)
		}
	}
}

func TestFigure4GeneratedComparableToHandcrafted(t *testing.T) {
	if testing.Short() {
		t.Skip("the comparison needs the medium workload")
	}
	// The paper's headline: generated is comparable to handcrafted. Both
	// variants consume the same input, and the generated one parallelizes
	// as well: its busy time is no more concentrated in one executor than
	// the handcrafted variant's, so the speedup its busy times guarantee
	// at every worker count is at least half the handcrafted one's. The
	// absolute throughput ratio (generated moves typed batches on its hot
	// edges, handcrafted boxes per event) is EXPERIMENTS.md's to report.
	fig, err := Figure4(mediumConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig.Panels {
		gen, hand := p.Series[0], p.Series[1]
		if g, h := countItems(gen.Stats, "yahoo"), countItems(hand.Stats, "yahoo"); g != h || g == 0 {
			t.Errorf("%s: generated consumed %d items, handcrafted %d", p.Title, g, h)
		}
		for w := 2; w <= 4; w++ {
			if g, h := busyBound(gen.Stats, w), busyBound(hand.Stats, w); g < h/2 {
				t.Errorf("%s at %d workers: generated's guaranteed speedup %.2f, handcrafted's %.2f", p.Title, w, g, h)
			}
		}
	}
}

func TestFigure6Harness(t *testing.T) {
	fig, err := Figure6(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 1 || len(fig.Panels[0].Series) != 1 {
		t.Fatal("figure 6 must have one panel with one series")
	}
	checkScaling(t, "smart homes", fig.Panels[0].Series[0])
}

func TestSection2Experiment(t *testing.T) {
	res, err := Section2(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.NaiveEquivalent {
		t.Error("naive deployment unexpectedly preserved semantics")
	}
	if !res.TypedEquivalent {
		t.Error("typed deployment failed to preserve semantics")
	}
	if !res.TypeCheckRejectsNaive {
		t.Error("type checker failed to reject the sort-free pipeline")
	}
}

func TestTableAndCSVRendering(t *testing.T) {
	// The one renderer: right-aligned text, comma-joined CSV.
	tab := newTable("batch,wall,tuples/s")
	tab.addf("%d,%s,%.0f", 1, 1500*time.Microsecond, 8000.4)
	tab.addf("%d,%s,%.0f", 1024, 2*time.Millisecond, 123456.0)
	if got, want := tab.text(), "batch   wall  tuples/s\n    1  1.5ms      8000\n 1024    2ms    123456\n"; got != want {
		t.Errorf("text:\n%s\nwant:\n%s", got, want)
	}
	if got, want := tab.csv(), "batch,wall,tuples/s\n1,1.5ms,8000\n1024,2ms,123456\n"; got != want {
		t.Errorf("csv:\n%s\nwant:\n%s", got, want)
	}

	fig := &Figure{
		Name:    "demo",
		Caption: "c",
		Panels: []Panel{{
			Title: "P",
			Series: []Series{
				{Label: "a", Points: []Point{{1, 100}, {2, 190}}},
				{Label: "b", Points: []Point{{1, 110}, {2, 200}}},
			},
		}},
	}
	text := fig.Table()
	for _, want := range []string{"demo", "workers", "ratio", "100", "200"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table missing %q:\n%s", want, text)
		}
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "demo,\"P\",a,1,100.0") {
		t.Fatalf("csv malformed:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 5 {
		t.Fatalf("csv has %d lines, want 5", lines)
	}

	// EXPERIMENTS.md's tables are pasted from these: every kept figure's
	// CSV header is pinned byte for byte, and its table keeps its columns.
	for _, tc := range []struct {
		res interface {
			Table() string
			CSV() string
		}
		csvHeader, columns string
	}{
		{fig, "figure,panel,series,workers,throughput", "workers a b ratio"},
		{&RecoverySweepResult{Rows: make([]RecoveryRow, 1)},
			"figure,marker_period_s,blocks,base_wall_s,rec_wall_s,overhead_pct,crash_wall_s,recovery_cost_s,replayed,restarts",
			"period blocks base_wall rec_wall ovh_% crash_wall rec_cost replayed restarts"},
		{&TransportSweepResult{Rows: make([]TransportRow, 1)},
			"figure,batch_size,wall_s,tuples_per_s,speedup", "batch wall tuples/s speedup"},
		{&FusionSweepResult{Rows: make([]FusionRow, 1)},
			"figure,passes,fuse_chains,combiners,wall_s,tuples_per_s,speedup,combined_in,combined_out,compression",
			"passes wall tuples/s speedup combined_in combined_out compression"},
		{&RescaleSweepResult{Rows: make([]RescaleRow, 1)},
			"figure,config,par,wall_s,items_per_s,rescales,final_par", "config par wall items/s rescales final_par"},
	} {
		csvLines := strings.Split(tc.res.CSV(), "\n")
		if csvLines[0] != tc.csvHeader {
			t.Errorf("CSV header %q, want %q", csvLines[0], tc.csvHeader)
		}
		if n := strings.Count(csvLines[1], ",") + 1; n != strings.Count(tc.csvHeader, ",")+1 {
			t.Errorf("CSV row has %d fields under header %q", n, tc.csvHeader)
		}
		found := false
		for _, line := range strings.Split(tc.res.Table(), "\n") {
			found = found || strings.Join(strings.Fields(line), " ") == tc.columns
		}
		if !found {
			t.Errorf("table has no header line %q:\n%s", tc.columns, tc.res.Table())
		}
	}
}

func TestSpeedupAt(t *testing.T) {
	s := Series{Points: []Point{{1, 100}, {4, 300}}}
	if got := s.SpeedupAt(4); got != 3 {
		t.Fatalf("speedup = %v", got)
	}
	if got := (Series{}).SpeedupAt(4); got != 0 {
		t.Fatalf("empty series speedup = %v", got)
	}
}

func TestBackendComparisonHarness(t *testing.T) {
	fig, err := BackendComparison(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 1 || len(fig.Panels[0].Series) != 2 {
		t.Fatal("backend figure must have one panel with two series")
	}
	for _, s := range fig.Panels[0].Series {
		for _, p := range s.Points {
			if p.Throughput <= 0 {
				t.Fatalf("series %q has non-positive throughput", s.Label)
			}
		}
	}
}
