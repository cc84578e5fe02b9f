package bench

import (
	"strings"
	"testing"
	"time"
)

// The gates must be able to fail: each rule is fed synthetic rows on
// both sides of its threshold. No wall-clock assertion lives here — the
// timing rules run on real measurements only in `dttbench -gate`.

func TestTransportRule(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name string
		rows []TransportRow
		pass bool
		want string
	}{
		{"batched faster", []TransportRow{{BatchSize: 1, Wall: 90 * ms}, {BatchSize: 64, Wall: 30 * ms}}, true, "ratio 3.00"},
		{"batched slower", []TransportRow{{BatchSize: 1, Wall: 30 * ms}, {BatchSize: 64, Wall: 31 * ms}}, false, "ratio 0.97"},
		{"parity", []TransportRow{{BatchSize: 1, Wall: 30 * ms}, {BatchSize: 64, Wall: 30 * ms}}, false, "ratio 1.00"},
		{"faster, under the floor", []TransportRow{{BatchSize: 1, Wall: 29 * ms}, {BatchSize: 64, Wall: 20 * ms}}, false, "ratio 1.45"},
		{"at the floor", []TransportRow{{BatchSize: 1, Wall: 30 * ms}, {BatchSize: 64, Wall: 20 * ms}}, true, "ratio 1.50"},
		{"no batched side", []TransportRow{{BatchSize: 1, Wall: 30 * ms}}, false, "MISSING"},
		{"no batch-1 side", []TransportRow{{BatchSize: 64, Wall: 30 * ms}}, false, "MISSING"},
		{"no rows", nil, false, "MISSING"},
	} {
		v := transportRule(tc.rows)
		if v.Pass != tc.pass || !strings.Contains(v.Detail, tc.want) {
			t.Errorf("%s: got %q, want pass=%v with %q", tc.name, v, tc.pass, tc.want)
		}
	}
}

func TestFusionGuard(t *testing.T) {
	// walls builds passes-off walls from pair ratios against a 100 ms
	// passes-on wall.
	walls := func(ratios ...float64) (off, on []time.Duration) {
		for _, r := range ratios {
			off = append(off, time.Duration(r*float64(100*time.Millisecond)))
			on = append(on, 100*time.Millisecond)
		}
		return off, on
	}
	for _, tc := range []struct {
		name   string
		ratios []float64
		pass   bool
		want   string
	}{
		{"odd, median 0.89", []float64{1.20, 0.89, 0.50}, false, "speedup 0.89"},
		{"odd, median 0.91", []float64{0.91, 0.40, 1.30}, true, "speedup 0.91"},
		{"even, median 0.89", []float64{0.88, 0.90, 2.00, 0.10}, false, "speedup 0.89"},
		{"even, median 0.91", []float64{0.90, 0.92, 2.00, 0.10}, true, "speedup 0.91"},
	} {
		v := fusionGuard(walls(tc.ratios...))
		if v.Pass != tc.pass || !strings.Contains(v.Detail, tc.want) {
			t.Errorf("%s: got %q, want pass=%v with %q", tc.name, v, tc.pass, tc.want)
		}
	}
	off, on := walls(1.1, 1.1)
	for name, v := range map[string]Verdict{
		"no runs":        fusionGuard(nil, nil),
		"unpaired sides": fusionGuard(off, on[:1]),
	} {
		if v.Pass || !strings.Contains(v.Detail, "MISSING") {
			t.Errorf("%s: got %q, want a MISSING failure", name, v)
		}
	}
}

func TestAllocRule(t *testing.T) {
	base := map[string]uint64{"IV": 1000, "VI": 2000}
	for _, tc := range []struct {
		name    string
		labels  []string
		mallocs []uint64
		pass    bool
		want    string
	}{
		{"at baseline", []string{"IV", "VI"}, []uint64{1000, 2000}, true, "IV 1000/1000 (x1.00)"},
		{"1.10x", []string{"IV", "VI"}, []uint64{1100, 2200}, true, "VI 2200/2000 (x1.10)"},
		{"1.11x", []string{"IV", "VI"}, []uint64{1000, 2220}, false, "VI 2220/2000 (x1.11)"},
		{"no baseline", []string{"IV", "IX"}, []uint64{1000, 5}, false, "IX 5 MISSING baseline"},
		{"nothing measured", nil, nil, false, ""},
	} {
		v := allocRule(tc.labels, tc.mallocs, base)
		if v.Pass != tc.pass || !strings.Contains(v.Detail, tc.want) {
			t.Errorf("%s: got %q, want pass=%v with %q", tc.name, v, tc.pass, tc.want)
		}
	}
}

// TestGateEndToEnd runs the real gate on the small workload. It asserts
// the plumbing — one verdict per gate, nothing MISSING, a baseline for
// every gated run — and deliberately not that the timing rules pass.
func TestGateEndToEnd(t *testing.T) {
	verdicts, err := gate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var gates []string
	for _, v := range verdicts {
		gates = append(gates, v.Gate)
		if line := v.String(); strings.Contains(line, "MISSING") || strings.Contains(line, "\n") {
			t.Errorf("verdict is not one complete line: %q", line)
		}
	}
	if got := strings.Join(gates, ","); got != "transport,fusion,allocation" {
		t.Fatalf("gates = %s, want transport,fusion,allocation", got)
	}
	if n := strings.Count(verdicts[2].Detail, "(x"); n != len(allocBaseline) {
		t.Errorf("allocation verdict compares %d runs, want the %d of allocBaseline: %s", n, len(allocBaseline), verdicts[2])
	}
}
