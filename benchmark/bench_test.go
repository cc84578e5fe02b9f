package main

import (
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"datatrace/internal/stream"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of an odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for q, want := range map[float64]float64{0.50: 50, 0.95: 95, 0.99: 99} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

// A percentile is reported as resolved only with at least ten samples
// beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{200, 0.95, true}, {199, 0.95, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.50, true}, {19, 0.50, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// spread the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; Python gives 1.5, 12", q1, q3)
	}
	if s := summarise(xs); math.Abs(s.spread()-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s.spread())
	}
}

func TestDigest(t *testing.T) {
	item := func(k, v int64) stream.Event { return stream.Item(k, v) }
	mark := func(seq int64) stream.Event { return stream.Mark(periodMarker(seq)) }
	base := []stream.Event{item(1, 10), item(2, 20), item(3, 30), mark(0), item(1, 11), item(2, 21), mark(1)}
	reordered := []stream.Event{item(3, 30), item(1, 10), item(2, 20), mark(0), item(2, 21), item(1, 11), mark(1)}
	if digest(base) != digest(reordered) {
		t.Error("digest depends on the order of items within a cut")
	}
	moved := []stream.Event{item(1, 10), item(2, 20), mark(0), item(3, 30), item(1, 11), item(2, 21), mark(1)}
	if digest(base) == digest(moved) {
		t.Error("digest does not see an item moving to another cut")
	}
	changed := []stream.Event{item(1, 10), item(2, 20), item(3, 31), mark(0), item(1, 11), item(2, 21), mark(1)}
	if digest(base) == digest(changed) {
		t.Error("digest does not see a changed value")
	}
	swapped := []stream.Event{item(1, 11), item(2, 21), mark(0), item(1, 10), item(2, 20), item(3, 30), mark(1)}
	if digest(base) == digest(swapped) {
		t.Error("digest does not see cuts changing places")
	}
}

func TestEquivalentByCut(t *testing.T) {
	typ := stream.U("K", "V")
	a := []stream.Event{stream.Item(int64(1), int64(1)), stream.Item(int64(2), int64(2)), stream.Mark(periodMarker(0))}
	b := []stream.Event{stream.Item(int64(2), int64(2)), stream.Item(int64(1), int64(1)), stream.Mark(periodMarker(0))}
	if err := equivalentByCut(typ, a, b); err != nil {
		t.Errorf("reordered unordered cut: %v", err)
	}
	if err := equivalentByCut(stream.O("K", "V"), a, b); err != nil {
		t.Errorf("different keys commute under O(K,V) too: %v", err)
	}
	c := append(append([]stream.Event(nil), a...), stream.Mark(periodMarker(1)))
	if err := equivalentByCut(typ, a, c); err == nil {
		t.Error("an extra cut went unnoticed")
	}
}

// fakeClock is a clock that only moves when told to, or slept on.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// The open-loop schedule never moves: a source that stalls sends what is
// overdue at once, and the stall shows as latency from the due times.
func TestPacerKeepsTheSchedule(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	// One item per millisecond, ten items per marker, released five at a time.
	p, err := newPacer(clk, 1000, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newPacer(clk, 1000, 10, 4); err == nil {
		t.Error("a marker period that is not whole groups was accepted")
	}
	start := clk.now
	if n, slept := p.take(0, 10); n != 5 || slept != 4*time.Millisecond {
		t.Fatalf("on schedule, take released %d items after sleeping %v, want a chunk of 5 after 4ms", n, slept)
	}
	if got := clk.now.Sub(start); got != 4*time.Millisecond {
		t.Fatalf("take returned at +%v, want +4ms (when the fifth item is due)", got)
	}
	due0 := p.dueMarker(0)
	if got := due0.Sub(start); got != 10*time.Millisecond {
		t.Fatalf("marker 0 due at +%v, want +10ms", got)
	}

	// The consumer stalls the source for 50 ms.
	clk.now = clk.now.Add(50 * time.Millisecond)
	if n, slept := p.take(5, 5); n != 5 || slept != 0 {
		t.Fatalf("after a stall take released %d items after sleeping %v, want all 5 overdue ones at once", n, slept)
	}
	for next := int64(10); next < 55; next += 5 {
		if n, slept := p.take(next, 64); n != 5 || slept != 0 {
			t.Fatalf("after a stall take(%d) released %d items after sleeping %v, want the overdue group of 5 at once", next, n, slept)
		}
	}
	if n, slept := p.take(55, 64); n != 5 || slept != 5*time.Millisecond {
		t.Fatalf("caught up, take released %d items after sleeping %v, want 5 after 5ms (item 59 is due at +59ms)", n, slept)
	}
	clk.now = clk.now.Add(-5 * time.Millisecond) // back to +54ms for what follows
	if slept := p.waitMarker(0); slept != 0 {
		t.Errorf("waitMarker slept %v although the marker was overdue", slept)
	}
	if p.dueMarker(0) != due0 {
		t.Error("the stall moved the schedule")
	}

	// Latency is measured from the due time: a marker sent 44 ms late and
	// arriving 1 ms after that is 45 ms late, and the generator's lag is
	// reported beside it.
	sent := clk.now.UnixNano()
	col := &collector{pace: p, sources: []*sourceLog{{Sent: markerLog{sent}}}, arrived: markerLog{sent + int64(time.Millisecond)}}
	var tr trial
	tr.latencies(col, 10)
	if len(tr.latMs) != 1 || math.Abs(tr.latMs[0]-45) > 1e-9 {
		t.Errorf("latency = %v ms, want 45 (from the due time, not from the send)", tr.latMs)
	}
	if len(tr.genLagMs) != 1 || math.Abs(tr.genLagMs[0]-44) > 1e-9 {
		t.Errorf("generator lag = %v ms, want 44", tr.genLagMs)
	}
}

// A cut whose marker never reaches the tap fails its items.
func TestLostCutFails(t *testing.T) {
	col := &collector{sources: []*sourceLog{{Sent: markerLog{100, 200}}, {Sent: markerLog{110, 190}}}, arrived: markerLog{150, 0}}
	var tr trial
	tr.latencies(col, 7)
	if tr.lost != 1 || tr.failedItems(7) != 7 {
		t.Errorf("lost %d cuts, failed %d items; want 1 and 7", tr.lost, tr.failedItems(7))
	}
	if len(tr.latMs) != 1 || tr.latMs[0] != 40e-6 {
		t.Errorf("latency = %v, want 40 ns from the last partition's send", tr.latMs)
	}
}

func TestVerdict(t *testing.T) {
	eps := boundedMetric{Name: "throughput_eps", Better: "higher", Bound: 0.1}
	if _, v := verdict(eps, 100, 95, 0.01, 0.01); v != "ok" {
		t.Errorf("5%% lower throughput within a 10%% bound: %s", v)
	}
	if _, v := verdict(eps, 100, 85, 0.01, 0.01); v != "worse" {
		t.Errorf("15%% lower throughput beyond a 10%% bound: %s", v)
	}
	if _, v := verdict(eps, 100, 130, 0.01, 0.01); v != "ok" {
		t.Errorf("higher throughput: %s", v)
	}
	if _, v := verdict(eps, 100, 98, 0.2, 0.01); v != "unresolved" {
		t.Errorf("a spread wider than the bound: %s", v)
	}
	setup := boundedMetric{Name: "setup_s", Better: "lower", Bound: 0.1}
	if _, v := verdict(setup, 0.05, 0.07, 0, 0); v != "ok" {
		t.Errorf("set-up 0.02 s slower is under the absolute floor: %s", v)
	}
	if _, v := verdict(setup, 0.5, 0.7, 0, 0); v != "worse" {
		t.Errorf("set-up 0.2 s slower: %s", v)
	}
}

// lastLine runs the built benchmark and parses the line the driver reads.
func lastLine(t *testing.T, exe, root string, args ...string) contractLine {
	t.Helper()
	cmd := exec.Command(exe, args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	lines := regexp.MustCompile(`\n+`).Split(string(out), -1)
	for len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%v: last line is not the result object: %v\n%s", args, err, out)
	}
	return line
}

// The smoke and schema test: every workload runs at -short size through
// the binary the driver would run, its output is correct, and the names
// the program emits are exactly the names BENCHMARK.json declares.
func TestShortRunsAndSchema(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(t.TempDir(), "benchmark")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
		sp, ok := specByName(w.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, the program has none", w.Name)
			continue
		}
		if sp.Why != w.Why {
			t.Errorf("workload %s: the reason in BENCHMARK.json differs from the program's", w.Name)
		}
	}
	if len(declared) != len(specs) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(declared), len(specs))
	}
	var wantE2E, wantLayer []string
	for _, m := range bf.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range bf.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	same := func(what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: program emits %d names %v, BENCHMARK.json declares %d %v", what, len(got), got, len(want), want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: program emits %q where BENCHMARK.json declares %q", what, got[i], want[i])
			}
			if !valid.MatchString(got[i]) {
				t.Errorf("%s: name %q has characters outside [A-Za-z0-9_.-]", what, got[i])
			}
		}
	}
	for _, sp := range specs {
		if !valid.MatchString(sp.Name) {
			t.Errorf("workload name %q has characters outside [A-Za-z0-9_.-]", sp.Name)
		}
		line := lastLine(t, exe, root, "--workload", sp.Name, "--seed", "3", "--seconds", "1", "--trace", "0", "-short")
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: correct %v, failed %d of %d", sp.Name, line.Correct, line.Failed, line.Attempted)
		}
		same(sp.Name+" end-to-end", sortedNames(line.Metrics), wantE2E)
		for n, m := range line.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", sp.Name, n)
			}
		}
	}
	// The per-layer names do not depend on the workload; one traced run
	// of the in-process and one of the TCP kind cover both code paths.
	for _, w := range []string{"q4-recovery", "q4-tcp"} {
		line := lastLine(t, exe, root, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1", "-short")
		if !line.Correct {
			t.Errorf("%s traced: not correct", w)
		}
		same(w+" per-layer", sortedNames(line.Metrics), wantLayer)
	}
}

// A stall that spoils one group of cuts does not move the reported
// percentile; too few cuts for two groups are taken together.
func TestGroupedPercentile(t *testing.T) {
	xs := make([]float64, 5*latencyGroup+50)
	for i := range xs {
		xs[i] = 1 + float64(i%latencyGroup)/latencyGroup // 1..2 in every group
	}
	calm := groupedPercentile(xs, 0.95)
	for i := latencyGroup; i < 2*latencyGroup; i++ {
		xs[i] = 500 // a stall covering the second group
	}
	if got := groupedPercentile(xs, 0.95); got != calm {
		t.Errorf("a stall in one group of five moved the p95 from %v to %v", calm, got)
	}
	if got := percentile(xs, 0.95); got != 500 {
		t.Errorf("the pooled p95 of the same cuts is %v; the test expects the stall to reach it", got)
	}
	few := xs[:latencyGroup+10]
	if groupedPercentile(few, 0.95) != percentile(few, 0.95) {
		t.Error("fewer than two groups were not taken as one")
	}
}
