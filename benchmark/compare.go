package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json at the root of the checkout: the
// contract the driver reads, and where compare takes its bounds from.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// resultFile is result.json, what a full set leaves behind.
type resultFile struct {
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Short      bool             `json:"short"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name     string     `json:"name"`
	EndToEnd *runReport `json:"end_to_end"`
	PerLayer *runReport `json:"per_layer"`
}

// setupFloorS is the absolute change below which set-up time never
// counts as worse: at a few hundredths of a second a relative bound
// alone would judge scheduling noise.
const setupFloorS = 0.05

// fullSet runs the workloads one after another, each in child processes
// of its own (one for the end-to-end metrics, one for the per-layer
// metrics with the probes and the traced pass), prints every metric and
// writes result.json and spans.json.
func fullSet(outDir, only string, seed int64, seconds float64, short bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res := resultFile{Seed: seed, Seconds: seconds, Short: short}
	var spans []span
	failed := false
	for _, sp := range specs {
		if only != "" && only != sp.Name {
			continue
		}
		wr := workloadResult{Name: sp.Name}
		for _, traced := range []bool{false, true} {
			t := "0"
			if traced {
				t = "1"
			}
			args := []string{"-workload", sp.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", t}
			if short {
				args = append(args, "-short")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %s): %v\n", sp.Name, t, err)
				failed = true
			}
			var rep runReport
			b, err := os.ReadFile(filepath.Join(outDir, reportName(sp.Name, traced)))
			if err == nil {
				err = json.Unmarshal(b, &rep)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %s) left no report: %v\n", sp.Name, t, err)
				failed = true
				continue
			}
			printReport(&rep)
			res.GOMAXPROCS = rep.GOMAXPROCS
			spans = append(spans, rep.Spans...)
			rep.Spans = nil
			if traced {
				wr.PerLayer = &rep
			} else {
				wr.EndToEnd = &rep
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if len(res.Workloads) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", only)
		return 2
	}
	// q4-dense and q4-tcp replay the same input through the same DAG, so
	// their full-size sinks must be the same trace.
	digests := map[string]string{}
	for _, w := range res.Workloads {
		if w.EndToEnd != nil {
			digests[w.Name] = w.EndToEnd.Digest
		}
	}
	if a, b := digests["q4-dense"], digests["q4-tcp"]; a != "" && b != "" && a != b {
		fmt.Fprintf(os.Stderr, "benchmark: sink digests differ: q4-dense %s, q4-tcp %s\n", a, b)
		failed = true
	}
	if err := writeJSON(outDir, "result.json", res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := writeJSON(outDir, "spans.json", spans); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("wrote %s and %s\n", filepath.Join(outDir, "result.json"), filepath.Join(outDir, "spans.json"))
	if failed {
		return 1
	}
	return 0
}

// verdict judges one (workload, metric) pair of two result files: "worse"
// when B's median is worse than A's by more than the bound, "unresolved"
// when either side's own spread between trials is wider than the bound
// (so the medians cannot tell), "ok" otherwise.
func verdict(m boundedMetric, a, b float64, spreadA, spreadB float64) (delta float64, v string) {
	if a == 0 {
		return 0, "unresolved"
	}
	delta = (b - a) / math.Abs(a)
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > m.Bound && !(m.Name == "setup_s" && math.Abs(b-a) < setupFloorS):
		return delta, "worse"
	case spreadA > m.Bound || spreadB > m.Bound:
		return delta, "unresolved"
	}
	return delta, "ok"
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain is "benchmark compare A.json B.json": one row per
// (workload, end-to-end metric); exit code 1 when any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	inB := map[string]*runReport{}
	for _, w := range b.Workloads {
		inB[w.Name] = w.EndToEnd
	}
	fmt.Printf("%-18s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	anyWorse := false
	for _, w := range a.Workloads {
		ra, rb := w.EndToEnd, inB[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			delta, v := verdict(m, va, vb, ra.Trials[m.Name].spread(), rb.Trials[m.Name].spread())
			if v == "worse" {
				anyWorse = true
			}
			fmt.Printf("%-18s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", w.Name, m.Name, va, vb, delta*100, m.Bound*100, v)
		}
	}
	if anyWorse {
		return 1
	}
	return 0
}
