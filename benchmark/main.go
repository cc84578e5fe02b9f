// Command benchmark is the repository's one yardstick: six workloads,
// eight bounded end-to-end metrics, per-layer probes and a traced pass.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"datatrace/internal/queries"
	"datatrace/internal/storm"
)

func main() {
	// Every process of a networked run, and the codec probes, need the
	// queries' key and value types known to gob.
	queries.RegisterWireTypes()
	if cfg, payload, ok := storm.WorkerEnvConfig(); ok {
		if err := serveWorker(cfg, payload); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark worker %d: %v\n", cfg.Worker, err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// findRoot walks up from the working directory to the directory that
// holds BENCHMARK.json, the root of the checkout.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run only this workload (default: all six, one after another)")
	seed := fs.Int64("seed", 1, "seed of every input generator")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", -1, "0: print the end-to-end metrics of one workload; 1: its per-layer metrics (probes and a traced pass); unset: a full set")
	short := fs.Bool("short", false, "1/100 size, one trial: a smoke run, not a measurement")
	check := fs.Bool("check", false, "internal: only run the output check of -workload and report it as the exit code")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if *trace < 0 && !*check {
		return fullSet(outDir, *workloadName, *seed, *seconds, *short)
	}
	sp, ok := specByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
		return 2
	}
	cfg := runConfig{sp: sp, seed: *seed, seconds: *seconds, traced: *trace == 1, short: *short, outDir: outDir}
	if *check {
		return checkMain(cfg)
	}
	rep, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printReport(rep)
	line, err := json.Marshal(contractLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// reportName is the detail file of one run in the out directory.
func reportName(workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return fmt.Sprintf("run-%s-trace%d.json", workload, t)
}

// runOne executes one invocation and leaves its detail file.
func runOne(cfg runConfig) (*runReport, error) {
	out, err := execute(cfg)
	if err != nil {
		return nil, err
	}
	rep := report(out)
	if err := writeJSON(cfg.outDir, reportName(cfg.sp.Name, cfg.traced), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// printReport prints every metric as "name value unit".
func printReport(rep *runReport) {
	fmt.Printf("workload %s seed %d correct %v attempted %d failed %d digest %s\n",
		rep.Workload, rep.Seed, rep.Correct, rep.Attempted, rep.Failed, rep.Digest)
	if rep.Error != "" {
		fmt.Printf("error %s\n", rep.Error)
	}
	for _, name := range sortedNames(rep.Metrics) {
		m := rep.Metrics[name]
		if s, ok := rep.Trials[name]; ok {
			fmt.Printf("%s %.6g %s (min %.6g max %.6g over %d trials)\n", name, m.Value, m.Unit, s.Min, s.Max, s.Trials)
			continue
		}
		fmt.Printf("%s %.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Printf("note %s\n", n)
	}
}
