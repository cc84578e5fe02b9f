// Command dttbench regenerates the paper's evaluation figures on the
// in-process runtime, runs the parametric sweeps behind EXPERIMENTS.md,
// and is the CI performance gate (internal/bench/gate.go). The
// yardstick a change is judged by is benchmark/, not this command.
//
//	dttbench -figure 4          # Queries I–VI, generated vs handcrafted (Figure 4)
//	dttbench -figure 6          # Smart Homes scaling (Figure 6)
//	dttbench -figure recovery   # checkpoint-interval sweep of marker-cut recovery
//	dttbench -figure transport  # batch-size sweep of the batched edge transport
//	dttbench -figure fusion     # optimization-pass sweep (chain fusion × combiners)
//	dttbench -figure all        # everything, plus the section 2 experiment
//	dttbench -section2          # only the motivation experiment
//	dttbench -rescale           # bursty workload: static provisioning vs autoscaler
//	dttbench -gate              # the CI performance gates; exit status 1 if one fails
//	dttbench -figure 4 -csv     # machine-readable output
//
// Workload knobs: -eps (events/second), -seconds (event-time length),
// -workers (max simulated cluster size), -opdelay (simulated DB call
// latency), -sources (source partitions).
//
// Profiling: -cpuprofile and -memprofile write pprof files covering
// whatever figures the invocation runs, e.g.
//
//	dttbench -figure fusion -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"datatrace/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dttbench:", err)
		os.Exit(1)
	}
}

// run is main without the exit: every failure comes back as an error,
// so the deferred profile writers below run on failing sweeps too.
func run() (err error) {
	var (
		figure   = flag.String("figure", "all", "which figure to regenerate: 4, 6, backends, recovery, transport, fusion or all")
		section2 = flag.Bool("section2", false, "run only the section 2 semantics experiment")
		rescale  = flag.Bool("rescale", false, "benchmark a bursty keyed workload at static parallelism 1/2/4 against the queue-depth autoscaler with live rescaling")
		gate     = flag.Bool("gate", false, "run the CI performance gates (transport, fusion dense guard, allocation) and fail if one does")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables")
		workers  = flag.Int("workers", 8, "maximum simulated cluster size")
		eps      = flag.Int("eps", 2000, "Yahoo workload events per second")
		seconds  = flag.Int("seconds", 15, "Yahoo workload event-time length")
		shSecs   = flag.Int("sh-seconds", 300, "Smart Homes event-time length")
		opDelay  = flag.Duration("opdelay", 2*time.Microsecond, "simulated DB per-call latency")
		sources  = flag.Int("sources", 2, "source partitions")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile covering the selected figures to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the selected figures to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, ferr := os.Create(*memProf)
		if ferr != nil {
			return fmt.Errorf("memprofile: %w", ferr)
		}
		defer func() {
			runtime.GC()
			if perr := errors.Join(pprof.WriteHeapProfile(f), f.Close()); perr != nil && err == nil {
				err = fmt.Errorf("memprofile: %w", perr)
			}
		}()
	}

	cfg := bench.DefaultConfig()
	cfg.MaxWorkers = *workers
	cfg.Yahoo.EventsPerSecond = *eps
	cfg.Yahoo.Seconds = *seconds
	cfg.SmartHome.Seconds = *shSecs
	cfg.OpDelay = *opDelay
	cfg.SourcePar = *sources

	figures := []struct {
		name string
		emit func() error
	}{
		{"4", func() error { return emit(bench.Figure4, cfg, *csv) }},
		{"6", func() error { return emit(bench.Figure6, cfg, *csv) }},
		{"backends", func() error { return emit(bench.BackendComparison, cfg, *csv) }},
		{"recovery", func() error { return emit(bench.RecoverySweep, cfg, *csv) }},
		{"transport", func() error { return emit(bench.TransportSweep, cfg, *csv) }},
		{"fusion", func() error { return emit(bench.FusionSweep, cfg, *csv) }},
	}
	switch {
	case *gate:
		return runGate()
	case *section2:
		return runSection2()
	case *rescale:
		return emit(bench.RescaleSweep, cfg, *csv)
	case *figure == "all":
		for _, f := range figures {
			if err := f.emit(); err != nil {
				return err
			}
		}
		return runSection2()
	}
	for _, f := range figures {
		if f.name == *figure {
			return f.emit()
		}
	}
	return fmt.Errorf("unknown figure %q (want 4, 6, backends, recovery, transport, fusion or all)", *figure)
}

// emit builds one figure or sweep and prints it as a table or as CSV.
func emit[R interface {
	Table() string
	CSV() string
}](build func(bench.Config) (R, error), cfg bench.Config, csv bool) error {
	res, err := build(cfg)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(res.CSV())
	} else {
		fmt.Println(res.Table())
	}
	return nil
}

// runGate prints one verdict line per gate and fails if any gate did.
func runGate() error {
	verdicts, err := bench.Gate()
	if err != nil {
		return err
	}
	failed := 0
	for _, v := range verdicts {
		fmt.Println(v)
		if !v.Pass {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d gates failed", failed, len(verdicts))
	}
	return nil
}

func runSection2() error {
	res, err := bench.Section2(2)
	if err != nil {
		return err
	}
	fmt.Println("== section 2: semantics of parallel deployment (Map ×2 → LI → MaxOfAvg) ==")
	fmt.Printf("naive shuffle deployment ≡ specification:  %v   (expected false)\n", res.NaiveEquivalent)
	fmt.Printf("typed deployment ≡ specification:          %v   (expected true)\n", res.TypedEquivalent)
	fmt.Printf("type checker rejects the sort-free DAG:    %v   (expected true)\n", res.TypeCheckRejectsNaive)
	return nil
}
