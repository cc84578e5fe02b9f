// Command dttbench regenerates the paper's evaluation figures on the
// in-process runtime:
//
//	dttbench -figure 4          # Queries I–VI, generated vs handcrafted (Figure 4)
//	dttbench -figure 6          # Smart Homes scaling (Figure 6)
//	dttbench -figure recovery   # checkpoint-interval sweep of marker-cut recovery
//	dttbench -figure transport  # batch-size sweep of the batched edge transport
//	dttbench -figure fusion     # optimization-pass sweep (chain fusion × combiners)
//	dttbench -figure all        # everything, plus the section 2 experiment
//	dttbench -section2          # only the motivation experiment
//	dttbench -obs               # Query IV observability report on both runtimes
//	dttbench -net               # Query IV over localhost TCP vs in-process
//	dttbench -rescale           # bursty workload: static provisioning vs autoscaler
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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"datatrace/internal/bench"
	"datatrace/internal/queries"
)

func main() {
	// Re-exec'd with the DTT_NET_* spawn contract, this binary is a
	// worker process of a networked run (the -net benchmark launches
	// them); RunWorkerIfSpawned serves and exits in that case.
	queries.RunWorkerIfSpawned()
	var (
		figure   = flag.String("figure", "all", "which figure to regenerate: 4, 6, backends, recovery, transport, fusion or all")
		section2 = flag.Bool("section2", false, "run only the section 2 semantics experiment")
		obs      = flag.Bool("obs", false, "run Query IV with observability on and print per-component p50/p99 exec latency, max queue depth and marker-cut lag for both runtimes")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables")
		workers  = flag.Int("workers", 8, "maximum simulated cluster size")
		eps      = flag.Int("eps", 2000, "Yahoo workload events per second")
		seconds  = flag.Int("seconds", 15, "Yahoo workload event-time length")
		shSecs   = flag.Int("sh-seconds", 300, "Smart Homes event-time length")
		opDelay  = flag.Duration("opdelay", 2*time.Microsecond, "simulated DB per-call latency")
		sources  = flag.Int("sources", 2, "source partitions")
		rescale  = flag.Bool("rescale", false, "benchmark a bursty keyed workload at static parallelism 1/2/4 against the queue-depth autoscaler with live rescaling")
		netBench = flag.Bool("net", false, "benchmark Query IV on a localhost-TCP multi-process cluster against the in-process runtime, at transport batch sizes 1 and 64")
		netProcs = flag.Int("net-workers", 2, "worker processes of the -net benchmark")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile covering the selected figures to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the selected figures to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dttbench: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dttbench: cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dttbench: memprofile:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dttbench: memprofile:", err)
				os.Exit(1)
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

	if *section2 {
		runSection2()
		return
	}
	if *obs {
		runObs(cfg, *csv)
		return
	}
	if *rescale {
		runRescale(cfg, *csv)
		return
	}
	if *netBench {
		runNet(cfg, *netProcs, *csv)
		return
	}

	switch *figure {
	case "4":
		emitFigure(bench.Figure4, cfg, *csv)
	case "6":
		emitFigure(bench.Figure6, cfg, *csv)
	case "backends":
		emitFigure(bench.BackendComparison, cfg, *csv)
	case "recovery":
		runRecovery(cfg, *csv)
	case "transport":
		runTransport(cfg, *csv)
	case "fusion":
		runFusion(cfg, *csv)
	case "all":
		emitFigure(bench.Figure4, cfg, *csv)
		emitFigure(bench.Figure6, cfg, *csv)
		emitFigure(bench.BackendComparison, cfg, *csv)
		runRecovery(cfg, *csv)
		runTransport(cfg, *csv)
		runFusion(cfg, *csv)
		runSection2()
	default:
		fmt.Fprintf(os.Stderr, "dttbench: unknown figure %q (want 4, 6, backends, recovery, transport, fusion or all)\n", *figure)
		os.Exit(2)
	}
}

func emitFigure(build func(bench.Config) (*bench.Figure, error), cfg bench.Config, csv bool) {
	fig, err := build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dttbench:", err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(fig.CSV())
		return
	}
	fmt.Println(fig.Table())
}

func runRecovery(cfg bench.Config, csv bool) {
	res, err := bench.RecoverySweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dttbench:", err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(res.CSV())
		return
	}
	fmt.Println(res.Table())
}

func runTransport(cfg bench.Config, csv bool) {
	res, err := bench.TransportSweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dttbench:", err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(res.CSV())
		return
	}
	fmt.Println(res.Table())
}

func runFusion(cfg bench.Config, csv bool) {
	res, err := bench.FusionSweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dttbench:", err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(res.CSV())
		return
	}
	fmt.Println(res.Table())
}

func runRescale(cfg bench.Config, csv bool) {
	res, err := bench.RescaleSweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dttbench:", err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(res.CSV())
		return
	}
	fmt.Println(res.Table())
}

func runObs(cfg bench.Config, csv bool) {
	rep, err := bench.Observability(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dttbench:", err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(rep.CSV())
		return
	}
	fmt.Println(rep.Table())
}

func runSection2() {
	res, err := bench.Section2(2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dttbench:", err)
		os.Exit(1)
	}
	fmt.Println("== section 2: semantics of parallel deployment (Map ×2 → LI → MaxOfAvg) ==")
	fmt.Printf("naive shuffle deployment ≡ specification:  %v   (expected false)\n", res.NaiveEquivalent)
	fmt.Printf("typed deployment ≡ specification:          %v   (expected true)\n", res.TypedEquivalent)
	fmt.Printf("type checker rejects the sort-free DAG:    %v   (expected true)\n", res.TypeCheckRejectsNaive)
}
