package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"datatrace/internal/metrics"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// Fixed shape of one run (one workload, one seed). The counts are
// literals: how often set-up repeats for its median (after one more,
// cold, repetition that is not counted), how many closed-loop trials a
// run makes at least, and the divisors of the small sizes.
const (
	setupReps     = 5
	minTrials     = 3
	maxTrials     = 40
	verifyDivisor = 20  // the output check runs at 1/20 size
	shortDivisor  = 100 // -short runs at 1/100 size, one trial
	// The traced pass runs at 1/4 size and needs two trials: with
	// observability on, the runtime's spout loop is boxed and a full-size
	// Query IV trial would take several times its untraced length.
	tracedDivisor   = 4
	minTracedTrials = 2
)

// runConfig is one invocation: a workload, a seed and a time budget.
type runConfig struct {
	sp      spec
	seed    int64
	seconds float64
	traced  bool
	short   bool
	outDir  string
}

// trial is what one run of the topology measured.
type trial struct {
	items   int64
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	// rssMiB is the peak resident memory during the trial: of this
	// process, sampled, plus the high-water marks of the other processes
	// the trial used (the TCP workers).
	rssMiB float64

	// latMs holds one latency per cut that reached the tap; lost counts
	// the cuts that never did.
	latMs []float64
	lost  int
	// genLagMs is, per marker of an open loop, how long after its due
	// time the last source released it; sentShare is items sent over
	// items scheduled by the end of the run.
	genLagMs  []float64
	sentShare float64
	// sources[p] is what source partition p recorded about itself, and
	// placed the executor placement of a networked run (nil in-process):
	// together they undo what the runtime's busy accounting does to a
	// waiting source (roleShares).
	sources []*sourceLog
	placed  []storm.Placed

	dropped int64
	digest  uint64
	stats   *metrics.Stats
	kinds   map[string]string // component → spout | bolt | sink
}

// cutsFor returns the number of cuts of one trial under cfg.
func cutsFor(cfg runConfig, w instance) int {
	n := w.fullMarkers()
	if cfg.short {
		n /= shortDivisor
	}
	if n < 2 {
		n = 2
	}
	return n
}

// runTrial runs the workload once at the given number of cuts and
// measures it from outside.
func runTrial(cfg runConfig, w instance, markers int, obs bool) (*trial, error) {
	if cfg.sp.TCP {
		return runTCPTrial(cfg, w, markers, obs)
	}
	top, _, col, err := w.build(buildOpts{markers: markers, obs: obs})
	if err != nil {
		return nil, err
	}
	// Every trial starts from a collected heap whose free pages are back
	// with the system, so that its memory peak is its own.
	debug.FreeOSMemory()
	before, err := readUsage()
	if err != nil {
		return nil, err
	}
	rss := startRSSSampler()
	res, err := top.Run()
	peak := rss.finish()
	if err != nil {
		return nil, err
	}
	after, err := readUsage()
	if err != nil {
		return nil, err
	}
	t := &trial{
		items:   w.items(markers),
		wall:    res.Wall,
		rssMiB:  peak,
		cpu:     after.cpu - before.cpu,
		mallocs: after.mallocs - before.mallocs,
		bytes:   after.bytes - before.bytes,
		digest:  digest(res.Sinks[sinkName]),
		stats:   res.Stats,
		kinds:   componentKinds(top),
	}
	_, _, t.dropped = res.Stats.Recovery()
	t.latencies(col, w.items(1))
	return t, nil
}

func componentKinds(top *storm.Topology) map[string]string {
	kinds := map[string]string{}
	for _, c := range top.Components() {
		kinds[c.Name] = c.Kind
	}
	return kinds
}

// latencies derives the per-cut latencies from the collector's stamps.
// In a closed loop a cut is timed from when the last source partition
// released its marker; in an open loop from when the marker was due,
// which charges a stalled source's delay to the cuts it delayed.
func (t *trial) latencies(col *collector, itemsPerCut int64) {
	var sentItems int64
	t.sources = col.sources
	for seq, at := range col.arrived {
		var sent int64
		for _, src := range col.sources {
			if src == nil || src.Sent[seq] == 0 {
				sent = 0
				break
			}
			if src.Sent[seq] > sent {
				sent = src.Sent[seq]
			}
		}
		if sent != 0 {
			sentItems += itemsPerCut
		}
		from := sent
		if col.pace != nil {
			from = col.pace.dueMarker(int64(seq)).UnixNano()
			if sent != 0 {
				t.genLagMs = append(t.genLagMs, float64(sent-from)/1e6)
			}
		}
		if at == 0 || sent == 0 {
			t.lost++
			continue
		}
		t.latMs = append(t.latMs, float64(at-from)/1e6)
	}
	if n := int64(len(col.arrived)); n > 0 {
		t.sentShare = float64(sentItems) / float64(n*itemsPerCut)
	}
}

// failedItems is the number of source items the trial failed: dropped by
// a degraded executor, or belonging to a cut whose marker never reached
// the tap.
func (t *trial) failedItems(itemsPerCut int64) int64 {
	return t.dropped + int64(t.lost)*itemsPerCut
}

// verifyInChild runs the output check in a child process of its own, so
// that the boxed reference input it needs never counts towards the
// measuring process's peak memory. The child's verdict is its exit code.
func verifyInChild(cfg runConfig) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{"-check", "-workload", cfg.sp.Name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds)}
	if cfg.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = os.Stderr, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("output check: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return nil
}

// checkMain is the child's side of verifyInChild.
func checkMain(cfg runConfig) int {
	w, err := setUp(cfg.sp, cfg.seed, newSpanLog(cfg.sp.Name))
	if err == nil {
		err = verify(cfg, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// verify runs the workload at 1/verifyDivisor size and compares its
// sink with the sequential denotation of the same input.
func verify(cfg runConfig, w instance) error {
	markers := cutsFor(cfg, w) / verifyDivisor
	if markers < 2 {
		markers = 2
	}
	want, typ, err := w.reference(markers)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	var got []stream.Event
	if cfg.sp.TCP {
		res, err := runNetworked(cfg, markers, false)
		if err != nil {
			return err
		}
		got = res.Sinks[sinkName]
	} else {
		top, _, _, err := w.build(buildOpts{markers: markers})
		if err != nil {
			return err
		}
		res, err := top.Run()
		if err != nil {
			return err
		}
		got = res.Sinks[sinkName]
	}
	return equivalentByCut(typ, got, want)
}

// outcome is everything one invocation learned; report.go turns it into
// metrics.
type outcome struct {
	cfg       runConfig
	setupS    []float64
	untraced  []*trial
	traced    []*trial
	itemsCut  int64
	checkErr  error // output check or digest mismatch, nil when correct
	probes    map[string]metric
	spans     *spanLog
	gomaxproc int
}

// execute performs one invocation: repeated set-up, the output check, a
// warm-up and then measured trials for cfg.seconds (at least minTrials).
// A traced
// invocation splits the time between an untraced and a traced pass and
// runs the layer probes.
func execute(cfg runConfig) (*outcome, error) {
	out := &outcome{cfg: cfg, spans: newSpanLog(cfg.sp.Name), gomaxproc: runtime.GOMAXPROCS(0)}
	var w instance
	for i := 0; i <= setupReps; i++ {
		done := out.spans.begin("setup")
		start := time.Now()
		inst, err := setUp(cfg.sp, cfg.seed, out.spans)
		took := time.Since(start).Seconds()
		done()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		w = inst
		// The first repetition pays for cold caches and page faults and is
		// not counted, unless it is the only one.
		if i > 0 || cfg.short {
			out.setupS = append(out.setupS, took)
		}
		if cfg.short {
			break
		}
	}
	out.itemsCut = w.items(1)

	done := out.spans.begin("verify")
	out.checkErr = verifyInChild(cfg)
	done()
	if out.checkErr != nil {
		return out, nil
	}

	markers := cutsFor(cfg, w)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		budget /= 2
	}
	pass := func(obs bool) ([]*trial, error) {
		n, atLeast := markers, minTrials
		if obs && !cfg.short {
			n, atLeast = max(2, markers/tracedDivisor), minTracedTrials
		}
		if !cfg.short {
			if _, err := runTrial(cfg, w, n, obs); err != nil { // warm-up
				return nil, err
			}
		}
		var ts []*trial
		var spent time.Duration
		for len(ts) < maxTrials {
			done := out.spans.begin("trial")
			start := time.Now()
			t, err := runTrial(cfg, w, n, obs)
			if err == nil && obs && t.stats != nil {
				out.spans.adopt(t.stats.Snapshot())
			}
			done()
			if err != nil {
				return nil, err
			}
			ts = append(ts, t)
			spent += time.Since(start)
			if cfg.short || len(ts) >= atLeast && spent >= budget {
				break
			}
		}
		return ts, nil
	}
	var err error
	if out.untraced, err = pass(false); err != nil {
		return nil, err
	}
	for _, t := range out.untraced[1:] {
		if t.digest != out.untraced[0].digest {
			out.checkErr = fmt.Errorf("sink digest differs between trials: %016x vs %016x", out.untraced[0].digest, t.digest)
		}
	}
	if cfg.traced {
		if out.traced, err = pass(true); err != nil {
			return nil, err
		}
		if out.probes, err = runProbes(cfg, out.spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// writeJSON writes v to dir/name, creating dir.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
