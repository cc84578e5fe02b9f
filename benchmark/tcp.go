package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"datatrace/internal/storm"
)

// This file runs a workload on worker processes over localhost TCP. The
// benchmark binary is its own worker: storm.RunNetworked re-executes it
// with the spawn contract in the environment, main hands over to
// serveWorker, and the worker rebuilds the identical replay sources and
// topology from the payload before serving its share. What only a
// worker can see (its sources' and tap's stamps, its allocations, its
// peak memory) it leaves in a report file for the coordinator.

// workerPayload is the application payload of the spawn contract.
type workerPayload struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Markers  int    `json:"markers"`
	Obs      bool   `json:"obs"`
	// ReportDir is where each worker writes its report.
	ReportDir string `json:"report_dir"`
}

// workerReport is what one worker process saw of a run.
type workerReport struct {
	// Sources[p] is source partition p's record when this worker hosted
	// it, Arrived the tap's marker log when it hosted the tap.
	Sources map[int]*sourceLog `json:"sources,omitempty"`
	Arrived markerLog          `json:"arrived,omitempty"`
	// Mallocs and Bytes are the worker's allocations while it served.
	Mallocs   uint64 `json:"mallocs"`
	Bytes     uint64 `json:"bytes"`
	MaxRSSKiB int64  `json:"max_rss_kib"`
}

// windowPath is the file through which a networked run's processes share
// the closed loop's window.
func windowPath(dir string) string { return filepath.Join(dir, "window") }

func reportPath(dir string, worker int) string {
	return filepath.Join(dir, fmt.Sprintf("worker-%d.json", worker))
}

// serveWorker is the whole life of a worker process.
func serveWorker(cfg storm.WorkerConfig, payload string) error {
	var p workerPayload
	if err := json.Unmarshal([]byte(payload), &p); err != nil {
		return fmt.Errorf("bad %s payload: %w", storm.EnvSpec, err)
	}
	sp, ok := specByName(p.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", p.Workload)
	}
	w, err := setUp(sp, p.Seed, newSpanLog(sp.Name))
	if err != nil {
		return err
	}
	top, _, col, err := w.build(buildOpts{markers: p.Markers, obs: p.Obs, workers: cfg.Workers, windowFile: windowPath(p.ReportDir)})
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := top.ServeWorker(cfg); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)

	rep := workerReport{
		Sources: map[int]*sourceLog{},
		Mallocs: after.Mallocs - before.Mallocs,
		Bytes:   after.TotalAlloc - before.TotalAlloc,
	}
	for part, log := range col.sources {
		if log != nil {
			rep.Sources[part] = log
		}
	}
	for _, at := range col.arrived {
		if at != 0 {
			rep.Arrived = col.arrived
			break
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage self: %w", err)
	}
	rep.MaxRSSKiB = ru.Maxrss
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath(p.ReportDir, cfg.Worker), b, 0o644)
}

// runNetworked runs the workload at the given number of cuts on
// tcpWorkers worker processes and returns the coordinator's result. The
// workers' reports are in reportDir(cfg) afterwards.
func runNetworked(cfg runConfig, markers int, obs bool) (*storm.NetResult, error) {
	dir := reportDir(cfg)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := createWindowFile(windowPath(dir)); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(workerPayload{
		Workload: cfg.sp.Name, Seed: cfg.seed, Markers: markers, Obs: obs, ReportDir: dir,
	})
	if err != nil {
		return nil, err
	}
	// A run that does not finish is a failed run, at once and loudly: no
	// cluster restarts, and an attempt may take attemptTimeout at most.
	return storm.RunNetworked(storm.NetOptions{
		Workers: tcpWorkers, Spec: string(payload), MaxRestarts: -1, AttemptTimeout: attemptTimeout,
	})
}

// attemptTimeout bounds one networked run; a full-size trial takes about
// two seconds.
const attemptTimeout = 45 * time.Second

func reportDir(cfg runConfig) string { return filepath.Join(cfg.outDir, "tcp-"+cfg.sp.Name) }

// runTCPTrial is runTrial over the networked runtime: the resource
// readings cover this process and the workers it reaped.
func runTCPTrial(cfg runConfig, w instance, markers int, obs bool) (*trial, error) {
	debug.FreeOSMemory()
	before, err := readUsage()
	if err != nil {
		return nil, err
	}
	rss := startRSSSampler()
	res, err := runNetworked(cfg, markers, obs)
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
	}
	_, _, t.dropped = res.Stats.Recovery()
	// The coordinator never builds the topology; a build of its own
	// names the component kinds and the placement for the busy shares.
	top, _, _, err := w.build(buildOpts{markers: 1, workers: tcpWorkers})
	if err != nil {
		return nil, err
	}
	t.kinds = componentKinds(top)
	t.placed = top.Placement(tcpWorkers)

	col := &collector{sources: make([]*sourceLog, sourcePar)}
	for worker := 0; worker < tcpWorkers; worker++ {
		b, err := os.ReadFile(reportPath(reportDir(cfg), worker))
		if err != nil {
			return nil, fmt.Errorf("worker %d left no report: %w", worker, err)
		}
		var rep workerReport
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("worker %d report: %w", worker, err)
		}
		for part, log := range rep.Sources {
			col.sources[part] = log
		}
		if rep.Arrived != nil {
			col.arrived = rep.Arrived
		}
		t.mallocs += rep.Mallocs
		t.bytes += rep.Bytes
		t.rssMiB += float64(rep.MaxRSSKiB) / 1024
	}
	if col.arrived == nil {
		col.arrived = make(markerLog, markers) // no worker saw a marker reach the tap
	}
	t.latencies(col, w.items(1))
	return t, nil
}
