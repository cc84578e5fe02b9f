package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"datatrace/internal/compile"
	"datatrace/internal/queries"
	"datatrace/internal/storm"
)

// This file is the CI performance gate, `dttbench -gate`: three rules
// over the sweeps of this package, each with its floor or ceiling as a
// constant beside it. They hold properties no equivalence test sees;
// whether a change is faster or slower is benchmark/'s to say.
// DESIGN.md §6 has the reasoning behind each rule.

// Verdict is one gate's outcome; it prints as one line of report.
type Verdict struct {
	Gate   string
	Pass   bool
	Detail string
}

func (v Verdict) String() string {
	status := "FAIL"
	if v.Pass {
		status = "PASS"
	}
	return fmt.Sprintf("%s gate: %s  %s", v.Gate, status, v.Detail)
}

// Gate runs the three gates on the workloads allocBaseline was measured
// at: 12 k events over 200 users, parallelism 4 over 2 source
// partitions, 2 µs simulated DB latency, and DefaultConfig's Smart
// Homes workload at the same parallelism.
func Gate() ([]Verdict, error) {
	cfg := DefaultConfig()
	cfg.Yahoo.EventsPerSecond, cfg.Yahoo.Seconds, cfg.Yahoo.Users = 1000, 12, 200
	cfg.MaxWorkers = 4
	return gate(cfg)
}

func gate(cfg Config) ([]Verdict, error) {
	transport, err := transportSweep(cfg, []int{1, 64})
	if err != nil {
		return nil, err
	}
	// The passes' operating point: a 10× denser event rate, where
	// sender-side combining actually compresses, and a DB at in-memory
	// speed — a latency floor identical on both sides only dilutes the ratio.
	dense := cfg
	dense.Yahoo.EventsPerSecond *= 10
	dense.OpDelay = 0
	fusion, err := fusionSweep(dense, fusionPairs, []FusionRow{{Label: "none"}, {Label: "both", FuseChains: true, Combiners: true}})
	if err != nil {
		return nil, err
	}
	// Workload-paced runs only: their malloc counts repeat to ~1 %
	// whatever the machine load. At the throughput-paced dense point pool
	// hit rates depend on flush timing and counts wobble tens of percent.
	query := func(name string) queries.Spec { s := queryIV(cfg); s.Query = name; return s }
	off, rec := queryIV(cfg), queryIV(cfg)
	off.Options, rec.Options = compile.Defaults(), compile.Defaults()
	off.Options.FuseChains, off.Options.Combiners = false, false
	rec.Options.Recovery = &storm.RecoveryPolicy{Enabled: true}
	arms := []arm{{label: "I", spec: query("I")}, {label: "IV", spec: queryIV(cfg)}, {label: "IV passes-off", spec: off},
		{label: "IV recovery", spec: rec}, {label: "VI", spec: query("VI")}, {label: "Smart Homes", spec: queryIV(cfg), home: &cfg.SmartHome}}
	runs, err := interleave(cfg, "allocation", 3, arms)
	if err != nil {
		return nil, err
	}
	labels, mallocs := make([]string, len(arms)), make([]uint64, len(arms))
	for i, a := range arms {
		var counts []float64
		for _, r := range runs[i] {
			counts = append(counts, float64(r.mallocs))
		}
		labels[i], mallocs[i] = a.label, uint64(median(counts))
	}
	return []Verdict{
		transportRule(transport.Rows),
		fusionGuard(fusion.Rows[0].walls, fusion.Rows[1].walls),
		allocRule(labels, mallocs, allocBaseline),
	}, nil
}

// transportFloor is how much faster than batch-1 the best batched run
// must be. The real ratio is 3.0–3.6×; "faster at all" passed 5 of 6
// runs of a transport sabotaged to parity, so the floor sits at half the
// real margin, where noise cannot carry a parity transport over it.
const transportFloor = 1.5

// transportRule: the best batched wall must beat the best batch-1 wall by
// transportFloor — a regression to parity with one send per event is a
// bug even while every equivalence test stays green.
func transportRule(rows []TransportRow) Verdict {
	var b1, batched time.Duration
	for _, r := range rows {
		switch {
		case r.BatchSize == 1:
			b1 = r.Wall
		case batched == 0 || r.Wall < batched:
			batched = r.Wall
		}
	}
	if b1 <= 0 || batched <= 0 {
		return Verdict{"transport", false, fmt.Sprintf("MISSING a side: batched %v, batch-1 %v", batched, b1)}
	}
	ratio := float64(b1) / float64(batched)
	return Verdict{"transport", ratio >= transportFloor,
		fmt.Sprintf("batched %v  batch-1 %v  ratio %.2f (floor %.2f)", batched, b1, ratio, transportFloor)}
}

// The dense guard takes the median of fusionPairs interleaved ratios of
// passes-off wall / passes-on wall and holds it at or above fusionFloor.
// The passes' margin there is 5–15 % and single ratios swing 0.94–1.18 on
// a shared host, so the guard only forbids "materially slower"; whether
// the pass applies is queries.TestChainFusionRemovesAnEdgeHop's to say.
const (
	fusionFloor = 0.90
	fusionPairs = 15
)

func fusionGuard(off, on []time.Duration) Verdict {
	if len(on) == 0 || len(on) != len(off) {
		return Verdict{"fusion", false, fmt.Sprintf("MISSING runs: %d passes-on, %d passes-off", len(on), len(off))}
	}
	ratios := make([]float64, len(on))
	for i := range on {
		ratios[i] = off[i].Seconds() / on[i].Seconds()
	}
	med := median(ratios)
	return Verdict{"fusion", med >= fusionFloor,
		fmt.Sprintf("dense median speedup %.2f over %d pairs (floor %.2f)", med, len(ratios), fusionFloor)}
}

// allocBaseline holds the mallocs of one queries.Run of each gated run
// from cold pools: medians of 9 runs, re-measured when Query VI's
// Cluster stage moved to in-place monoids (VI 23 365 → 12 202), Query IV's
// window stopped regrowing its slices during warm-up (IV 3 267 → 2 886),
// and checkpoints moved from per-cut gob to the typed snapshot codec into
// reused buffers, with keyed state stored as columns (IV recovery
// 9 390 → 2 886, IV 2 886 → 2 680, IV passes-off 2 666 → 2 470,
// VI 12 202 → 12 046), and when the transport stopped pooling message
// vectors, whose cold pool allocated one per vector in flight (I 13 851
// → 13 428, IV 2 680 → 2 215, IV passes-off 2 470 → 2 019, IV recovery
// 2 886 → 2 447, VI 12 046 → 11 567). Smart Homes (the Figure 6
// pipeline on DefaultConfig's Smart Homes workload, set-up included)
// joined when its ordered templates went typed end to end: 182 065 on
// the boxed path, 17 999 typed, so a fall-back to boxing fails the gate.
// Query VI's Features went typed at its markers (VI 11 652 → 9 320, so a
// fall-back to boxed marker output fails the gate too).
// A change that moves a count commits the new baseline with it — the
// verdict line prints the measured counts.
var allocBaseline = map[string]uint64{"I": 13428, "IV": 2215, "IV passes-off": 2019, "IV recovery": 2447, "VI": 9320, "Smart Homes": 17999}

// allocSlack is how far over its baseline a run's count may go.
const allocSlack = 1.10

// allocRule: every gated run has a baseline and stays within allocSlack of it.
func allocRule(labels []string, mallocs []uint64, baseline map[string]uint64) Verdict {
	v := Verdict{Gate: "allocation", Pass: len(labels) > 0}
	parts := make([]string, len(labels))
	for i, label := range labels {
		base, ok := baseline[label]
		if !ok {
			v.Pass = false
			parts[i] = fmt.Sprintf("%s %d MISSING baseline", label, mallocs[i])
			continue
		}
		ratio := float64(mallocs[i]) / float64(base)
		v.Pass = v.Pass && ratio <= allocSlack
		parts[i] = fmt.Sprintf("%s %d/%d (x%.2f)", label, mallocs[i], base, ratio)
	}
	v.Detail = fmt.Sprintf("mallocs/run vs baseline, ceiling x%.2f: %s", allocSlack, strings.Join(parts, ", "))
	return v
}

// median of a non-empty slice; sorts it.
func median(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
