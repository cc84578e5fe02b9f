package main

import (
	"datatrace/internal/storm"
)

// Cost attribution for the three closed-loop Query IV workloads: the
// layer probes' per-operation costs, multiplied by how many operations
// of each kind a trial's Stats counted, against the CPU time the trial
// actually used. The model is deliberately plain (one term per hop an
// event takes) and the residual is reported, so that a later change can
// say where its saving should appear and how much the probes do not
// explain. Workloads without a model report nothing explained.

// Component names of the compiled Query IV topology: the fused
// Filter→Project bolt keeps its tail's name.
const (
	q4Source = yahooSource
	q4Fused  = "Project"
	q4Count  = "Count(10 sec)"
)

// crossShare is the share of (producer instance, consumer instance)
// pairs of an edge that sit on different workers. Shuffle and fields
// grouping spread rows evenly over the pairs, so it is also the share of
// the edge's rows that cross the wire.
func crossShare(placed []storm.Placed, from, to string) float64 {
	var pairs, cross int
	for _, a := range placed {
		if a.Component != from {
			continue
		}
		for _, b := range placed {
			if b.Component != to {
				continue
			}
			pairs++
			if a.Worker != b.Worker {
				cross++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(cross) / float64(pairs)
}

// explainedNs is the model's total for one trial, in nanoseconds.
func explainedNs(sp spec, t *trial, probe func(string) float64) float64 {
	items := float64(t.items)
	_, fusedOut := t.stats.Component(q4Fused)
	_, combOut := t.stats.Combined()
	_, countOut := t.stats.Component(q4Count)
	// Every aligned executor handles each marker once.
	cuts := int64(len(t.latMs) + t.lost)
	var countCuts, allCuts int64
	for _, is := range t.stats.Instances() {
		if is.Component == q4Count {
			countCuts += cuts
		}
		if t.kinds[is.Component] != "spout" {
			allCuts += cuts
		}
	}

	ns := items * probe("storm.hop_cols.ns_per_row")            // source → fused bolt, columnar
	ns += items * probe("core.stateless_cols.ns_per_row")       // Filter → Project, one loop
	ns += float64(fusedOut) * probe("stream.hash.ns_per_key")   // fields routing of the views
	ns += float64(combOut) * probe("storm.hop_cols.ns_per_row") // partial aggregates → Count
	ns += float64(combOut) * probe("core.keyed_unordered_cols.ns_per_row")
	ns += float64(countCuts) * probe("core.keyed_unordered.us_per_marker") * 1e3
	ns += 2 * float64(countOut) * probe("storm.hop_b64.ns_per_event") // Count → sink and → tap, boxed
	if sp.Recovery {
		ns += float64(allCuts) * probe("storm.recovery.us_per_cut") * 1e3
	}
	if sp.TCP {
		perRow := probe("codec.frame_cols.encode_ns_per_row") + probe("codec.frame_cols.decode_ns_per_row") +
			probe("codec.frame_cols.bytes_per_row")/1024*probe("net.loopback.ns_per_kib")
		perEvent := probe("codec.frame_boxed.encode_ns_per_event") + probe("codec.frame_boxed.decode_ns_per_event") +
			probe("codec.frame_boxed.bytes_per_event")/1024*probe("net.loopback.ns_per_kib")
		ns += items * crossShare(t.placed, q4Source, q4Fused) * perRow
		ns += float64(combOut) * crossShare(t.placed, q4Fused, q4Count) * perRow
		ns += float64(countOut) * (crossShare(t.placed, q4Count, sinkName) + crossShare(t.placed, q4Count, tapName)) * perEvent
	}
	return ns
}

// attribution reports the share of the measured CPU time per event the
// model explains, and the rest in nanoseconds per event.
func (o *outcome) attribution(r *runReport) {
	ts := o.untraced
	measured := median(perTrial(ts, func(t *trial) float64 { return float64(t.cpu.Nanoseconds()) / float64(t.items) }))
	share := 0.0
	if sp := o.cfg.sp; sp.Query == "IV" && sp.Loop == "closed" {
		probe := func(name string) float64 { return o.probes[name].Value }
		explained := median(perTrial(ts, func(t *trial) float64 {
			return explainedNs(sp, t, probe) / float64(t.items)
		}))
		share = explained / measured
	}
	r.put("attrib.explained_share", "ratio", share)
	r.put("attrib.residual_ns_per_event", "ns", measured*(1-share))
}
