package queries

import (
	"maps"
	"slices"

	"datatrace/internal/core"
	"datatrace/internal/ml"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// This file builds the typed transduction DAGs (the "generated"
// variants). Every vertex is an instance of a Table 1 template, so by
// Theorem 4.2 each DAG has a well-defined denotation and by Corollary
// 4.4 any parallel deployment the compiler produces is equivalent.

// SlidingWindowBlocks is Query IV's window length in marker periods
// (markers fire every second; the window is 10 seconds).
const SlidingWindowBlocks = 10

// TumblingWindowBlocks is Query V's window length.
const TumblingWindowBlocks = 10

// enrichOp is Query I's single stage: a stateless DB join attaching
// the campaign to every event and keying the output by campaign.
func enrichOp(env *Env) core.Operator {
	return &core.Stateless[stream.Unit, workload.YahooEvent, int64, Enriched]{
		OpName: "Enrich",
		In:     stream.U("Ut", "YItem"),
		Out:    stream.U("CID", "Enriched"),
		OnItem: func(emit core.Emit[int64, Enriched], _ stream.Unit, ev workload.YahooEvent) {
			cid := env.CampaignOf(ev.AdID)
			emit(cid, Enriched{Ev: ev, Campaign: cid})
		},
	}
}

// QueryIDAG: SOURCE → Enrich → SINK.
func QueryIDAG(env *Env, par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("yahoo", stream.U("Ut", "YItem"))
	enrich := d.Op(enrichOp(env), par, src)
	d.Sink("sink", enrich)
	return d
}

// countPerUserOp is Query II's stage: a per-user event count over the
// whole history, persisted to the user_counts table and emitted at
// every marker.
func countPerUserOp(env *Env) core.Operator {
	counts := env.DB.MustTable("user_counts")
	return &core.KeyedUnordered[int64, workload.YahooEvent, int64, int64, int64, int64]{
		OpName:       "CountPerUser",
		InT:          stream.U("UID", "YItem"),
		OutT:         stream.U("UID", "Long"),
		In:           func(int64, workload.YahooEvent) int64 { return 1 },
		ID:           func() int64 { return 0 },
		Combine:      func(x, y int64) int64 { return x + y },
		InitialState: func() int64 { return 0 },
		UpdateState:  func(old, agg int64) int64 { return old + agg },
		OnMarker: func(emit core.Emit[int64, int64], state int64, user int64, m stream.Marker) {
			//lint:ignore DTT003 the benchmark's external store: user_counts is written once per key per marker, in marker order, and keyed partitioning routes each user to exactly one instance; Table.put is mutex-guarded
			if err := counts.Upsert(user, state); err != nil {
				panic(err)
			}
			emit(user, state)
		},
	}
}

// QueryIIDAG: SOURCE (keyed by user) → CountPerUser → SINK.
func QueryIIDAG(env *Env, par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("yahoo", stream.U("UID", "YItem"))
	count := d.Op(countPerUserOp(env), par, src)
	d.Sink("sink", count)
	return d
}

// locateOp attaches the user's location and keys by it (Query III) .
func locateOp(env *Env) core.Operator {
	return &core.Stateless[stream.Unit, workload.YahooEvent, int64, Located]{
		OpName: "Locate",
		In:     stream.U("Ut", "YItem"),
		Out:    stream.U("LOC", "Located"),
		OnItem: func(emit core.Emit[int64, Located], _ stream.Unit, ev workload.YahooEvent) {
			loc := env.LocationOf(ev.UserID)
			emit(loc, Located{Ev: ev, Location: loc})
		},
	}
}

// summarizeOp counts the entire history per location (Query III's
// second stage).
func summarizeOp() core.Operator {
	return &core.KeyedUnordered[int64, Located, int64, int64, int64, int64]{
		OpName:       "Summarize",
		InT:          stream.U("LOC", "Located"),
		OutT:         stream.U("LOC", "Long"),
		In:           func(int64, Located) int64 { return 1 },
		ID:           func() int64 { return 0 },
		Combine:      func(x, y int64) int64 { return x + y },
		InitialState: func() int64 { return 0 },
		UpdateState:  func(old, agg int64) int64 { return old + agg },
		OnMarker: func(emit core.Emit[int64, int64], state int64, loc int64, m stream.Marker) {
			emit(loc, state)
		},
	}
}

// QueryIIIDAG: SOURCE → Locate → Summarize → SINK.
func QueryIIIDAG(env *Env, par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("yahoo", stream.U("Ut", "YItem"))
	loc := d.Op(locateOp(env), par, src)
	sum := d.Op(summarizeOp(), par, loc)
	d.Sink("sink", sum)
	return d
}

// filterMapOp is the first stage of the original Yahoo pipeline
// (Figure 3) as a single vertex: keep view events, project the ad id,
// look up the campaign, and key by campaign. The window-template DAG
// still uses it; Query IV/V split it into filterOp → projectOp so the
// compiler's chain-fusion pass has a chain to collapse (Figure 3's
// pipeline actually draws Filter and Project as separate vertices).
func filterMapOp(env *Env) core.Operator {
	return &core.Stateless[stream.Unit, workload.YahooEvent, int64, stream.Unit]{
		OpName: "Filter-Map",
		In:     stream.U("Ut", "YItem"),
		Out:    stream.U("CID", "Ut"),
		OnItem: func(emit core.Emit[int64, stream.Unit], _ stream.Unit, ev workload.YahooEvent) {
			if ev.Type != workload.View {
				return
			}
			emit(env.CampaignOf(ev.AdID), stream.Unit{})
		},
	}
}

// filterOp keeps view events (Figure 3's Filter vertex).
func filterOp() core.Operator {
	return &core.Stateless[stream.Unit, workload.YahooEvent, stream.Unit, workload.YahooEvent]{
		OpName: "Filter",
		In:     stream.U("Ut", "YItem"),
		Out:    stream.U("Ut", "YItem"),
		OnItem: func(emit core.Emit[stream.Unit, workload.YahooEvent], _ stream.Unit, ev workload.YahooEvent) {
			if ev.Type == workload.View {
				emit(stream.Unit{}, ev)
			}
		},
	}
}

// projectOp looks up the campaign of the surviving views and keys by
// it (Figure 3's Project + join).
func projectOp(env *Env) core.Operator {
	return &core.Stateless[stream.Unit, workload.YahooEvent, int64, stream.Unit]{
		OpName: "Project",
		In:     stream.U("Ut", "YItem"),
		Out:    stream.U("CID", "Ut"),
		OnItem: func(emit core.Emit[int64, stream.Unit], _ stream.Unit, ev workload.YahooEvent) {
			emit(env.CampaignOf(ev.AdID), stream.Unit{})
		},
	}
}

// slidingCountOp is Figure 3's Count(10 sec): per campaign, the
// number of views in the last SlidingWindowBlocks marker periods,
// emitted at every marker.
func slidingCountOp() core.Operator {
	return &core.KeyedUnordered[int64, stream.Unit, int64, int64, SlidingState, int64]{
		OpName:       "Count(10 sec)",
		InT:          stream.U("CID", "Ut"),
		OutT:         stream.U("CID", "Long"),
		In:           func(int64, stream.Unit) int64 { return 1 },
		ID:           func() int64 { return 0 },
		Combine:      func(x, y int64) int64 { return x + y },
		InitialState: func() SlidingState { return SlidingState{} },
		UpdateState: func(old SlidingState, agg int64) SlidingState {
			old.Blocks[old.Next] = agg
			old.Next = (old.Next + 1) % SlidingWindowBlocks
			return old
		},
		OnMarker: func(emit core.Emit[int64, int64], st SlidingState, cid int64, m stream.Marker) {
			var total int64
			for _, b := range st.Blocks {
				total += b
			}
			emit(cid, total)
		},
	}
}

// QueryIVDAG: SOURCE → Filter → Project → Count(10 sec) → SINK
// (Figure 3). Filter and Project form a stateless chain the compiler
// fuses into one bolt when Options.FuseChains is on.
func QueryIVDAG(env *Env, par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("yahoo", stream.U("Ut", "YItem"))
	flt := d.Op(filterOp(), par, src)
	prj := d.Op(projectOp(env), par, flt)
	cnt := d.Op(slidingCountOp(), par, prj)
	d.Sink("sink", cnt)
	return d
}

// tumblingCountOp is Query V: per-campaign view counts over
// non-overlapping TumblingWindowBlocks-long windows.
func tumblingCountOp() core.Operator {
	return &core.KeyedUnordered[int64, stream.Unit, int64, int64, TumblingState, int64]{
		OpName:       "Count(tumbling)",
		InT:          stream.U("CID", "Ut"),
		OutT:         stream.U("CID", "Long"),
		In:           func(int64, stream.Unit) int64 { return 1 },
		ID:           func() int64 { return 0 },
		Combine:      func(x, y int64) int64 { return x + y },
		InitialState: func() TumblingState { return TumblingState{} },
		UpdateState: func(old TumblingState, agg int64) TumblingState {
			st := TumblingState{Acc: old.Acc + agg, BlockCount: old.BlockCount + 1}
			if st.BlockCount == TumblingWindowBlocks {
				st.LastWindow = st.Acc
				st.Acc, st.BlockCount, st.Ready = 0, 0, true
			}
			return st
		},
		OnMarker: func(emit core.Emit[int64, int64], st TumblingState, cid int64, m stream.Marker) {
			if st.Ready {
				emit(cid, st.LastWindow)
			}
		},
	}
}

// QueryVDAG: SOURCE → Filter → Project → Count(tumbling) → SINK.
func QueryVDAG(env *Env, par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("yahoo", stream.U("Ut", "YItem"))
	flt := d.Op(filterOp(), par, src)
	prj := d.Op(projectOp(env), par, flt)
	cnt := d.Op(tumblingCountOp(), par, prj)
	d.Sink("sink", cnt)
	return d
}

// locateForUserOp is Query VI's first stage: enrich with location but
// key by user (the second stage aggregates per user).
func locateForUserOp(env *Env) core.Operator {
	return &core.Stateless[stream.Unit, workload.YahooEvent, int64, Located]{
		OpName: "Locate-ByUser",
		In:     stream.U("Ut", "YItem"),
		Out:    stream.U("UID", "Located"),
		OnItem: func(emit core.Emit[int64, Located], _ stream.Unit, ev workload.YahooEvent) {
			emit(ev.UserID, Located{Ev: ev, Location: env.LocationOf(ev.UserID)})
		},
	}
}

// featuresOp is Query VI's second stage: cumulative per-user
// interaction counts, re-keyed by location at every marker.
func featuresOp() core.Operator {
	return &core.KeyedUnordered[int64, Located, int64, UserFeatures, Features, Features]{
		OpName: "Features",
		InT:    stream.U("UID", "Located"),
		OutT:   stream.U("LOC", "Feat"),
		In: func(_ int64, l Located) Features {
			f := Features{Location: l.Location}
			switch l.Ev.Type {
			case workload.View:
				f.Views = 1
			case workload.Click:
				f.Clicks = 1
			default:
				f.Purchases = 1
			}
			return f
		},
		ID:           FeaturesID,
		Combine:      CombineFeatures,
		InitialState: FeaturesID,
		UpdateState:  CombineFeatures,
		OnMarker: func(emit core.Emit[int64, UserFeatures], st Features, user int64, m stream.Marker) {
			if st.Location < 0 {
				return // no events for this user yet
			}
			emit(st.Location, UserFeatures{User: user, F: st})
		},
	}
}

// clusterOp is Query VI's third stage: per location, k-means over the
// latest feature vector of each user, run at every marker. The block
// aggregate is the map of users heard from in the block; Features
// emits each user once per block, so the union is commutative. Combine
// copies — it is the specification — while MergeInto and Fold insert
// into the aggregate the runtime owns, so a block of n users costs n
// inserts instead of n²/2 (Fold also spares In's one-entry map).
func clusterOp(k int) core.Operator {
	type state = map[int64]Features
	union := func(x, y state) state {
		merged := make(state, len(x)+len(y))
		maps.Copy(merged, x)
		maps.Copy(merged, y)
		return merged
	}
	return &core.KeyedUnordered[int64, UserFeatures, int64, ClusterSummary, state, state]{
		OpName:       "Cluster",
		InT:          stream.U("LOC", "Feat"),
		OutT:         stream.U("LOC", "Summary"),
		In:           func(_ int64, uf UserFeatures) state { return state{uf.User: uf.F} },
		ID:           func() state { return state{} },
		Combine:      union,
		MergeInto:    func(dst *state, src state) { maps.Copy(*dst, src) },
		Fold:         func(acc *state, _ int64, uf UserFeatures) { (*acc)[uf.User] = uf.F },
		InitialState: func() state { return state{} },
		UpdateState:  union,
		OnMarker: func(emit core.Emit[int64, ClusterSummary], st state, loc int64, m stream.Marker) {
			if len(st) < k {
				return
			}
			// Sort users for a deterministic, order-independent input
			// to the (seeded) clustering.
			users := make([]int64, 0, len(st))
			for u := range st {
				users = append(users, u)
			}
			slices.Sort(users)
			// One backing array for all points: two allocations per
			// location and marker instead of one per user.
			points := make([][]float64, len(users))
			coords := make([]float64, 3*len(users))
			for i, u := range users {
				f := st[u]
				p := coords[3*i : 3*i+3 : 3*i+3]
				p[0], p[1], p[2] = f.Views, f.Clicks, f.Purchases
				points[i] = p
			}
			res, err := ml.KMeans(points, k, 50, 7)
			if err != nil {
				panic(err)
			}
			emit(loc, ClusterSummary{K: k, Size: len(points), Inertia: res.Inertia})
		},
	}
}

// ClusterK is Query VI's cluster count.
const ClusterK = 3

// QueryVIDAG: SOURCE → Locate-ByUser → Features → Cluster → SINK.
func QueryVIDAG(env *Env, par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("yahoo", stream.U("Ut", "YItem"))
	loc := d.Op(locateForUserOp(env), par, src)
	feat := d.Op(featuresOp(), par, loc)
	clu := d.Op(clusterOp(ClusterK), par, feat)
	d.Sink("sink", clu)
	return d
}

// QueryIVWindowTemplateDAG is Query IV rebuilt on the specialized
// SlidingAggregate template (the §8 extension) instead of the
// hand-rolled window state inside OpKeyedUnordered — semantically
// identical (TestQueryIVWindowTemplateEquivalent), with the window
// maintenance done by the two-stacks algorithm.
func QueryIVWindowTemplateDAG(env *Env, par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("yahoo", stream.U("Ut", "YItem"))
	fm := d.Op(filterMapOp(env), par, src)
	win := d.Op(&core.SlidingAggregate[int64, stream.Unit, int64]{
		OpName:       "Count(10 sec, template)",
		InT:          stream.U("CID", "Ut"),
		OutT:         stream.U("CID", "Long"),
		WindowBlocks: SlidingWindowBlocks,
		In:           func(int64, stream.Unit) int64 { return 1 },
		ID:           func() int64 { return 0 },
		Combine:      func(x, y int64) int64 { return x + y },
		EmitEmpty:    true,
	}, par, fm)
	d.Sink("sink", win)
	return d
}
