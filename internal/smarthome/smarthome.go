// Package smarthome implements the paper's case study (section 6,
// Figures 5 and 6): power-usage prediction over the DEBS 2014 Smart
// Homes plug-measurement stream, as the seven-stage transduction DAG
//
//	JFM → SORT → LI → Map → SORT → AVG → Predict
//
// with a REPTree regression model for the prediction stage. Every
// stage is a Table 1 template or the built-in SORT, so the whole
// pipeline type-checks as U(Ut,SItem) → O(DType,VT) and deploys in
// parallel with preserved semantics.
package smarthome

import (
	"fmt"

	"datatrace/internal/compile"
	"datatrace/internal/core"
	"datatrace/internal/db"
	"datatrace/internal/ml"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// VT is a timestamped scalar value (the paper's V = {scalar, ts}).
type VT struct {
	Value float64
	TS    int64
}

// PredictHorizon is the prediction horizon in seconds (10 minutes).
const PredictHorizon = 600

// PastWindow is the feature window in seconds (1 minute).
const PastWindow = 60

// Env bundles the case study's substrate: the workload generator, the
// plug metadata table and the trained regression tree.
type Env struct {
	// Cfg is the workload configuration.
	Cfg workload.SmartHomeConfig
	// Gen generates the measurement stream.
	Gen *workload.SmartHome
	// DB holds the plugs metadata table.
	DB *db.DB
	// Plugs is the plug → device type table JFM joins against.
	Plugs *db.Table
	// Keep is the set of device types the JFM stage retains.
	Keep map[string]bool
	// Tree is the trained REPTree predictor.
	Tree *ml.REPTree
}

// NewEnv sets up the database, selects the device types to keep (nil
// keeps every type except "tv", mirroring the paper's filtering), and
// trains the REPTree on a sample of the ground-truth load curves.
func NewEnv(cfg workload.SmartHomeConfig, keep []string) (*Env, error) {
	gen, err := workload.NewSmartHome(cfg)
	if err != nil {
		return nil, err
	}
	d := db.New()
	if err := gen.SetupDB(d); err != nil {
		return nil, err
	}
	keepSet := map[string]bool{}
	if keep == nil {
		for _, dt := range workload.DeviceTypes {
			if dt != "tv" {
				keepSet[dt] = true
			}
		}
	} else {
		for _, dt := range keep {
			keepSet[dt] = true
		}
	}
	tree, err := trainTree()
	if err != nil {
		return nil, err
	}
	return &Env{
		Cfg:   cfg,
		Gen:   gen,
		DB:    d,
		Plugs: d.MustTable("plugs"),
		Keep:  keepSet,
		Tree:  tree,
	}, nil
}

// trainTree fits the predictor on the ground-truth per-device-type
// load curves: features are (time of day, current average load,
// past-minute consumption) and the label is the average power over
// the next PredictHorizon seconds — the paper's "trained on a subset
// of the data".
func trainTree() (*ml.REPTree, error) {
	var data ml.Dataset
	for _, dtype := range workload.DeviceTypes {
		base := func(ts int64) float64 { return workload.BaseLoad(dtype, ts) }
		for ts := int64(PastWindow); ts < 86400; ts += 97 {
			past := 0.0
			for s := ts - PastWindow + 1; s <= ts; s++ {
				past += base(s)
			}
			future := 0.0
			for s := ts + 1; s <= ts+PredictHorizon; s += 10 {
				future += base(s)
			}
			future /= float64(PredictHorizon / 10)
			data.Append([]float64{float64(ts % 86400), base(ts), past}, future)
		}
	}
	return ml.TrainREPTree(data, ml.DefaultREPTreeConfig())
}

// jfmOp is Figure 5's JFM stage: join with the plugs table, filter to
// the kept device types, and reorganize the tuple into a plug key and
// a timestamped value. U(Ut,SItem) → U(Plug,VT).
func jfmOp(env *Env) core.Operator {
	return &core.Stateless[stream.Unit, workload.PlugMeasurement, workload.PlugKey, VT]{
		OpName: "JFM",
		In:     stream.U("Ut", "SItem"),
		Out:    stream.U("Plug", "VT"),
		OnItem: func(emit core.Emit[workload.PlugKey, VT], _ stream.Unit, m workload.PlugMeasurement) {
			var buf [64]byte
			pk, _ := m.Key.AppendText(buf[:0])
			dtype, ok := env.Plugs.GetStrVal(pk, 1)
			if !ok {
				return
			}
			if !env.Keep[dtype.(string)] {
				return
			}
			emit(m.Key, VT{Value: m.Value, TS: m.Timestamp})
		},
	}
}

// vtLess is the strict total order SORT imposes per key: by
// timestamp, ties broken by value so duplicate timestamps sort
// deterministically in every deployment.
func vtLess(a, b VT) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	return a.Value < b.Value
}

func sortPlugOp() core.Operator {
	return &core.Sort[workload.PlugKey, VT]{
		OpName: "SORT-plug",
		In:     stream.U("Plug", "VT"),
		Out:    stream.O("Plug", "VT"),
		Less:   vtLess,
	}
}

// liState is LI's per-plug state: the last measurement, once there is
// one. A value without pointers, so checkpoints write it raw and no
// item allocates one.
type liState struct {
	Last VT
	Seen bool
}

// liOp is Table 2's linearInterpolation, verbatim: for every plug
// independently, fill in missing per-second data points between the
// previous and current measurement. Duplicate timestamps update the
// state without emitting. O(Plug,VT) → O(Plug,VT).
func liOp() core.Operator {
	return &core.KeyedOrdered[workload.PlugKey, VT, VT, liState]{
		OpName:       "LI",
		In:           stream.O("Plug", "VT"),
		Out:          stream.O("Plug", "VT"),
		InitialState: func() liState { return liState{} },
		OnItem: func(emit func(VT), st liState, _ workload.PlugKey, v VT) liState {
			if !st.Seen {
				emit(v)
				return liState{v, true}
			}
			dt := v.TS - st.Last.TS
			if dt <= 0 {
				// Duplicate (or stale) timestamp: adopt the new value
				// as the state, emit nothing (Table 2's dt=0 case).
				return liState{v, true}
			}
			x := st.Last.Value
			for i := int64(1); i <= dt; i++ {
				y := x + float64(i)*(v.Value-x)/float64(dt)
				emit(VT{Value: y, TS: st.Last.TS + i})
			}
			return liState{v, true}
		},
	}
}

// mapOp projects the plug key to its device type. The input is the
// ordered O(Plug,VT), consumed as U(Plug,VT) by subtyping; the output
// is unordered per device type and must be re-sorted. O(Plug,VT) →
// U(DType,VT).
func mapOp(env *Env) core.Operator {
	return &core.Stateless[workload.PlugKey, VT, string, VT]{
		OpName: "Map",
		In:     stream.U("Plug", "VT"),
		Out:    stream.U("DType", "VT"),
		OnItem: func(emit core.Emit[string, VT], k workload.PlugKey, v VT) {
			emit(env.Gen.DeviceTypeOf(k), v)
		},
	}
}

func sortDTypeOp() core.Operator {
	return &core.Sort[string, VT]{
		OpName: "SORT-dtype",
		In:     stream.U("DType", "VT"),
		Out:    stream.O("DType", "VT"),
		Less:   vtLess,
	}
}

// avgState groups consecutive equal-timestamp values; Open is false
// while no group is open. A value without pointers, like liState.
type avgState struct {
	TS    int64
	Sum   float64
	Count int64
	Open  bool
}

// avgOp computes, per device type, the average of all values with
// the same timestamp (one output per second). A group is flushed when
// a later timestamp arrives or at a marker (the watermark guarantees
// no more values for past seconds). O(DType,VT) → O(DType,VT).
func avgOp() core.Operator {
	return &core.KeyedOrdered[string, VT, VT, avgState]{
		OpName:       "AVG",
		In:           stream.O("DType", "VT"),
		Out:          stream.O("DType", "VT"),
		InitialState: func() avgState { return avgState{} },
		OnItem: func(emit func(VT), st avgState, _ string, v VT) avgState {
			if st.Open && v.TS != st.TS {
				emit(VT{Value: st.Sum / float64(st.Count), TS: st.TS})
				st.Open = false
			}
			if !st.Open {
				st = avgState{TS: v.TS, Open: true}
			}
			st.Sum += v.Value
			st.Count++
			return st
		},
		OnMarker: func(emit func(VT), st avgState, _ string, m stream.Marker) avgState {
			if st.Open {
				emit(VT{Value: st.Sum / float64(st.Count), TS: st.TS})
			}
			return avgState{}
		},
	}
}

// predictState is the per-device-type feature window: the last
// PastWindow per-second averages.
type predictState struct {
	window []VT
}

// predictOp runs the REPTree on (time of day, current load,
// past-minute consumption) for every per-second average and emits the
// predicted average power over the next 10 minutes. O(DType,VT) →
// O(DType,VT).
func predictOp(env *Env) core.Operator {
	return &core.KeyedOrdered[string, VT, VT, *predictState]{
		OpName:       "Predict",
		In:           stream.O("DType", "VT"),
		Out:          stream.O("DType", "VT"),
		InitialState: func() *predictState { return &predictState{} },
		OnItem: func(emit func(VT), st *predictState, _ string, v VT) *predictState {
			st.window = append(st.window, v)
			cut := 0
			for cut < len(st.window) && st.window[cut].TS <= v.TS-PastWindow {
				cut++
			}
			st.window = st.window[cut:]
			past := 0.0
			for _, w := range st.window {
				past += w.Value
			}
			pred := env.Tree.Predict([]float64{float64(v.TS % 86400), v.Value, past})
			emit(VT{Value: pred, TS: v.TS})
			return st
		},
	}
}

// PipelineDAG builds Figure 5's transduction DAG at the given
// per-stage parallelism.
func PipelineDAG(env *Env, par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("hub", stream.U("Ut", "SItem"))
	jfm := d.Op(jfmOp(env), par, src)
	s1 := d.Op(sortPlugOp(), par, jfm)
	li := d.Op(liOp(), par, s1)
	mp := d.Op(mapOp(env), par, li)
	s2 := d.Op(sortDTypeOp(), par, mp)
	avg := d.Op(avgOp(), par, s2)
	pred := d.Op(predictOp(env), par, avg)
	d.Sink("sink", pred)
	return d
}

// Reference computes the pipeline's denotation on the full stream.
func Reference(env *Env) (map[string][]stream.Event, error) {
	return PipelineDAG(env, 1).Eval(map[string][]stream.Event{"hub": env.Gen.Events()})
}

// Run compiles the DAG and executes it on the storm runtime, with the
// source partitioned by building across sourcePar spout instances.
func Run(env *Env, par, sourcePar int) (*storm.Result, error) {
	if par < 1 {
		par = 1
	}
	if sourcePar < 1 {
		sourcePar = 1
	}
	sources := env.Gen.PartitionsByBuilding(sourcePar)
	top, err := compile.Compile(PipelineDAG(env, par), map[string]compile.SourceSpec{
		"hub": {Parallelism: sourcePar, Factory: func(i int) storm.Spout {
			return storm.SpoutFunc(sources[i])
		}},
	}, nil)
	if err != nil {
		return nil, err
	}
	return top.Run()
}

// SinkType is the pipeline's output data-trace type.
func SinkType() stream.Type { return stream.O("DType", "VT") }

// PredictionError summarizes how far the pipeline's predictions are
// from the generator's ground truth: the mean absolute percentage
// error over all emitted predictions.
func PredictionError(env *Env, sink []stream.Event) (mape float64, n int, err error) {
	var total float64
	for _, e := range sink {
		if e.IsMarker {
			continue
		}
		dtype := e.Key.(string)
		v := e.Value.(VT)
		truth := 0.0
		for s := v.TS + 1; s <= v.TS+PredictHorizon; s += 10 {
			truth += workload.BaseLoad(dtype, s)
		}
		truth /= float64(PredictHorizon / 10)
		if truth == 0 {
			continue
		}
		diff := v.Value - truth
		if diff < 0 {
			diff = -diff
		}
		total += diff / truth
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("smarthome: no predictions in sink stream")
	}
	return total / float64(n), n, nil
}
