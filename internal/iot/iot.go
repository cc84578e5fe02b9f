// Package iot implements the paper's running IoT example: the sensor
// pre-processing pipeline of section 2 and Example 4.1 / Figure 1,
// with the three Table 2 operators (joinFilterMap,
// linearInterpolation, maxOfAvgPerID) written against the core
// templates.
//
// It also reproduces the section 2 motivation experiment: naively
// data-parallelizing the Map stage on the raw runtime (what Storm's
// shuffle grouping does) breaks the order-sensitive interpolation
// stage, while the same parallelization requested through the typed
// framework either is rejected by the type checker (U flowing into an
// order-requiring operator) or — with SORT inserted — preserves the
// semantics at any parallelism.
package iot

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"datatrace/internal/compile"
	"datatrace/internal/core"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
)

// V is a timestamped scalar (the paper's V = {scalar, ts}).
type V struct {
	Scalar float64
	TS     int64
}

// SensorConfig parameterizes the simulated home-IoT hub of Example
// 4.1.
type SensorConfig struct {
	// Sensors is the number of temperature sensors; ids 0..Sensors-1.
	Sensors int
	// WindowSensors lists which sensor ids are near windows (the JFM
	// stage keeps only those). Nil keeps even ids.
	WindowSensors map[int]bool
	// Seconds is the stream's event-time length.
	Seconds int
	// MarkerPeriod is the watermark interval (paper: 10 seconds).
	MarkerPeriod int
	// GapProb drops measurements, creating the gaps LI must fill.
	GapProb float64
	// Seed drives the generator.
	Seed int64
}

// DefaultSensorConfig is a small default deployment.
func DefaultSensorConfig() SensorConfig {
	return SensorConfig{Sensors: 4, Seconds: 60, MarkerPeriod: 10, GapProb: 0.25, Seed: 1}
}

// nearWindow reports whether the sensor is near a window.
func (c SensorConfig) nearWindow(id int) bool {
	if c.WindowSensors != nil {
		return c.WindowSensors[id]
	}
	return id%2 == 0
}

// Stream generates the hub's serialized measurement stream: items are
// raw "id,scalar,ts" strings of type U(Ut,Raw), in increasing
// timestamp order per sensor, with markers every MarkerPeriod seconds
// honouring the watermark guarantee.
func Stream(cfg SensorConfig) []stream.Event {
	r := rand.New(rand.NewSource(cfg.Seed))
	var out []stream.Event
	seq := int64(0)
	for blockStart := 0; blockStart < cfg.Seconds; blockStart += cfg.MarkerPeriod {
		blockEnd := blockStart + cfg.MarkerPeriod
		if blockEnd > cfg.Seconds {
			blockEnd = cfg.Seconds
		}
		for ts := blockStart; ts < blockEnd; ts++ {
			for id := 0; id < cfg.Sensors; id++ {
				if r.Float64() < cfg.GapProb {
					continue
				}
				temp := 20 + 3*float64(id) + r.Float64()
				out = append(out, stream.Item(stream.Unit{},
					fmt.Sprintf("%d,%.3f,%d", id, temp, ts)))
			}
		}
		out = append(out, stream.Mark(stream.Marker{Seq: seq, Timestamp: int64(blockEnd)}))
		seq++
	}
	return out
}

// ParseMeasurement deserializes one raw hub message.
func ParseMeasurement(raw string) (id int, v V, err error) {
	parts := strings.Split(raw, ",")
	if len(parts) != 3 {
		return 0, V{}, fmt.Errorf("iot: malformed message %q", raw)
	}
	id, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, V{}, fmt.Errorf("iot: bad id in %q: %v", raw, err)
	}
	v.Scalar, err = strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return 0, V{}, fmt.Errorf("iot: bad scalar in %q: %v", raw, err)
	}
	v.TS, err = strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return 0, V{}, fmt.Errorf("iot: bad ts in %q: %v", raw, err)
	}
	return id, v, nil
}

// JFMOp is Table 2's joinFilterMap: deserialize, keep window sensors,
// key by sensor id. U(Ut,Raw) → U(ID,V).
func JFMOp(cfg SensorConfig) core.Operator {
	return &core.Stateless[stream.Unit, string, int, V]{
		OpName: "JFM",
		In:     stream.U("Ut", "Raw"),
		Out:    stream.U("ID", "V"),
		OnItem: func(emit core.Emit[int, V], _ stream.Unit, raw string) {
			id, v, err := ParseMeasurement(raw)
			if err != nil {
				return // drop malformed messages
			}
			if cfg.nearWindow(id) {
				emit(id, v)
			}
		},
	}
}

// SortOp is the SORT stage: U(ID,V) → O(ID,V), per sensor by
// timestamp (ties by scalar for determinism).
func SortOp() core.Operator {
	return &core.Sort[int, V]{
		OpName: "SORT",
		In:     stream.U("ID", "V"),
		Out:    stream.O("ID", "V"),
		Less: func(a, b V) bool {
			if a.TS != b.TS {
				return a.TS < b.TS
			}
			return a.Scalar < b.Scalar
		},
	}
}

// liState is LI's per-sensor state: the last reading, once there is
// one. A value without pointers, so checkpoints write it raw.
type liState struct {
	Last V
	Seen bool
}

// LIOp is Table 2's linearInterpolation: per sensor, fill missing
// per-second points. O(ID,V) → O(ID,V).
func LIOp() core.Operator {
	return &core.KeyedOrdered[int, V, V, liState]{
		OpName:       "LI",
		In:           stream.O("ID", "V"),
		Out:          stream.O("ID", "V"),
		InitialState: func() liState { return liState{} },
		OnItem: func(emit func(V), st liState, _ int, v V) liState {
			if !st.Seen {
				emit(v)
				return liState{v, true}
			}
			dt := v.TS - st.Last.TS
			if dt <= 0 {
				return liState{v, true}
			}
			x := st.Last.Scalar
			for i := int64(1); i <= dt; i++ {
				y := x + float64(i)*(v.Scalar-x)/float64(dt)
				emit(V{Scalar: y, TS: st.Last.TS + i})
			}
			return liState{v, true}
		},
	}
}

// avgPair is Table 2's AvgPair monoid element.
type avgPair struct {
	Sum   float64
	Count int64
}

// MaxOfAvgOp is Table 2's maxOfAvgPerID: per sensor, the running
// maximum over the per-block averages, emitted at every marker.
// U(ID,V) → U(ID,V).
func MaxOfAvgOp() core.Operator {
	negInf := -1e308
	return &core.KeyedUnordered[int, V, int, V, float64, avgPair]{
		OpName: "MaxOfAvg",
		InT:    stream.U("ID", "V"),
		OutT:   stream.U("ID", "V"),
		In:     func(_ int, v V) avgPair { return avgPair{Sum: v.Scalar, Count: 1} },
		ID:     func() avgPair { return avgPair{} },
		Combine: func(x, y avgPair) avgPair {
			return avgPair{Sum: x.Sum + y.Sum, Count: x.Count + y.Count}
		},
		InitialState: func() float64 { return negInf },
		UpdateState: func(old float64, agg avgPair) float64 {
			if agg.Count == 0 {
				return old
			}
			if avg := agg.Sum / float64(agg.Count); avg > old {
				return avg
			}
			return old
		},
		OnMarker: func(emit core.Emit[int, V], st float64, id int, m stream.Marker) {
			if st == negInf {
				return
			}
			emit(id, V{Scalar: st, TS: m.Timestamp - 1})
		},
	}
}

// PipelineDAG is the typed pipeline of Example 4.1 extended with the
// Table 2 aggregation stage: HUB → JFM → SORT → LI → MaxOfAvg → SINK.
func PipelineDAG(cfg SensorConfig, par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("hub", stream.U("Ut", "Raw"))
	jfm := d.Op(JFMOp(cfg), par, src)
	srt := d.Op(SortOp(), par, jfm)
	li := d.Op(LIOp(), par, srt)
	max := d.Op(MaxOfAvgOp(), par, li)
	d.Sink("sink", max)
	return d
}

// IllTypedDAG is the section 2 pipeline WITHOUT the sort: the
// unordered JFM output flows straight into the order-requiring LI.
// Its Check() must fail — the framework rejects at compile time the
// very deployment that naive parallelization silently corrupts.
func IllTypedDAG(cfg SensorConfig, par int) *core.DAG {
	d := core.NewDAG()
	src := d.Source("hub", stream.U("Ut", "Raw"))
	jfm := d.Op(JFMOp(cfg), par, src)
	li := d.Op(LIOp(), par, jfm)
	d.Sink("sink", li)
	return d
}

// Reference evaluates the typed pipeline sequentially.
func Reference(cfg SensorConfig) (map[string][]stream.Event, error) {
	return PipelineDAG(cfg, 1).Eval(map[string][]stream.Event{"hub": Stream(cfg)})
}

// RunTyped compiles and runs the typed pipeline at the given
// parallelism on the storm runtime.
func RunTyped(cfg SensorConfig, par int) (*storm.Result, error) {
	events := Stream(cfg)
	top, err := compile.Compile(PipelineDAG(cfg, par), map[string]compile.SourceSpec{
		"hub": {Parallelism: 1, Factory: func(int) storm.Spout { return storm.SliceSpout(events) }},
	}, nil)
	if err != nil {
		return nil, err
	}
	return top.Run()
}

// RunNaive builds the section 2 deployment by hand: the Map stage is
// replicated behind a raw shuffle grouping (exactly what Storm does
// when given a parallelism hint) and LI consumes the merged stream
// as-is, with no sorting and no marker alignment. The result is a
// stream whose interleaving — and therefore whose interpolated values
// and marker structure — differs from the specification.
func RunNaive(cfg SensorConfig, mapPar int) (*storm.Result, error) {
	events := Stream(cfg)
	top := storm.NewTopology("naive")
	top.AddSpout("hub", 1, func(int) storm.Spout { return storm.SliceSpout(events) })
	top.AddBolt("map", mapPar, func(int) storm.Bolt {
		op := JFMOp(cfg).New()
		return storm.BoltFunc(func(e stream.Event, emit func(stream.Event)) { op.Next(e, emit) })
	}).ShuffleGrouping("hub", false)
	top.AddBolt("li", 1, func(int) storm.Bolt {
		op := LIOp().New()
		return storm.BoltFunc(func(e stream.Event, emit func(stream.Event)) { op.Next(e, emit) })
	}).GlobalGrouping("map", false)
	top.AddBolt("max", 1, func(int) storm.Bolt {
		op := MaxOfAvgOp().New()
		return storm.BoltFunc(func(e stream.Event, emit func(stream.Event)) { op.Next(e, emit) })
	}).GlobalGrouping("li", false)
	top.AddSink("sink", "max")
	return top.Run()
}

// SinkType is the typed pipeline's output type.
func SinkType() stream.Type { return stream.U("ID", "V") }
