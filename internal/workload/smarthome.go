package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"datatrace/internal/db"
	"datatrace/internal/stream"
)

// PlugKey uniquely identifies a smart plug: building, unit within the
// building, plug within the unit (the DEBS 2014 identifier triple).
type PlugKey struct {
	Building int
	Unit     int
	Plug     int
}

// AppendText implements encoding.TextAppender: the key as b/u/p, the
// plugs table's primary key (SetupDB). The JFM join renders every
// measurement's key into a stack buffer with it and looks the bytes up
// (db.Table.GetStrVal), and key hashing renders it the same way, so
// neither allocates.
func (k PlugKey) AppendText(b []byte) ([]byte, error) {
	b = strconv.AppendInt(b, int64(k.Building), 10)
	b = strconv.AppendInt(append(b, '/'), int64(k.Unit), 10)
	return strconv.AppendInt(append(b, '/'), int64(k.Plug), 10), nil
}

// String renders the key as b/u/p: its text (AppendText).
func (k PlugKey) String() string {
	var buf [64]byte
	b, _ := k.AppendText(buf[:0])
	return string(b)
}

// PlugMeasurement is one smart-plug load reading: a timestamp in
// seconds and the instantaneous power draw in Watts, with the plug's
// identifier triple.
type PlugMeasurement struct {
	Timestamp int64
	Value     float64 // Watts
	Key       PlugKey
}

// DeviceTypes are the electrical device categories plugs are attached
// to; load prediction is separate per type (Figure 5's DType key).
var DeviceTypes = []string{"ac", "fridge", "lights", "oven", "tv", "washer"}

// SmartHomeConfig parameterizes the generator.
type SmartHomeConfig struct {
	// Buildings, UnitsPerBuilding and PlugsPerUnit size the
	// deployment.
	Buildings, UnitsPerBuilding, PlugsPerUnit int
	// Seconds is the stream's event-time length.
	Seconds int
	// MarkerPeriod is the marker interval in seconds (paper: 10; the
	// i-th marker is a watermark for timestamp 10·i).
	MarkerPeriod int
	// GapProb drops a measurement (missing data point to interpolate).
	GapProb float64
	// DupProb duplicates a measurement at the same timestamp.
	DupProb float64
	// Disorder shuffles items within each marker block, modelling the
	// hub's lack of ordering guarantees between watermarks.
	Disorder bool
	// Seed drives the deterministic generator.
	Seed int64
}

// DefaultSmartHomeConfig is a laptop-scale version of the DEBS 2014
// deployment.
func DefaultSmartHomeConfig() SmartHomeConfig {
	return SmartHomeConfig{
		Buildings:        4,
		UnitsPerBuilding: 5,
		PlugsPerUnit:     3,
		Seconds:          120,
		MarkerPeriod:     10,
		GapProb:          0.15,
		DupProb:          0.05,
		Disorder:         true,
		Seed:             1,
	}
}

// SmartHome generates the plug-measurement stream and the plug
// metadata table.
type SmartHome struct {
	cfg SmartHomeConfig
}

// NewSmartHome validates the configuration and returns a generator.
func NewSmartHome(cfg SmartHomeConfig) (*SmartHome, error) {
	if cfg.Buildings < 1 || cfg.UnitsPerBuilding < 1 || cfg.PlugsPerUnit < 1 {
		return nil, fmt.Errorf("workload: smart-home config needs a positive deployment: %+v", cfg)
	}
	if cfg.Seconds < 1 || cfg.MarkerPeriod < 1 {
		return nil, fmt.Errorf("workload: smart-home config needs positive duration and marker period: %+v", cfg)
	}
	if cfg.GapProb < 0 || cfg.GapProb >= 1 || cfg.DupProb < 0 || cfg.DupProb >= 1 {
		return nil, fmt.Errorf("workload: smart-home probabilities out of range: %+v", cfg)
	}
	return &SmartHome{cfg: cfg}, nil
}

// Plugs enumerates all plug keys.
func (s *SmartHome) Plugs() []PlugKey {
	var keys []PlugKey
	for b := 0; b < s.cfg.Buildings; b++ {
		for u := 0; u < s.cfg.UnitsPerBuilding; u++ {
			for p := 0; p < s.cfg.PlugsPerUnit; p++ {
				keys = append(keys, PlugKey{Building: b, Unit: u, Plug: p})
			}
		}
	}
	return keys
}

// DeviceTypeOf is the static plug → device type assignment.
func (s *SmartHome) DeviceTypeOf(k PlugKey) string {
	return DeviceTypes[(k.Building*31+k.Unit*7+k.Plug)%len(DeviceTypes)]
}

// SetupDB loads the plugs(plug, device_type) metadata table the JFM
// stage joins against.
func (s *SmartHome) SetupDB(d *db.DB) error {
	plugs, err := d.CreateTable("plugs", []db.Column{
		{Name: "plug", Type: db.String},
		{Name: "device_type", Type: db.String},
	}, "plug")
	if err != nil {
		return err
	}
	for _, k := range s.Plugs() {
		if err := plugs.Insert(k.String(), s.DeviceTypeOf(k)); err != nil {
			return err
		}
	}
	return nil
}

// baseLoad is the deterministic ground-truth load curve per device
// type: a type-specific level with a daily sinusoidal component. The
// prediction pipeline learns (an aggregate of) this curve.
func baseLoad(dtype string, ts int64) float64 {
	var level, swing, phase float64
	switch dtype {
	case "ac":
		level, swing, phase = 1500, 600, 0
	case "fridge":
		level, swing, phase = 150, 20, 1
	case "lights":
		level, swing, phase = 120, 100, 2
	case "oven":
		level, swing, phase = 800, 700, 3
	case "tv":
		level, swing, phase = 200, 150, 4
	default: // washer
		level, swing, phase = 500, 450, 5
	}
	day := float64(ts%86400) / 86400
	return level + swing*math.Sin(2*math.Pi*day+phase)
}

// BaseLoad exposes the per-device-type ground-truth load curve, so
// the prediction pipeline can build its training set and tests can
// score predictions.
func BaseLoad(dtype string, ts int64) float64 { return baseLoad(dtype, ts) }

// GroundTruth returns the noise-free load of a plug at a timestamp —
// the signal the generator perturbs; exposed so tests and the ML
// pipeline can quantify prediction error.
func (s *SmartHome) GroundTruth(k PlugKey, ts int64) float64 {
	return baseLoad(s.DeviceTypeOf(k), ts)
}

// Events materializes the measurement stream: every plug produces one
// reading every 2 seconds (with gaps and duplicates), markers appear
// every MarkerPeriod seconds, and the watermark guarantee holds — all
// items with Timestamp < MarkerPeriod·i are emitted before the i-th
// marker. With Disorder, items inside a block are shuffled.
func (s *SmartHome) Events() []stream.Event {
	r := rand.New(rand.NewSource(s.cfg.Seed))
	plugs := s.Plugs()
	var out []stream.Event
	seq := int64(0)
	for blockStart := 0; blockStart < s.cfg.Seconds; blockStart += s.cfg.MarkerPeriod {
		blockEnd := blockStart + s.cfg.MarkerPeriod
		if blockEnd > s.cfg.Seconds {
			blockEnd = s.cfg.Seconds
		}
		var block []stream.Event
		for ts := blockStart; ts < blockEnd; ts += 2 {
			for _, k := range plugs {
				if r.Float64() < s.cfg.GapProb {
					continue // missing data point
				}
				m := PlugMeasurement{
					Timestamp: int64(ts),
					Value:     s.GroundTruth(k, int64(ts)) + r.NormFloat64()*10,
					Key:       k,
				}
				block = append(block, stream.Item(stream.Unit{}, m))
				if r.Float64() < s.cfg.DupProb {
					dup := m
					dup.Value += r.NormFloat64() * 5
					block = append(block, stream.Item(stream.Unit{}, dup))
				}
			}
		}
		if s.cfg.Disorder {
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		out = append(out, block...)
		out = append(out, stream.Mark(stream.Marker{Seq: seq, Timestamp: int64(blockEnd)}))
		seq++
	}
	return out
}

// PartitionsByBuilding splits the stream into one sub-source per
// building (Building0..BuildingN in Figure 5), each carrying the full
// marker sequence. n must divide into the building count or be the
// building count; excess partitions replay only markers.
func (s *SmartHome) PartitionsByBuilding(n int) []Iterator {
	if n < 1 {
		n = 1
	}
	events := s.Events()
	parts := make([]Iterator, n)
	for p := 0; p < n; p++ {
		i, p := 0, p
		parts[p] = func() (stream.Event, bool) {
			for i < len(events) {
				e := events[i]
				i++
				if e.IsMarker {
					return e, true
				}
				m := e.Value.(PlugMeasurement)
				if m.Key.Building%n == p {
					return e, true
				}
			}
			return stream.Event{}, false
		}
	}
	return parts
}
