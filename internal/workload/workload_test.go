package workload

import (
	"fmt"
	"testing"

	"datatrace/internal/db"
	"datatrace/internal/stream"
)

func TestYahooEventsShape(t *testing.T) {
	cfg := DefaultYahooConfig()
	cfg.EventsPerSecond = 50
	cfg.Seconds = 3
	y, err := NewYahoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := y.Events()
	items, markers := 0, 0
	lastSecond := int64(-1)
	for _, e := range events {
		if e.IsMarker {
			markers++
			if e.Marker.Seq != lastSecond+1 {
				t.Fatalf("marker seq %d after %d", e.Marker.Seq, lastSecond)
			}
			lastSecond = e.Marker.Seq
			continue
		}
		items++
		ev := e.Value.(YahooEvent)
		// Watermark guarantee: all items before marker i have
		// EventTime < (i+1) seconds.
		if ev.EventTime >= (lastSecond+2)*1000 {
			t.Fatalf("event time %d violates the watermark after marker %d", ev.EventTime, lastSecond)
		}
		if ev.AdID < 0 || ev.AdID >= int64(y.Ads()) {
			t.Fatalf("ad id %d out of range", ev.AdID)
		}
	}
	if items != 150 || markers != 3 {
		t.Fatalf("items=%d markers=%d, want 150/3", items, markers)
	}
}

func TestYahooDeterminism(t *testing.T) {
	cfg := DefaultYahooConfig()
	cfg.EventsPerSecond = 20
	cfg.Seconds = 2
	y1, _ := NewYahoo(cfg)
	y2, _ := NewYahoo(cfg)
	a, b := y1.Events(), y2.Events()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("event %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestYahooIterMatchesEvents(t *testing.T) {
	cfg := DefaultYahooConfig()
	cfg.EventsPerSecond = 30
	cfg.Seconds = 2
	y, _ := NewYahoo(cfg)
	a := y.Events()
	b := Collect(y.Iter())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestYahooPartitionsCoverStream(t *testing.T) {
	cfg := DefaultYahooConfig()
	cfg.EventsPerSecond = 40
	cfg.Seconds = 3
	y, _ := NewYahoo(cfg)
	full := y.Events()
	for _, n := range []int{1, 2, 3} {
		parts := y.Partitions(n)
		var collected [][]stream.Event
		for _, p := range parts {
			collected = append(collected, Collect(p))
		}
		merged := stream.MergeEvents(collected...)
		if !stream.Equivalent(stream.U("Ut", "YItem"), merged, full) {
			t.Fatalf("partitions(%d) merged ≠ full stream", n)
		}
		// Every partition carries every marker.
		for pi, p := range collected {
			markers := 0
			for _, e := range p {
				if e.IsMarker {
					markers++
				}
			}
			if markers != cfg.Seconds {
				t.Fatalf("partition %d/%d has %d markers, want %d", pi, n, markers, cfg.Seconds)
			}
		}
	}
}

func TestYahooSetupDB(t *testing.T) {
	cfg := DefaultYahooConfig()
	y, _ := NewYahoo(cfg)
	d := db.New()
	if err := y.SetupDB(d); err != nil {
		t.Fatal(err)
	}
	ads := d.MustTable("ads")
	if ads.Len() != y.Ads() {
		t.Fatalf("ads table has %d rows, want %d", ads.Len(), y.Ads())
	}
	row, ok := ads.Get(37)
	if !ok {
		t.Fatal("ad 37 missing")
	}
	if row[1] != y.CampaignOf(37) {
		t.Fatalf("campaign of ad 37 = %v, want %d", row[1], y.CampaignOf(37))
	}
	users := d.MustTable("users")
	if users.Len() != cfg.Users {
		t.Fatalf("users table has %d rows, want %d", users.Len(), cfg.Users)
	}
}

func TestYahooConfigValidation(t *testing.T) {
	bad := DefaultYahooConfig()
	bad.Campaigns = 0
	if _, err := NewYahoo(bad); err == nil {
		t.Fatal("zero campaigns must fail")
	}
	bad = DefaultYahooConfig()
	bad.Seconds = 0
	if _, err := NewYahoo(bad); err == nil {
		t.Fatal("zero duration must fail")
	}
}

func TestSmartHomeWatermarkGuarantee(t *testing.T) {
	cfg := DefaultSmartHomeConfig()
	cfg.Seconds = 40
	s, err := NewSmartHome(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := s.Events()
	markerIdx := int64(0)
	for _, e := range events {
		if e.IsMarker {
			if e.Marker.Seq != markerIdx {
				t.Fatalf("marker seq %d, want %d", e.Marker.Seq, markerIdx)
			}
			markerIdx++
			continue
		}
		m := e.Value.(PlugMeasurement)
		// Items after marker i must have Timestamp ≥ period·i.
		if m.Timestamp < int64(cfg.MarkerPeriod)*markerIdx {
			t.Fatalf("measurement at ts %d appears after marker %d", m.Timestamp, markerIdx-1)
		}
		// And strictly before the next marker's watermark.
		if m.Timestamp >= int64(cfg.MarkerPeriod)*(markerIdx+1) {
			t.Fatalf("measurement at ts %d too early (block %d)", m.Timestamp, markerIdx)
		}
	}
	if markerIdx != int64(cfg.Seconds/cfg.MarkerPeriod) {
		t.Fatalf("marker count %d, want %d", markerIdx, cfg.Seconds/cfg.MarkerPeriod)
	}
}

func TestSmartHomeHasGapsAndDuplicates(t *testing.T) {
	cfg := DefaultSmartHomeConfig()
	cfg.Seconds = 60
	s, _ := NewSmartHome(cfg)
	events := s.Events()
	seen := map[PlugKey]map[int64]int{}
	for _, e := range events {
		if e.IsMarker {
			continue
		}
		m := e.Value.(PlugMeasurement)
		if seen[m.Key] == nil {
			seen[m.Key] = map[int64]int{}
		}
		seen[m.Key][m.Timestamp]++
	}
	gaps, dups := 0, 0
	for _, perTs := range seen {
		for ts := int64(0); ts < int64(cfg.Seconds); ts += 2 {
			switch perTs[ts] {
			case 0:
				gaps++
			case 1:
			default:
				dups++
			}
		}
	}
	if gaps == 0 {
		t.Fatal("generator produced no gaps")
	}
	if dups == 0 {
		t.Fatal("generator produced no duplicate timestamps")
	}
}

func TestSmartHomeSetupDB(t *testing.T) {
	s, _ := NewSmartHome(DefaultSmartHomeConfig())
	d := db.New()
	if err := s.SetupDB(d); err != nil {
		t.Fatal(err)
	}
	plugs := d.MustTable("plugs")
	if plugs.Len() != len(s.Plugs()) {
		t.Fatalf("plugs table has %d rows, want %d", plugs.Len(), len(s.Plugs()))
	}
	k := s.Plugs()[0]
	row, ok := plugs.Get(k.String())
	if !ok || row[1] != s.DeviceTypeOf(k) {
		t.Fatalf("plug row %v", row)
	}
}

// TestPlugKeyString pins the plugs table's key format, b/u/p, which
// SetupDB inserts with and the JFM join looks up with: every plug of a
// deployment is found under it.
func TestPlugKeyString(t *testing.T) {
	for _, k := range []PlugKey{{}, {1, 2, 3}, {40, 0, 999}, {-1, 12345678, -90}} {
		if got, want := k.String(), fmt.Sprintf("%d/%d/%d", k.Building, k.Unit, k.Plug); got != want {
			t.Errorf("PlugKey%v.String() = %q, want %q", k, got, want)
		}
	}
	s, _ := NewSmartHome(DefaultSmartHomeConfig())
	d := db.New()
	if err := s.SetupDB(d); err != nil {
		t.Fatal(err)
	}
	plugs := d.MustTable("plugs")
	for _, k := range s.Plugs() {
		if v, ok := plugs.GetVal(k.String(), 1); !ok || v != s.DeviceTypeOf(k) {
			t.Fatalf("plug %v: GetVal = %v, %v; want %s", k, v, ok, s.DeviceTypeOf(k))
		}
	}
}

func TestSmartHomePartitionsByBuilding(t *testing.T) {
	cfg := DefaultSmartHomeConfig()
	cfg.Seconds = 30
	s, _ := NewSmartHome(cfg)
	full := s.Events()
	n := cfg.Buildings
	parts := s.PartitionsByBuilding(n)
	var collected [][]stream.Event
	for pi, p := range parts {
		evs := Collect(p)
		for _, e := range evs {
			if e.IsMarker {
				continue
			}
			if b := e.Value.(PlugMeasurement).Key.Building; b%n != pi {
				t.Fatalf("building %d leaked into partition %d", b, pi)
			}
		}
		collected = append(collected, evs)
	}
	merged := stream.MergeEvents(collected...)
	if !stream.Equivalent(stream.U("Ut", "SItem"), merged, full) {
		t.Fatal("building partitions do not reassemble the stream")
	}
}

func TestSmartHomeGroundTruthVariesByDeviceType(t *testing.T) {
	s, _ := NewSmartHome(DefaultSmartHomeConfig())
	levels := map[string]float64{}
	for _, k := range s.Plugs() {
		levels[s.DeviceTypeOf(k)] = s.GroundTruth(k, 0)
	}
	if len(levels) < 3 {
		t.Fatalf("only %d device types in deployment", len(levels))
	}
	distinct := map[float64]bool{}
	for _, v := range levels {
		distinct[v] = true
	}
	if len(distinct) < 3 {
		t.Fatal("device types share the same load profile")
	}
}

func TestSmartHomeConfigValidation(t *testing.T) {
	bad := DefaultSmartHomeConfig()
	bad.GapProb = 1.5
	if _, err := NewSmartHome(bad); err == nil {
		t.Fatal("bad probability must fail")
	}
	bad = DefaultSmartHomeConfig()
	bad.Buildings = 0
	if _, err := NewSmartHome(bad); err == nil {
		t.Fatal("zero buildings must fail")
	}
}

func TestEventTypeString(t *testing.T) {
	if View.String() != "view" || Click.String() != "click" || Purchase.String() != "purchase" {
		t.Fatal("event type names wrong")
	}
	if (PlugKey{1, 2, 3}).String() != "1/2/3" {
		t.Fatal("plug key rendering wrong")
	}
}
