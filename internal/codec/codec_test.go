package codec_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"datatrace/internal/codec"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

func init() {
	codec.Register(workload.YahooEvent{})
	codec.Register(workload.PlugMeasurement{})
	codec.Register(stream.Unit{})
	codec.Register(int(0))
	codec.Register(int64(0))
	codec.Register(float64(0))
	codec.Register("")
}

func TestRoundTripBasics(t *testing.T) {
	c := codec.New()
	cases := []stream.Event{
		stream.Item(int64(3), "hello"),
		stream.Item("key", 3.5),
		stream.Item(stream.Unit{}, workload.YahooEvent{UserID: 1, AdID: 2, Type: workload.Click, EventTime: 99}),
		stream.Mark(stream.Marker{Seq: 7, Timestamp: 8000}),
	}
	for _, e := range cases {
		b, err := c.Encode(e)
		if err != nil {
			t.Fatalf("encode %s: %v", e, err)
		}
		got, err := c.Decode(b)
		if err != nil {
			t.Fatalf("decode %s: %v", e, err)
		}
		if got.String() != e.String() {
			t.Fatalf("round trip changed %s into %s", e, got)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := codec.New()
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(91))}
	f := func(key int64, value float64, marker bool, seq int64, ts int64) bool {
		var e stream.Event
		if marker {
			e = stream.Mark(stream.Marker{Seq: seq, Timestamp: ts})
		} else {
			e = stream.Item(key, value)
		}
		b, err := c.Encode(e)
		if err != nil {
			return false
		}
		got, err := c.Decode(b)
		return err == nil && got == e
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	c := codec.New()
	if _, err := c.Decode([]byte("not gob")); err == nil {
		t.Fatal("garbage must not decode")
	}
}

func TestUnregisteredTypeFailsLoudly(t *testing.T) {
	type secret struct{ X int }
	c := codec.New()
	if _, err := c.Encode(stream.Item(int64(1), secret{X: 1})); err == nil {
		t.Fatal("unregistered concrete type must fail to encode")
	}
}
