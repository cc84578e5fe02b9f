package storm

import (
	"errors"
	"strconv"
	"testing"

	"datatrace/internal/codec"
	"datatrace/internal/stream"
)

func init() {
	codec.Register(int64(0))
	codec.Register(float64(0))
	codec.Register(stream.Unit{})
}

// goProc runs a "worker process" as a goroutine in this process —
// the spawn seam that lets the coordinator logic be exercised without
// real subprocesses (the cross-process proof lives in the queries
// package, which re-execs the test binary).
type goProc struct {
	done chan struct{}
	err  error
}

func (p *goProc) Kill() error { return errors.New("goroutine worker cannot be killed") }
func (p *goProc) Wait() error { <-p.done; return p.err }

// spawnGoroutine builds a fresh topology per worker (as a real worker
// process would from its spec) and serves it in a goroutine.
func spawnGoroutine(build func() *Topology) func(worker int, env map[string]string) (netProc, error) {
	return func(worker int, env map[string]string) (netProc, error) {
		p := &goProc{done: make(chan struct{})}
		go func() {
			defer close(p.done)
			id, _ := strconv.Atoi(env[EnvWorkerID])
			n, _ := strconv.Atoi(env[EnvWorkers])
			at, _ := strconv.Atoi(env[EnvAttempt])
			p.err = build().ServeWorker(WorkerConfig{
				CoordAddr: env[EnvCoordAddr], Worker: id, Workers: n, Attempt: at,
			})
		}()
		return p, nil
	}
}

func netTestTopology() *Topology {
	var in []stream.Event
	for b := 0; b < 4; b++ {
		for i := 0; i < 25; i++ {
			in = append(in, stream.Item(int64(i%5), float64(b*25+i)))
		}
		in = append(in, stream.Mark(stream.Marker{Seq: int64(b), Timestamp: int64(b + 1)}))
	}
	top := NewTopology("net-smoke")
	top.AddSpout("src", 2, func(inst int) Spout {
		// Each spout instance produces its own copy of the stream; the
		// sink sees the union, deterministically per channel.
		return SliceSpout(in)
	})
	top.AddBolt("scale", 3, func(int) Bolt {
		return BoltFunc(func(e stream.Event, emit func(stream.Event)) {
			if e.IsMarker {
				emit(e)
				return
			}
			emit(stream.Item(e.Key, e.Value.(float64)*2))
		})
	}).FieldsGrouping("src", true)
	top.AddSink("sink", "scale")
	return top
}

// TestRunNetworkedGoroutineWorkers runs the full coordinator/worker
// protocol — rendezvous, peer links over real localhost TCP, frame
// transport, sink streaming, shutdown — with workers as goroutines,
// and checks trace equivalence against the single-process runtime.
func TestRunNetworkedGoroutineWorkers(t *testing.T) {
	oracle, err := netTestTopology().Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		res, err := RunNetworked(NetOptions{
			Workers: workers,
			spawn:   spawnGoroutine(netTestTopology),
			Logf:    t.Logf,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.WorkerRestarts != 0 {
			t.Fatalf("workers=%d: unexpected restarts %d", workers, res.WorkerRestarts)
		}
		typ := stream.U("Int64", "Float")
		if !stream.Equivalent(typ, oracle.Sinks["sink"], res.Sinks["sink"]) {
			t.Fatalf("workers=%d: networked trace differs from single-process run (%d vs %d events)",
				workers, len(res.Sinks["sink"]), len(oracle.Sinks["sink"]))
		}
		// The workers' reported counters must cover the whole topology.
		srcExec, _ := res.Stats.Component("src")
		if want := oracle.Stats; true {
			wantExec, _ := want.Component("src")
			if srcExec != wantExec {
				t.Fatalf("workers=%d: source executed %d events, want %d", workers, srcExec, wantExec)
			}
		}
	}
}

// TestPlacementTable checks the shared placement rule: declaration
// order, instance-major, round-robin over workers — identical in
// every process, which is what lets workers route without a placement
// exchange.
func TestPlacementTable(t *testing.T) {
	top := netTestTopology()
	placed := top.Placement(2)
	wantN := 2 + 3 + 1
	if len(placed) != wantN {
		t.Fatalf("placement has %d entries, want %d", len(placed), wantN)
	}
	for i, p := range placed {
		if p.GID != i {
			t.Fatalf("entry %d has GID %d", i, p.GID)
		}
		if p.Worker != i%2 {
			t.Fatalf("entry %d on worker %d, want %d", i, p.Worker, i%2)
		}
	}
	if placed[0].Component != "src" || placed[2].Component != "scale" || placed[5].Component != "sink" {
		t.Fatalf("placement order wrong: %+v", placed)
	}
}
