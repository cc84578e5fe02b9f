package queries

import (
	"net"
	"os"
	"testing"
	"time"

	"datatrace/internal/compile"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// TestMain makes the test binary dual-use: re-exec'd with the
// DTT_NET_* spawn contract it becomes a worker process of a networked
// run (RunWorkerIfSpawned never returns in that case); run normally
// it executes the package's tests. This is how the cross-process
// tests below get worker binaries without building anything extra —
// and it runs the workers with the same instrumentation (-race) as
// the test itself.
func TestMain(m *testing.M) {
	RunWorkerIfSpawned()
	os.Exit(m.Run())
}

// requireNet skips tests that need localhost TCP when the environment
// forbids it (sandboxes without socket permissions).
func requireNet(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("skipping networked test: environment forbids localhost TCP sockets (%v)", err)
	}
	ln.Close()
}

// onWorkers returns spec deployed on n worker processes.
func onWorkers(spec Spec, n int) Spec {
	spec.Options = optionsFrom(spec.Options, func(o *compile.Options) { o.Workers = n })
	return spec
}

func netTestCfg() workload.YahooConfig {
	cfg := workload.DefaultYahooConfig()
	cfg.EventsPerSecond = 120
	cfg.Seconds = 12
	cfg.Users = 60
	cfg.Campaigns = 10
	cfg.AdsPerCampaign = 5
	return cfg
}

// TestNetworkedEquivalenceDifferential is the cross-process
// differential proof: every query, at several parallelism settings,
// run as a 2-worker cluster of real OS processes exchanging frames
// over localhost TCP, must produce a sink stream trace-equivalent to
// the single-process runtime's. Workers are re-execs of this test
// binary (see TestMain), so under -race the whole cluster is
// race-checked and a detector hit in any worker fails the run via its
// nonzero exit.
func TestNetworkedEquivalenceDifferential(t *testing.T) {
	requireNet(t)
	cfg := netTestCfg()
	for _, def := range All() {
		def := def
		t.Run("Query"+def.Name, func(t *testing.T) {
			env, err := NewEnv(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			sinkType := def.SinkType(env)
			for _, par := range []int{1, 2, 4} {
				spec := Spec{Query: def.Name, Variant: Generated, Par: par, SourcePar: 2}
				// Fresh env per run: Query II mutates the DB.
				oracleEnv, err := NewEnv(cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := Run(oracleEnv, spec)
				if err != nil {
					t.Fatalf("par=%d in-process oracle: %v", par, err)
				}
				res, err := RunNetworked(NetSpec{Spec: onWorkers(spec, 2), Cfg: cfg}, nil)
				if err != nil {
					t.Fatalf("par=%d networked: %v", par, err)
				}
				if res.WorkerRestarts != 0 {
					t.Fatalf("par=%d: fault-free run restarted %d times", par, res.WorkerRestarts)
				}
				got, want := res.Sinks["sink"], oracle.Sinks["sink"]
				if !stream.Equivalent(sinkType, got, want) {
					t.Fatalf("par=%d: networked trace differs from in-process run\n got %d events\n want %d events",
						par, len(got), len(want))
				}
				gotExec, _ := res.Stats.Component("yahoo")
				wantExec, _ := oracle.Stats.Component("yahoo")
				if gotExec != wantExec {
					t.Fatalf("par=%d: workers report %d source events, in-process run %d", par, gotExec, wantExec)
				}
			}
		})
	}
}

// TestNetworkedSaturatedQueryIV runs generated Query IV flat out — the
// generator-backed column sources, which never wait, and no closed-loop
// window — on two worker processes that send to each other on both
// inner edges, twenty times over. Before the data links had credit
// windows a run like this could wedge both workers on each other's
// sockets; every one must now finish, with the in-process run's trace
// and with every source row on a link sent as a raw column.
func TestNetworkedSaturatedQueryIV(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty cluster runs of 1.2 M events")
	}
	requireNet(t)
	cfg := netTestCfg()
	cfg.EventsPerSecond = 100_000
	spec := Spec{Query: "IV", Variant: Generated, Par: 2, SourcePar: 2}
	env, err := NewEnv(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Run(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	def, err := ByName("IV")
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		res, err := RunNetworked(NetSpec{Spec: onWorkers(spec, 2), Cfg: cfg}, func(o *storm.NetOptions) {
			o.MaxRestarts = -1
			o.AttemptTimeout = time.Minute
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !stream.Equivalent(def.SinkType(env), res.Sinks["sink"], oracle.Sinks["sink"]) {
			t.Fatalf("run %d: networked trace differs from the in-process run", run)
		}
		wire := res.Stats.Wire()
		if wire.TypedRows < int64(cfg.EventsPerSecond*cfg.Seconds)/2 {
			t.Fatalf("run %d: %d rows crossed as raw columns, want at least the sources' cross-worker half of %d (%+v)",
				run, wire.TypedRows, cfg.EventsPerSecond*cfg.Seconds, wire)
		}
		if run == 0 {
			t.Logf("links of one run: %+v", wire)
		}
	}
}

// TestChaosWorkerKillRecovery SIGKILLs a worker process mid-epoch and
// checks the coordinator's recovery: the cluster restarts, the
// replayed stream is spliced onto the committed prefix at the marker
// cut, and the final trace is still equivalent to an undisturbed run.
func TestChaosWorkerKillRecovery(t *testing.T) {
	requireNet(t)
	cfg := netTestCfg()
	spec := Spec{Query: "IV", Variant: Generated, Par: 2, SourcePar: 2}
	// The DB delay stretches the run so the kill (after 3 of the 12
	// marker cuts commit) lands mid-flight rather than after the
	// stream has drained.
	const opDelay = 500 * time.Microsecond

	env, err := NewEnv(cfg, opDelay)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Run(env, spec)
	if err != nil {
		t.Fatal(err)
	}

	res, err := RunNetworked(NetSpec{Spec: onWorkers(spec, 3), Cfg: cfg, OpDelay: opDelay},
		func(o *storm.NetOptions) {
			o.Kill = &storm.KillPlan{Worker: 1, AfterCuts: 3}
			o.Logf = t.Logf
		})
	if err != nil {
		t.Fatalf("networked run did not recover: %v", err)
	}
	if res.WorkerRestarts < 1 {
		t.Fatalf("kill plan fired but the cluster reports %d restarts", res.WorkerRestarts)
	}
	if res.ReplayedCuts < 3 {
		t.Fatalf("restart replayed only %d committed cuts, want ≥ 3", res.ReplayedCuts)
	}
	sinkType, err := ByName("IV")
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Sinks["sink"], oracle.Sinks["sink"]
	if !stream.Equivalent(sinkType.SinkType(env), got, want) {
		t.Fatalf("post-recovery trace differs from undisturbed run\n got %d events\n want %d events",
			len(got), len(want))
	}
	// The successful attempt's workers report a full run's counters.
	gotExec, _ := res.Stats.Component("yahoo")
	wantExec, _ := oracle.Stats.Component("yahoo")
	if gotExec != wantExec {
		t.Fatalf("recovered run reports %d source events, want %d", gotExec, wantExec)
	}
	t.Logf("recovered: %d restarts, %d replayed cuts, wall %v", res.WorkerRestarts, res.ReplayedCuts, res.Wall)
}

// TestNetworkedRescaleAtCommittedCut exercises the networked form of
// elastic rescaling: a NetRescalePlan aborts the attempt once the
// named cut commits, and the cluster re-spawns with a revised spec —
// here the same query at doubled parallelism, hence a revised
// placement table — whose replay splices onto the committed prefix.
// The reconfiguration must leave the sink trace equivalent to an
// undisturbed fixed-parallelism run, and must not be charged against
// the restart budget.
func TestNetworkedRescaleAtCommittedCut(t *testing.T) {
	requireNet(t)
	cfg := netTestCfg()
	spec := Spec{Query: "IV", Variant: Generated, Par: 2, SourcePar: 2}
	// The DB delay stretches the run so the cut the plan names commits
	// mid-flight rather than after the stream has drained.
	const opDelay = 500 * time.Microsecond

	env, err := NewEnv(cfg, opDelay)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Run(env, spec)
	if err != nil {
		t.Fatal(err)
	}

	revised := Spec{Query: "IV", Variant: Generated, Par: 4, SourcePar: 2}
	payload, err := NetSpec{Spec: onWorkers(revised, 2), Cfg: cfg, OpDelay: opDelay}.Payload()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunNetworked(NetSpec{Spec: onWorkers(spec, 2), Cfg: cfg, OpDelay: opDelay},
		func(o *storm.NetOptions) {
			o.Rescale = &storm.NetRescalePlan{AfterCuts: 4, Spec: payload}
			o.Logf = t.Logf
		})
	if err != nil {
		t.Fatalf("networked rescale run failed: %v", err)
	}
	if !res.Rescaled {
		t.Fatal("rescale plan never fired")
	}
	if res.WorkerRestarts != 0 {
		t.Fatalf("planned rescale was charged as %d restarts", res.WorkerRestarts)
	}
	if res.ReplayedCuts < 4 {
		t.Fatalf("revised cluster replayed only %d committed cuts, want ≥ 4", res.ReplayedCuts)
	}
	def, err := ByName("IV")
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Sinks["sink"], oracle.Sinks["sink"]
	if !stream.Equivalent(def.SinkType(env), got, want) {
		t.Fatalf("rescaled trace differs from undisturbed run\n got %d events\n want %d events",
			len(got), len(want))
	}
	gotExec, _ := res.Stats.Component("yahoo")
	wantExec, _ := oracle.Stats.Component("yahoo")
	if gotExec != wantExec {
		t.Fatalf("rescaled run reports %d source events, want %d", gotExec, wantExec)
	}
	t.Logf("rescaled: %d replayed cuts, wall %v", res.ReplayedCuts, res.Wall)
}

// TestChaosWorkerKillDuringRescale composes the two reconfiguration
// paths: a worker is SIGKILLed after 3 committed cuts (a failure,
// charged to the restart budget), and the rescale plan fires at the
// 6th committed cut — which, given the kill, commits during the
// replaying attempt. The cluster must come out of the combined
// failure-then-reconfigure sequence in a consistent configuration:
// the final attempt runs the revised spec and the spliced trace is
// still equivalent to an undisturbed run.
func TestChaosWorkerKillDuringRescale(t *testing.T) {
	requireNet(t)
	cfg := netTestCfg()
	spec := Spec{Query: "IV", Variant: Generated, Par: 2, SourcePar: 2}
	const opDelay = 500 * time.Microsecond

	env, err := NewEnv(cfg, opDelay)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Run(env, spec)
	if err != nil {
		t.Fatal(err)
	}

	revised := Spec{Query: "IV", Variant: Generated, Par: 4, SourcePar: 2}
	payload, err := NetSpec{Spec: onWorkers(revised, 3), Cfg: cfg, OpDelay: opDelay}.Payload()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunNetworked(NetSpec{Spec: onWorkers(spec, 3), Cfg: cfg, OpDelay: opDelay},
		func(o *storm.NetOptions) {
			o.Kill = &storm.KillPlan{Worker: 1, AfterCuts: 3}
			o.Rescale = &storm.NetRescalePlan{AfterCuts: 6, Spec: payload}
			o.Logf = t.Logf
		})
	if err != nil {
		t.Fatalf("kill+rescale run did not recover: %v", err)
	}
	if res.WorkerRestarts < 1 {
		t.Fatalf("kill plan fired but the cluster reports %d restarts", res.WorkerRestarts)
	}
	if !res.Rescaled {
		t.Fatal("rescale plan never fired")
	}
	if res.ReplayedCuts < 6 {
		t.Fatalf("recovery+rescale replayed only %d committed cuts, want ≥ 6", res.ReplayedCuts)
	}
	def, err := ByName("IV")
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.Sinks["sink"], oracle.Sinks["sink"]
	if !stream.Equivalent(def.SinkType(env), got, want) {
		t.Fatalf("post-chaos trace differs from undisturbed run\n got %d events\n want %d events",
			len(got), len(want))
	}
	gotExec, _ := res.Stats.Component("yahoo")
	wantExec, _ := oracle.Stats.Component("yahoo")
	if gotExec != wantExec {
		t.Fatalf("post-chaos run reports %d source events, want %d", gotExec, wantExec)
	}
	t.Logf("chaos survived: %d restarts, rescaled=%v, %d replayed cuts, wall %v",
		res.WorkerRestarts, res.Rescaled, res.ReplayedCuts, res.Wall)
}
