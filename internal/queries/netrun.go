package queries

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"datatrace/internal/codec"
	"datatrace/internal/compile"
	"datatrace/internal/storm"
	"datatrace/internal/stream"
	"datatrace/internal/workload"
)

// This file bridges the query registry to the networked multi-process
// runtime. A networked run is described by a NetSpec, which is
// JSON-marshalled into the DTT_NET_SPEC environment variable of every
// worker process; each worker rebuilds the identical environment and
// topology from it (the workload generator and reference database are
// deterministic functions of the config), then serves its placement
// share. RunWorkerIfSpawned is the process entry point workers share:
// cmd/dttworker and this package's test binary call it first, becoming
// a worker when the spawn contract is present.

// NetSpec selects one networked run: a query Spec, whose
// Options.Workers is the number of worker processes (0 selects 1), and
// the workload configuration every worker process must reproduce.
type NetSpec struct {
	Spec
	// Cfg is the workload configuration (workers regenerate the exact
	// workload and reference tables from it).
	Cfg workload.YahooConfig
	// OpDelay is the per-database-operation delay (see NewEnv).
	OpDelay time.Duration
}

// CoordinatorOnlyError reports a NetSpec option that only the process
// running a topology can act on, so a networked run, whose workers
// receive the spec as JSON, cannot honour it.
type CoordinatorOnlyError struct {
	// Field names the compile.Options field.
	Field string
}

func (e *CoordinatorOnlyError) Error() string {
	hint := ""
	if e.Field == "Rescale" {
		hint = "; rescale a networked run with storm.NetOptions.Rescale"
	}
	return fmt.Sprintf("queries: Options.%s does not reach the workers of a networked run%s", e.Field, hint)
}

// RegisterWireTypes registers every key and value type the six
// queries put on the wire with the gob-based codec. Worker and
// coordinator processes must call it before exchanging frames.
func RegisterWireTypes() {
	codec.Register(stream.Unit{})
	codec.Register(int(0))
	codec.Register(int64(0))
	codec.Register(float64(0))
	codec.Register("")
	codec.Register(workload.YahooEvent{})
	codec.Register(Enriched{})
	codec.Register(Located{})
	codec.Register(Features{})
	codec.Register(UserFeatures{})
	codec.Register(ClusterSummary{})
	codec.Register(map[int64]Features{}) // Cluster partial aggregates
}

// normalize fills the options every process must build with: the
// defaults when there are none, and at least one worker. It copies
// Options, so the caller's value is left as it was.
func (ns NetSpec) normalize() NetSpec {
	opts := *compile.Defaults()
	if ns.Options != nil {
		opts = *ns.Options
	}
	opts.Workers = max(opts.Workers, 1)
	ns.Options = &opts
	return ns
}

// Payload marshals the normalized spec into the opaque DTT_NET_SPEC
// worker payload. Callers building a storm.NetRescalePlan use it to
// describe the revised topology (typically the same spec at a new
// Par) the cluster reconfigures to at the committed cut. A spec whose
// Options carry a fault plan, rescale plan or autoscaler fails with a
// *CoordinatorOnlyError: none of them would reach the workers.
func (ns NetSpec) Payload() (string, error) {
	ns = ns.normalize()
	switch o := ns.Options; {
	case o.FaultPlan != nil:
		return "", &CoordinatorOnlyError{Field: "FaultPlan"}
	case o.Rescale != nil:
		return "", &CoordinatorOnlyError{Field: "Rescale"}
	case o.Autoscale != nil:
		return "", &CoordinatorOnlyError{Field: "Autoscale"}
	}
	b, err := json.Marshal(ns)
	if err != nil {
		return "", fmt.Errorf("queries: marshalling net spec: %w", err)
	}
	return string(b), nil
}

// build reconstructs the run's topology with executor placement over
// the cluster's workers.
func (ns NetSpec) build() (*storm.Topology, error) {
	ns = ns.normalize()
	env, err := NewEnv(ns.Cfg, ns.OpDelay)
	if err != nil {
		return nil, err
	}
	return build(env, ns.Spec, nil)
}

// RunWorkerIfSpawned turns this process into a networked worker when
// the spawn contract (DTT_NET_* environment) is present, and returns
// without effect otherwise. When it serves, it never returns: the
// process exits 0 after a clean run, 1 on failure.
func RunWorkerIfSpawned() {
	cfg, payload, ok := storm.WorkerEnvConfig()
	if !ok {
		return
	}
	RegisterWireTypes()
	var ns NetSpec
	if err := json.Unmarshal([]byte(payload), &ns); err != nil {
		fmt.Fprintf(os.Stderr, "dttworker %d: bad %s payload: %v\n", cfg.Worker, storm.EnvSpec, err)
		os.Exit(1)
	}
	top, err := ns.build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dttworker %d: building topology: %v\n", cfg.Worker, err)
		os.Exit(1)
	}
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if err := top.ServeWorker(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dttworker %d: %v\n", cfg.Worker, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunNetworked executes the selected query on a localhost TCP cluster
// of ns.Options.Workers processes and returns the coordinator's
// result. tune, when non-nil, adjusts the launch options (worker
// command, fault injection, timeouts) before the cluster starts.
func RunNetworked(ns NetSpec, tune func(*storm.NetOptions)) (*storm.NetResult, error) {
	ns = ns.normalize()
	payload, err := ns.Payload()
	if err != nil {
		return nil, err
	}
	RegisterWireTypes()
	// The coordinator decodes the sinks' typed frames, so it needs the
	// column kinds the workers' topologies create: it builds the same
	// topology, which also checks the spec before any worker starts.
	if _, err := ns.build(); err != nil {
		return nil, err
	}
	opts := storm.NetOptions{
		Workers: ns.Options.Workers,
		Spec:    payload,
	}
	if tune != nil {
		tune(&opts)
	}
	return storm.RunNetworked(opts)
}
