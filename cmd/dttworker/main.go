// Command dttworker is the standalone worker process of the
// networked storm runtime. It is not meant to be invoked by hand: a
// coordinator (storm.RunNetworked with Command pointing here, or any
// binary that calls queries.RunWorkerIfSpawned) launches one dttworker
// per placement slot with the spawn contract in the environment:
//
//	DTT_NET_COORD    coordinator's control address (host:port)
//	DTT_NET_WORKER   this worker's id, 0-based
//	DTT_NET_WORKERS  total worker count
//	DTT_NET_ATTEMPT  the coordinator's restart epoch
//	DTT_NET_SPEC     JSON-encoded queries.NetSpec to rebuild the topology
//
// The worker rebuilds the topology from the spec, serves its share of
// the executors — local edges over channels, cross-worker edges over
// length-prefixed TCP frames — streams its sink output to the
// coordinator at marker granularity, and exits 0 after the
// coordinator's shutdown.
package main

import (
	"fmt"
	"os"

	"datatrace/internal/queries"
	"datatrace/internal/storm"
)

func main() {
	queries.RunWorkerIfSpawned()
	fmt.Fprintf(os.Stderr, `dttworker: not spawned as a networked worker.

This binary serves one worker of a networked run and is launched by a
coordinator with the spawn contract in the environment:

  %s    coordinator control address (host:port)
  %s   worker id (0-based)
  %s  total worker count
  %s  restart epoch
  %s     JSON queries.NetSpec

Start a run with queries.RunNetworked (e.g. "bash benchmark/run.sh --workload q4-tcp").
`, storm.EnvCoordAddr, storm.EnvWorkerID, storm.EnvWorkers, storm.EnvAttempt, storm.EnvSpec)
	os.Exit(2)
}
