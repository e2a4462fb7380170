package main

// layerUnits declares every per-layer metric a traced run prints, with
// its unit. A workload that does not exercise a layer reports that
// layer's metrics as 0. The comment on each group names the end-to-end
// figure, and the workload, the group should move; where the layer's
// work is CPU time, the gated batch_cpu_s and op_cpu_ms move with
// makespan_s and the op latencies.
var layerUnits = map[string]string{
	// Kernels: makespan_s on table-sweep, less on fleet-small-cells;
	// serve-cached runs none (calls read 0 there).
	"tensor.kernel_calls":       "count",
	"tensor.kernel_busy_s":      "s",
	"tensor.serial_call_share":  "ratio",
	"tensor.inline_panel_share": "ratio",
	// Round loop (fl.Run replays): makespan_s on table-sweep; fl.other_s
	// (model init, final clone) is a larger share on fleet-small-cells.
	"fl.run_s":             "s",
	"fl.round_s_p50":       "s",
	"fl.local_train_s":     "s",
	"fl.local_train_calls": "count",
	"fl.aggregate_s":       "s",
	"fl.other_s":           "s",
	"fl.train_busy_share":  "ratio",
	// PARDON (core) and the compared methods (baselines): makespan_s on
	// table-sweep.
	"core.setup_s":            "s",
	"core.local_train_s":      "s",
	"baselines.setup_s":       "s",
	"baselines.local_train_s": "s",
	// Checkpoint encode: makespan_s on fleet-small-cells.
	"nn.checkpoint_encode_s": "s",
	"nn.checkpoint_bytes":    "bytes",
	// Scenario builds: makespan_s on table-sweep and fleet-small-cells,
	// setup_s on serve-cached.
	"engine.scenario_build_s": "s",
	"engine.scenario_builds":  "count",
	// Scheduler and store: makespan_s on fleet-small-cells. On
	// serve-cached rounds_trained must read 0 and cache_hit_ratio 1.
	"engine.queue_wait_s_p50": "s",
	"engine.run_s":            "s",
	"engine.persist_s":        "s",
	"engine.rounds_trained":   "count",
	"engine.cache_hit_ratio":  "ratio",
	// Journal appends (fsync'd): makespan_s on fleet-small-cells.
	"journal.records_per_cell": "count",
	// HTTP handlers: submit, result and model move op_p50_ms, op_p99_ms
	// and ops_per_s on serve-cached; lease, heartbeat, complete and
	// upload move makespan_s on fleet-small-cells.
	"server.submit_ms_p50":    "ms",
	"server.submit_ms_p99":    "ms",
	"server.result_ms_p50":    "ms",
	"server.result_ms_p99":    "ms",
	"server.model_ms_p50":     "ms",
	"server.model_ms_p99":     "ms",
	"server.lease_ms_p50":     "ms",
	"server.lease_ms_p99":     "ms",
	"server.heartbeat_ms_p50": "ms",
	"server.heartbeat_ms_p99": "ms",
	"server.complete_ms_p50":  "ms",
	"server.complete_ms_p99":  "ms",
	"server.upload_ms_p50":    "ms",
	"server.upload_ms_p99":    "ms",
	// SDK: op latency on serve-cached.
	"client.overhead_ms_p50": "ms",
	"client.requests_per_op": "count",
	"client.bytes_in":        "bytes",
	// Coordinator and worker: makespan_s on fleet-small-cells only;
	// requeues must stay 0.
	"dist.leases_granted":  "count",
	"dist.pull_hit_ratio":  "ratio",
	"dist.lease_s_p50":     "s",
	"dist.overhead_share":  "ratio",
	"dist.upload_bytes":    "bytes",
	"dist.requeues":        "count",
	"dist.single_engine_s": "s",
	// The traced passes against the untraced ones, and the share of
	// each measured sweep or op that no layer span covers.
	"trace.overhead_share":    "ratio",
	"trace.unaccounted_s":     "s",
	"trace.unaccounted_share": "ratio",
}
