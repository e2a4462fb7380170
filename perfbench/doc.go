// Command perfbench is the repository's benchmark: the yardstick every
// performance claim about the engine, its HTTP API, the client SDK and
// the worker fleet is measured with. It drives the system only through
// public entry points (engine.New, Engine.SubmitSweep, engine.NewServer,
// the client SDK, dist.NewCoordinator/Mount/NewWorker,
// Engine.BuildScenario and fl.Run) and lives in its own module so the
// root module's build and tests never see it.
//
// Run one workload from the repository root:
//
//	bash perfbench/run.sh --workload table-sweep --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Every output check
// (a cell or an op) counts in attempted; one that does not match counts
// in failed, so error_rate is failed/attempted. The checks: table-sweep
// replays every cell with fl.Run and requires bit-identical Stats, and
// repetitions must agree; fleet-small-cells requires every cell's Result
// and checkpoint SHA-256 to equal an in-process single-engine run of the
// same Specs; serve-cached requires each op's SpecHash to equal
// Spec.Hash(), its Stats and checkpoint digest to equal set-up's, and
// the engine to train zero rounds. With --trace 0 the metrics are the
// end-to-end ones, with --trace 1 the per-layer ones (layers.go, which
// also names the end-to-end figure each should move). The lines above
// the JSON are a human-readable table.
//
// # Workloads
//
// The seed drives every seed axis of the generated grids and the
// serve-cached request sequence; the program receives only the
// generated inputs.
//
//   - table-sweep: regenerating one paper table, compute-bound. Each
//     repetition opens a fresh in-memory engine and submits one sweep:
//     the 7 compared methods × 2 seeds with fresh corpora, PACS
//     leave-one-domain-out at eval.Small sizing (N=20, K=4, 12 rounds,
//     320 per domain, 260 eval). Why: nearly all time is in tensor, nn,
//     fl, core and baselines, plus two scenario builds; server, client
//     and dist sit idle.
//   - fleet-small-cells: a cold sweep through the worker fleet, bound by
//     per-cell fixed costs. A dispatch-only, disk-backed coordinator
//     (journal on) serves loopback HTTP to one worker with one slot; the
//     SDK submits 12 methods × f64/f32 × 16 seeds = 384 one-round cells.
//     Why: lease claim and complete, the checkpoint upload, the
//     coordinator's store and journal writes, model init, checkpoint
//     encode and scenario builds dominate — the store/journal write
//     path.
//   - serve-cached: cached reads in a closed loop of two SDK clients
//     (never more than the cores) against a disk-backed engine reopened
//     cold over a 288-cell grid, more than the store's 256-entry memory
//     tier. Each op submits a Zipf-drawn cell (a cache hit) and fetches
//     its Result; every fourth op downloads the checkpoint from disk.
//     Why: spec hashing, the scheduler's cached-job path, both store
//     tiers, JSON and HTTP do all the work and zero rounds are trained —
//     the same engine layer as fleet-small-cells, reading instead of
//     writing.
//
// # End-to-end metrics
//
// An op is one cell's engine run (table-sweep), one cell's lease from
// grant to completion (fleet-small-cells), or one Submit + Result (+
// model) sequence (serve-cached). A batch is one sweep, submit to last
// cell done; on serve-cached it is the whole grid re-read as one cached
// sweep.
//
// The JSON line carries the metrics the regression gate compares:
//
//   - setup_s: median process CPU time of the run's set-up repetitions.
//     table-sweep: one scenario build on a scratch engine (process
//     warm-up); fleet-small-cells: one seed's 24 cells on the
//     in-process reference engine; serve-cached: one cold engine reopen
//     on the trained store (journal replay and compaction) until the
//     health probe answers.
//   - batch_cpu_s: median process CPU time of a batch.
//   - op_cpu_ms: process CPU time of the measured window per op.
//   - peak_rss_mb: the process's peak resident set, so work moved into
//     set-up or into caches shows.
//
// The table above it prints what a user watches, with sample counts:
// makespan_s (median batch wall time), ops_per_s, op_p50_ms, op_p99_ms,
// setup_wall_s, test_acc_mean (mean final test accuracy over the grid's
// cells, deterministic for a seed) and error_rate. These are not in the
// gate. On a shared 2-vCPU host, while the hypervisor gave other guests
// 15-40% of the CPU time, wall-clock figures spread by 20-55% and more
// (interquartile range over median across seeds) and process CPU time by
// 3-25%; test_acc_mean of the one-round cells varies with the seed by
// 15-25%. Every timed sample starts after a forced garbage collection,
// so a cycle an earlier phase left pending does not land in it.
//
// # Tracing
//
// A traced run (--trace 1) makes an untraced, a traced and another
// untraced pass (serve-cached alternates slices of its window) and
// reports trace.overhead_share, the traced passes against the untraced
// ones. Layer times come from the benchmark's own code around calls into
// each layer — an http.Handler middleware around the API, an
// http.RoundTripper in the SDK, Job.Timing and JobView.Timing, registry
// deltas, timed BuildScenario calls and fl.Run replays through a timing
// fl.Algorithm decorator — never from tracing inside the program. Spans
// (name, start, end, parent, one trace ID per cell or op) stay in memory
// and are written to .bench_build/traces/<workload>-seed<N>.json when
// the run ends; trace.unaccounted_s and trace.unaccounted_share are the
// part of each measured sweep or op that no layer span covers.
package main
