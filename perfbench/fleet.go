package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/dist"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// smallMethods are twelve method names with distinct computations (all
// but PARDON-v5, which is PARDON's default configuration).
var smallMethods = []string{
	"FedAvg", "FedSR", "FedGMA", "FPL", "FedDG-GA", "CCST", "CCST-sample",
	"PARDON", "PARDON-v1", "PARDON-v2", "PARDON-v3", "PARDON-v4",
}

// smallCellGrid is a grid of tiny one-round cells: smallMethods × f64/f32
// × nSeeds seeds, each seed with its own corpus. Cells of one seed share
// a scenario, so the grid has nSeeds scenarios; every seed derives from
// the workload seed.
func smallCellGrid(seed uint64, nSeeds int, tag string) engine.Sweep {
	axis := make([]engine.SeedSpec, nSeeds)
	for i := range axis {
		s := seed*1009 + uint64(i) + 1
		axis[i] = engine.SeedSpec{Seed: s, GenSeed: s*7919 + 12}
	}
	return engine.Sweep{
		Base: engine.Spec{
			Dataset:   "PACS",
			Split:     engine.SplitSpec{Name: "small", Train: []int{0, 1}, Test: []int{3}},
			Lambda:    0.1,
			Clients:   4,
			SampleK:   2,
			Rounds:    1,
			PerDomain: 32,
			EvalPer:   16,
			Tag:       tag,
		},
		Methods:    smallMethods,
		Precisions: []string{"f64", "f32"},
		Seeds:      axis,
	}
}

// fleetNominal is the nominal length of one fleet sweep on a 2-core
// host; a run makes ceil(--seconds / it) sweeps.
const fleetNominal = 10 * time.Second

// cellOutcome is what a cell must produce: its Result's evaluation
// history and the SHA-256 of its checkpoint blob.
type cellOutcome struct {
	stats []engine.RoundStat
	blob  [sha256.Size]byte
}

// runFleet pushes a cold 384-cell sweep through a dispatch-only,
// disk-backed coordinator and one single-slot worker over loopback
// HTTP, on a fresh fleet per repetition.
func runFleet(env *runEnv) (*measurement, error) {
	sw := smallCellGrid(env.seed, 16, "fleet-small-cells")
	specs, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	// Set-up runs the same Specs on one in-process engine, one seed's
	// cells at a time: the outputs every fleet cell must match, and the
	// single-worker baseline (dist.single_engine_s). Each seed's cells
	// are one timed set-up repetition.
	m := &measurement{}
	want := map[string]cellOutcome{}
	for i, seed := range sw.Seeds {
		chunk := sw
		chunk.Seeds = []engine.SeedSpec{seed}
		start, cpu0 := sampleStart()
		out, err := trainOutcomes(env, filepath.Join(env.dir, fmt.Sprintf("reference-%d", i)), chunk)
		if err != nil {
			return nil, err
		}
		m.addSetup(start, cpu0)
		maps.Copy(want, out)
	}
	refSec := sum(m.setup)
	fmt.Printf("fleet-small-cells: single-engine baseline %d cells in %.3fs\n", len(want), refSec)

	var cells int
	reps := env.repetitions(fleetNominal)
	for rep := 0; rep < reps; rep++ {
		traced := env.traced && rep == 1
		before := readKernels()
		n, err := fleetOnce(env, sw, m, rep, traced, want)
		if err != nil {
			return nil, err
		}
		cells += n
		if traced {
			reportKernels(env.layers, before, readKernels())
		}
	}
	m.ops = cells
	m.window, m.opCPU = sum(m.makespan), sum(m.batchCPU)
	var acc float64
	for _, sp := range specs {
		h, _ := sp.Hash()
		acc += want[h].stats[len(want[h].stats)-1].TestAcc
	}
	m.testAcc = acc / float64(len(specs))

	if env.traced {
		env.layers.set("dist.single_engine_s", refSec)
		rp, err := newReplayer(env, len(distinctScenarios(specs)))
		if err != nil {
			return nil, err
		}
		defer rp.close()
		for i, sp := range specs {
			h, _ := sp.Hash()
			stats, blob, err := rp.replay(sp, fmt.Sprintf("cell-%d", i))
			env.check.expect(err == nil && sameStats(stats, want[h].stats) && sha256.Sum256(blob) == want[h].blob,
				"fleet-small-cells cell %d (%s): fl.Run replay differs from the single-engine run (err %v)", i, sp.Method, err)
		}
		rp.report(env.layers)
	}
	return m, nil
}

// trainOutcomes runs the sweep on one in-process engine whose store is
// disk-backed in dir (so every checkpoint blob stays readable) and
// returns each cell's outcome by content-address.
func trainOutcomes(env *runEnv, dir string, sw engine.Sweep) (map[string]cellOutcome, error) {
	eng, err := engine.New(engine.Options{CacheDir: dir, Metrics: telemetry.NewRegistry(), Logger: env.log})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	b, err := eng.SubmitSweep(sw, 0)
	if err != nil {
		return nil, err
	}
	if _, err := b.Wait(context.Background()); err != nil {
		return nil, err
	}
	want := map[string]cellOutcome{}
	for _, j := range b.Unique() {
		res, err := j.Result()
		if err != nil {
			return nil, err
		}
		blob, ok, err := eng.ModelBlob(j.Key)
		if err != nil || !ok {
			return nil, fmt.Errorf("cell %s: no checkpoint (%v)", j.Key, err)
		}
		want[j.Key] = cellOutcome{res.Stats, sha256.Sum256(blob)}
	}
	return want, nil
}

// fleet is one coordinator (dispatch-only engine + API + fleet routes)
// and one worker node, each with its own registry and disk store.
type fleet struct {
	ceng, weng *engine.Engine
	creg, wreg *telemetry.Registry
	coord      *dist.Coordinator
	worker     *dist.Worker
	cl         *client.Client
	srv        *loopback
	stap       *serverTap
	ctap       *clientTap
}

func startFleet(env *runEnv, dir string, traced bool) (*fleet, error) {
	f := &fleet{creg: telemetry.NewRegistry(), wreg: telemetry.NewRegistry()}
	var err error
	f.ceng, err = engine.New(engine.Options{Workers: -1, CacheDir: filepath.Join(dir, "coordinator"), Metrics: f.creg, Logger: env.log})
	if err != nil {
		return nil, err
	}
	f.coord = dist.NewCoordinator(f.ceng, dist.Options{Log: env.log})
	api := engine.NewServer(f.ceng)
	f.coord.Mount(api)
	var handler http.Handler = api
	hc := &http.Client{}
	if traced {
		f.stap = newServerTap(api, env.spans)
		f.ctap = newClientTap(env.spans)
		handler, hc.Transport = f.stap, f.ctap
	}
	if f.srv, err = serveLoopback(handler); err != nil {
		f.close()
		return nil, err
	}
	f.cl = client.New(f.srv.url, client.WithHTTPClient(hc))
	// The worker runs the CLI's shape: its own disk cache, default pool,
	// one slot.
	f.weng, err = engine.New(engine.Options{CacheDir: filepath.Join(dir, "worker"), Metrics: f.wreg, Logger: env.log})
	if err != nil {
		f.close()
		return nil, err
	}
	f.worker, err = dist.NewWorker(dist.WorkerOptions{Name: "worker-1", Client: client.New(f.srv.url, client.WithHTTPClient(hc)),
		Engine: f.weng, Slots: 1, Log: env.log})
	if err != nil {
		f.close()
		return nil, err
	}
	if err := f.cl.Health(context.Background()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	if f.srv != nil {
		f.srv.close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	if f.ceng != nil {
		f.ceng.Close()
	}
	if f.weng != nil {
		f.weng.Close()
	}
}

// fleetOnce brings up a fresh fleet, submits the sweep through the SDK,
// starts the worker only once the sweep is queued (so its first pull
// finds work and no idle back-off lands in the makespan) and waits for
// every cell. It checks each cell against want and returns the cell
// count.
func fleetOnce(env *runEnv, sw engine.Sweep, m *measurement, rep int, traced bool, want map[string]cellOutcome) (int, error) {
	dir := filepath.Join(env.dir, fmt.Sprintf("fleet-%d", rep))
	f, err := startFleet(env, dir, traced)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir) // each repetition's stores hold ~300 MB of checkpoints
	defer f.close()

	ctx := context.Background()
	root := env.spans.newID()
	if traced {
		f.ctap.parent.Store(root)
	}
	start, cpu0 := sampleStart()
	view, err := f.cl.SubmitSweep(withSpan(ctx, root, "sweep"), sw, client.SubmitOptions{})
	if err != nil {
		return 0, err
	}
	wctx, stopWorker := context.WithCancel(ctx)
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		_ = f.worker.Run(wctx) // returns ctx.Err() once stopped
	}()
	final, err := f.cl.WaitSweep(withSpan(ctx, root, "sweep"), view.ID)
	end, cpu := time.Now(), cpuSeconds()-cpu0
	stopWorker()
	<-workerDone
	if err != nil {
		return 0, err
	}
	for i, jv := range final.Jobs {
		w, ok := want[jv.Key]
		var blob []byte
		if ok && jv.Result != nil {
			blob, _, _ = f.ceng.ModelBlob(jv.Key)
		}
		env.check.expect(ok && jv.State == engine.StateDone && jv.Result != nil && jv.Result.SpecHash == jv.Key &&
			sameStats(jv.Result.Stats, w.stats) && blob != nil && sha256.Sum256(blob) == w.blob,
			"fleet-small-cells rep %d job %d (%s): state %s, result or checkpoint differs from the single-engine run", rep, i, jv.Method, jv.State)
	}
	makespan := end.Sub(start).Seconds()
	if !m.addPass(env, traced, makespan) {
		return len(final.Jobs), nil
	}
	m.makespan = append(m.makespan, makespan)
	m.batchCPU = append(m.batchCPU, cpu)
	for _, jv := range final.Jobs {
		if jv.Timing != nil {
			m.opMs = append(m.opMs, jv.Timing.RunSec*1e3) // lease grant → complete
		}
	}
	if traced {
		env.spans.addRoot(root, final.TraceID, "sweep", start, end)
		f.report(env, final, root)
	}
	return len(final.Jobs), nil
}

// report sets the engine, journal, server, client and dist metrics of
// a traced fleet repetition and records each lease as a span.
func (f *fleet) report(env *runEnv, final client.SweepView, root int64) {
	var queue, lease, persist []float64
	for _, jv := range final.Jobs {
		if jv.Timing == nil || jv.Started == nil {
			continue
		}
		queue = append(queue, jv.Timing.QueueSec)
		lease = append(lease, jv.Timing.RunSec)
		persist = append(persist, jv.Timing.PersistSec)
		env.spans.add(0, root, jv.TraceID, "dist.lease", *jv.Started, jv.Started.Add(seconds(jv.Timing.RunSec)))
	}
	cells := float64(len(final.Jobs))
	env.layers.set("engine.queue_wait_s_p50", median(queue))
	env.layers.set("engine.run_s", sum(lease))
	env.layers.set("engine.persist_s", sum(persist))
	cst, wst := f.ceng.Stats(), f.weng.Stats()
	env.layers.set("engine.rounds_trained", float64(cst.RoundsExecuted+wst.RoundsExecuted))
	env.layers.set("engine.cache_hit_ratio", ratio(float64(cst.CacheHits), float64(cst.Submitted)))
	env.layers.set("journal.records_per_cell", promSums(f.creg)["journal_records_total"]/cells)

	var local float64
	for _, j := range f.weng.Jobs() {
		local += j.Timing().RunSec
	}
	csum, wsum := promSums(f.creg), promSums(f.wreg)
	env.layers.set("dist.leases_granted", csum["dist_leases_granted_total"])
	env.layers.set("dist.pull_hit_ratio", ratio(promLabeled(f.wreg, `dist_worker_pulls_total{outcome="lease"}`), wsum["dist_worker_pulls_total"]))
	env.layers.set("dist.lease_s_p50", median(lease))
	env.layers.set("dist.overhead_share", 1-ratio(local, sum(lease)))
	env.layers.set("dist.requeues", csum["dist_leases_requeued_total"])
	f.stap.report(env.layers)
	f.ctap.report(env.layers, f.stap, len(final.Jobs))
}

// loopback is an HTTP server on an ephemeral 127.0.0.1 port.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // ErrServerClosed after close
	}()
	return l, nil
}

// close stops the server, cutting open event streams, and waits for
// its serve loop to return.
func (l *loopback) close() {
	_ = l.srv.Close()
	<-l.done
}
