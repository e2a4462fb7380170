package main

import (
	"context"
	"fmt"
	"time"

	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// setupBuilds is how many scenario builds table-sweep's set-up times.
const setupBuilds = 3

// tableSweepNominal is the nominal length of one block on a 2-core
// host; a run makes ceil(--seconds / it) blocks.
const tableSweepNominal = 6 * time.Second

// tableSweepGrid is one paper-table cell block as internal/eval submits
// it: the seven compared methods × two seeds, each seed with a fresh
// corpus, on PACS leave-one-domain-out (sketch held out) at eval.Small
// sizing. Seeds and corpus seeds derive from the workload seed the way
// eval derives them from its Config.Seed.
func tableSweepGrid(seed uint64) engine.Sweep {
	corpus := seed + 11
	seeds := []uint64{seed, seed + 1009}
	axis := make([]engine.SeedSpec, len(seeds))
	for i, s := range seeds {
		axis[i] = engine.SeedSpec{Seed: s, GenSeed: corpus*7919 + s}
	}
	return engine.Sweep{
		Base: engine.Spec{
			Dataset:   "PACS",
			Split:     engine.SplitSpec{Name: "LODO-sketch", Train: []int{0, 1, 2}, Val: []int{3}, Test: []int{3}},
			Lambda:    0.1,
			Clients:   20,
			SampleK:   4,
			Rounds:    12,
			PerDomain: 320,
			EvalPer:   260,
			Tag:       "lodo-PACS-3",
		},
		Methods: append([]string{"FedAvg"}, engine.MethodNames()...),
		Seeds:   axis,
	}
}

// runTableSweep regenerates one table block per repetition, each on a
// fresh in-memory engine through Engine.SubmitSweep, the path
// internal/eval takes.
func runTableSweep(env *runEnv) (*measurement, error) {
	sw := tableSweepGrid(env.seed)
	specs, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	m := &measurement{}
	// Set-up warms the process (heap, kernel pool) by building the
	// block's scenarios on scratch engines, alternating between them;
	// setup_s is the median build.
	scenarios := distinctScenarios(specs)
	for i := 0; i < setupBuilds; i++ {
		eng, err := engine.New(engine.Options{Metrics: telemetry.NewRegistry(), Logger: env.log})
		if err != nil {
			return nil, err
		}
		start, cpu0 := sampleStart()
		_, err = eng.BuildScenario(scenarios[i%len(scenarios)])
		m.addSetup(start, cpu0)
		eng.Close()
		if err != nil {
			return nil, err
		}
	}

	var reps [][]*engine.Result
	n := env.repetitions(tableSweepNominal)
	for rep := 0; rep < n; rep++ {
		traced := env.traced && rep == 1
		before := readKernels()
		res, err := tableSweepOnce(env, sw, m, traced)
		if err != nil {
			return nil, err
		}
		if traced {
			reportKernels(env.layers, before, readKernels())
		}
		reps = append(reps, res)
	}
	m.ops = len(specs) * len(reps)
	m.window, m.opCPU = sum(m.makespan), sum(m.batchCPU)
	m.testAcc = meanFinalTest(reps[0])

	// Outputs: the first repetition's Results must equal a replay of
	// each cell through fl.Run on BuildScenario's scenario, bit for bit;
	// later repetitions must equal the first.
	rp, err := newReplayer(env, len(scenarios))
	if err != nil {
		return nil, err
	}
	defer rp.close()
	for i, sp := range specs {
		stats, _, err := rp.replay(sp, fmt.Sprintf("cell-%d", i))
		env.check.expect(err == nil && sameStats(stats, reps[0][i].Stats),
			"table-sweep cell %d (%s seed %d): replay differs from the engine's Result (err %v)", i, sp.Method, sp.Seed, err)
		for r := 1; r < len(reps); r++ {
			env.check.expect(sameStats(reps[r][i].Stats, reps[0][i].Stats),
				"table-sweep cell %d: repetition %d differs from repetition 0", i, r)
		}
	}
	if env.traced {
		rp.report(env.layers)
	}
	return m, nil
}

// tableSweepOnce runs the block once on a fresh engine, appending its
// makespan and each cell's run time (the op latency) to m.
func tableSweepOnce(env *runEnv, sw engine.Sweep, m *measurement, traced bool) ([]*engine.Result, error) {
	reg := telemetry.NewRegistry()
	eng, err := engine.New(engine.Options{Metrics: reg, Logger: env.log})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	root := env.spans.newID()
	start, cpu0 := sampleStart()
	b, err := eng.SubmitSweep(sw, 0)
	if err != nil {
		return nil, err
	}
	results, err := b.Wait(context.Background())
	end := time.Now()
	if err != nil {
		return nil, err
	}
	makespan, cpu := end.Sub(start).Seconds(), cpuSeconds()-cpu0
	if !m.addPass(env, traced, makespan) {
		return results, nil
	}
	m.makespan = append(m.makespan, makespan)
	m.batchCPU = append(m.batchCPU, cpu)
	for _, j := range b.Unique() {
		m.opMs = append(m.opMs, j.Timing().RunSec*1e3)
	}
	if traced {
		env.spans.addRoot(root, b.TraceID, "sweep", start, end)
		reportEngineJobs(env, b.Unique(), root)
		st := eng.Stats()
		env.layers.set("engine.rounds_trained", float64(st.RoundsExecuted))
		env.layers.set("engine.cache_hit_ratio", ratio(float64(st.CacheHits), float64(st.Submitted)))
		env.layers.set("journal.records_per_cell", ratio(promSums(reg)["journal_records_total"], float64(len(b.Jobs()))))
	}
	return results, nil
}

// reportEngineJobs records each in-process job's run as an engine span
// under the sweep root and sets the engine queue/run/persist metrics
// from Job.Timing.
func reportEngineJobs(env *runEnv, jobs []*engine.Job, root int64) {
	var queue, run, persist []float64
	for _, j := range jobs {
		t := j.Timing()
		queue = append(queue, t.QueueSec)
		run = append(run, t.RunSec)
		persist = append(persist, t.PersistSec)
		s := j.Created.Add(seconds(t.QueueSec))
		env.spans.add(0, root, j.TraceID, "engine.run", s, s.Add(seconds(t.RunSec)))
	}
	env.layers.set("engine.queue_wait_s_p50", median(queue))
	env.layers.set("engine.run_s", sum(run))
	env.layers.set("engine.persist_s", sum(persist))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// distinctScenarios returns one cell per distinct scenario, in grid
// order.
func distinctScenarios(specs []engine.Spec) []engine.Spec {
	seen := map[string]bool{}
	var out []engine.Spec
	for _, sp := range specs {
		if id := scenarioID(sp); !seen[id] {
			seen[id] = true
			out = append(out, sp)
		}
	}
	return out
}
