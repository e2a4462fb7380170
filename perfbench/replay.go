package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// timedAlg is a timing fl.Algorithm decorator: it forwards every call
// to the method under test and sums the time spent in each phase.
type timedAlg struct {
	fl.Algorithm
	setup time.Duration

	mu         sync.Mutex
	train      time.Duration
	trainCalls int
	aggregate  time.Duration
}

func (a *timedAlg) Setup(env *fl.Env, clients []*fl.Client) error {
	start := time.Now()
	err := a.Algorithm.Setup(env, clients)
	a.setup += time.Since(start)
	return err
}

func (a *timedAlg) LocalTrain(env *fl.Env, c *fl.Client, global *nn.Model, round int) (*nn.Model, error) {
	start := time.Now()
	m, err := a.Algorithm.LocalTrain(env, c, global, round)
	d := time.Since(start)
	a.mu.Lock()
	a.train += d
	a.trainCalls++
	a.mu.Unlock()
	return m, err
}

func (a *timedAlg) Aggregate(env *fl.Env, global *nn.Model, parts []*fl.Client, updates []*nn.Model, round int) (*nn.Model, error) {
	start := time.Now()
	m, err := a.Algorithm.Aggregate(env, global, parts, updates, round)
	a.aggregate += time.Since(start)
	return m, err
}

// replayer re-runs cells with fl.Run on the scenarios a fresh engine
// builds, outside any measured window, and accumulates the fl, core,
// baselines, nn and engine-scenario layer times of those runs.
type replayer struct {
	eng   *engine.Engine
	spans *spanRecorder
	built map[string]bool

	buildSec                     float64
	builds                       int
	runSec, setupSec, roundSec   float64
	trainSec, aggSec             float64
	trainCalls                   int
	coreSetup, coreTrain         float64
	baseSetup, baseTrain         float64
	roundDur                     []float64
	encodeSec                    float64
	checkpointBytes              int64
	busyShareNum, busyShareDenom float64
}

// newReplayer opens the engine whose BuildScenario the replays use; its
// scenario cache holds every distinct scenario of the workload so each
// is built (and timed) once.
func newReplayer(env *runEnv, scenarios int) (*replayer, error) {
	eng, err := engine.New(engine.Options{ScenarioCap: scenarios, Metrics: telemetry.NewRegistry(), Logger: env.log})
	if err != nil {
		return nil, err
	}
	return &replayer{eng: eng, spans: env.spans, built: map[string]bool{}}, nil
}

func (r *replayer) close() { r.eng.Close() }

// scenarioID names a cell's scenario. The workloads vary only the seed
// axes between scenarios; method and precision never change the data.
func scenarioID(sp engine.Spec) string { return fmt.Sprintf("%d/%d", sp.Seed, sp.GenSeed) }

// scenario returns the cell's built scenario, timing the build the
// first time a scenario is asked for.
func (r *replayer) scenario(sp engine.Spec, trace string) (*engine.Scenario, error) {
	id := scenarioID(sp)
	start := time.Now()
	sc, err := r.eng.BuildScenario(sp)
	if err != nil {
		return nil, err
	}
	if !r.built[id] {
		r.built[id] = true
		r.builds++
		r.buildSec += time.Since(start).Seconds()
		r.spans.add(0, 0, trace, "engine.scenario_build", start, time.Now())
	}
	return sc, nil
}

// replay re-runs one cell and returns its evaluation history and the
// trained model's checkpoint blob.
func (r *replayer) replay(sp engine.Spec, trace string) ([]engine.RoundStat, []byte, error) {
	sc, err := r.scenario(sp, trace)
	if err != nil {
		return nil, nil, err
	}
	alg, err := engine.NewAlgorithm(sp.Method)
	if err != nil {
		return nil, nil, err
	}
	prec, err := nn.ParsePrecision(sp.Precision)
	if err != nil {
		return nil, nil, err
	}
	timed := &timedAlg{Algorithm: alg}
	root := r.spans.newID()
	var rounds float64
	start := time.Now()
	model, hist, err := fl.Run(sc.Env, timed, sc.Clients, sc.Val, sc.Test, fl.RunConfig{
		Rounds:    sp.Rounds,
		SampleK:   sp.SampleK,
		EvalEvery: sp.EvalEvery,
		Precision: prec,
		OnRoundEnd: func(round, _ int, rs, re time.Time) {
			rounds += re.Sub(rs).Seconds()
			r.roundDur = append(r.roundDur, re.Sub(rs).Seconds())
			r.spans.add(0, root, trace, fmt.Sprintf("fl.round-%d", round), rs, re)
		},
	})
	end := time.Now()
	if err != nil {
		return nil, nil, err
	}
	r.spans.add(root, 0, trace, "fl.run", start, end)
	encStart := time.Now()
	blob, err := model.MarshalBinary()
	if err != nil {
		return nil, nil, err
	}
	r.encodeSec += time.Since(encStart).Seconds()
	r.checkpointBytes += int64(len(blob))

	wall := end.Sub(start).Seconds()
	r.runSec += wall
	r.setupSec += timed.setup.Seconds()
	r.roundSec += rounds
	r.trainSec += timed.train.Seconds()
	r.trainCalls += timed.trainCalls
	r.aggSec += timed.aggregate.Seconds()
	par := sc.Env.Parallelism
	r.busyShareNum += timed.train.Seconds()
	r.busyShareDenom += rounds * float64(max(par, 1))
	if strings.HasPrefix(sp.Method, "PARDON") {
		r.coreSetup += timed.setup.Seconds()
		r.coreTrain += timed.train.Seconds()
	} else {
		r.baseSetup += timed.setup.Seconds()
		r.baseTrain += timed.train.Seconds()
	}
	stats := make([]engine.RoundStat, len(hist.Stats))
	for i, st := range hist.Stats {
		stats[i] = engine.RoundStat{Round: st.Round, ValAcc: st.ValAcc, TestAcc: st.TestAcc}
	}
	return stats, blob, nil
}

// report sets the fl, core, baselines, nn and engine-scenario metrics.
func (r *replayer) report(lt layerTable) {
	lt.set("fl.run_s", r.runSec)
	lt.set("fl.round_s_p50", median(r.roundDur))
	lt.set("fl.local_train_s", r.trainSec)
	lt.set("fl.local_train_calls", float64(r.trainCalls))
	lt.set("fl.aggregate_s", r.aggSec)
	// Model init and the final clone: run wall time outside Setup and
	// the rounds.
	lt.set("fl.other_s", r.runSec-r.setupSec-r.roundSec)
	// Local training's share of the run's training-pool capacity
	// (round wall time × pool width).
	lt.set("fl.train_busy_share", ratio(r.busyShareNum, r.busyShareDenom))
	lt.set("core.setup_s", r.coreSetup)
	lt.set("core.local_train_s", r.coreTrain)
	lt.set("baselines.setup_s", r.baseSetup)
	lt.set("baselines.local_train_s", r.baseTrain)
	lt.set("nn.checkpoint_encode_s", r.encodeSec)
	lt.set("nn.checkpoint_bytes", float64(r.checkpointBytes))
	lt.set("engine.scenario_build_s", r.buildSec)
	lt.set("engine.scenario_builds", float64(r.builds))
}

// sameStats reports whether two evaluation histories are bit-identical.
func sameStats(a, b []engine.RoundStat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// meanFinalTest is the mean final test accuracy over results.
func meanFinalTest(results []*engine.Result) float64 {
	s := 0.0
	for _, r := range results {
		s += r.Final().TestAcc
	}
	return ratio(s, float64(len(results)))
}
