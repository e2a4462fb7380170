package eval

import (
	"context"
	"fmt"

	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/report"
)

// ConvergenceResult holds Fig. 3: test accuracy per round at each
// heterogeneity level, training on Art+Cartoon and testing on Sketch.
type ConvergenceResult struct {
	Lambdas []float64
	Methods []string
	Rounds  []int
	// Acc indexed [lambda position][method] → accuracy per logged round.
	Acc []map[string][]float64
}

// Tables renders one grid per λ (rounds × methods).
func (r *ConvergenceResult) Tables() []*report.Table {
	var out []*report.Table
	for li, l := range r.Lambdas {
		t := &report.Table{Title: fmt.Sprintf("Fig. 3 — convergence on Sketch, λ=%.1f (train Art+Cartoon)", l)}
		t.Header = append([]string{"Round"}, r.Methods...)
		for ri, round := range r.Rounds {
			row := []string{fmt.Sprintf("%d", round)}
			for _, m := range r.Methods {
				row = append(row, report.Pct(r.Acc[li][m][ri]))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

// RunConvergence regenerates Fig. 3: convergence curves on PACS Sketch
// with training domains Art and Cartoon under λ ∈ {0, 0.1, 0.5, 1.0}.
func RunConvergence(cfg Config) (*ConvergenceResult, error) {
	spec := pacsSpec(cfg)
	methods := MethodNames()
	res := &ConvergenceResult{
		Lambdas: []float64{0.0, 0.1, 0.5, 1.0},
		Methods: methods,
	}
	// Train on Art(1)+Cartoon(2), test on Sketch(3), as the figure states.
	split := dataset.Split{Name: "fig3", Train: []int{1, 2}, Test: []int{3}}
	evalEvery := 1
	if spec.Sizing.Rounds > 25 {
		evalEvery = 2
	}
	seeds := cfg.seeds()
	// One (seed × method) sweep per λ — the scenario tag embeds λ, so a
	// λ axis inside one sweep would change each cell's randomness
	// stream. All λ levels are submitted before any is awaited, so the
	// full grid still shards across the worker pool at once.
	sws := make([]engine.Sweep, 0, len(res.Lambdas))
	for _, lambda := range res.Lambdas {
		sws = append(sws, engine.Sweep{
			Base:    flSpec(spec.Name, 0, split, lambda, spec.Sizing, "", 0, evalEvery, fmt.Sprintf("fig3-%.1f", lambda)),
			Methods: methods,
			Seeds:   seedAxis(seeds, func(s uint64) uint64 { return spec.Gen.Seed*7919 + s }),
		})
	}
	all, err := sweepAllResults(cfg.engine(), sws)
	if err != nil {
		return nil, err
	}
	for li := range res.Lambdas {
		results := all[li]
		ri := 0
		accs := map[string][]float64{}
		for range seeds {
			for _, m := range methods {
				stats := results[ri].Stats
				ri++
				if accs[m] == nil {
					accs[m] = make([]float64, len(stats))
				}
				if len(res.Rounds) == 0 {
					for _, st := range stats {
						res.Rounds = append(res.Rounds, st.Round)
					}
				}
				for i, st := range stats {
					accs[m][i] += st.TestAcc / float64(len(seeds))
				}
			}
		}
		res.Acc = append(res.Acc, accs)
	}
	return res, nil
}

// OverheadResult holds Fig. 4: the per-phase wall-clock breakdown.
type OverheadResult struct {
	Methods []string
	// Seconds per phase, keyed by method.
	OneTime       map[string]float64
	AvgLocalTrain map[string]float64
	AvgAggregate  map[string]float64
}

// Table renders the Fig. 4 breakdown.
func (r *OverheadResult) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig. 4 — computational overhead per phase",
		Header: []string{"Method", "one-time", "local-train/client/round", "aggregate/round"},
		Notes: []string{
			"one-time = Setup (PARDON's style extraction + clustering; CCST's bank build)",
			"identical client schedules across methods (same sampling streams)",
		},
	}
	for _, m := range r.Methods {
		t.AddRow(m, report.Ms(r.OneTime[m]), report.Ms(r.AvgLocalTrain[m]), report.Ms(r.AvgAggregate[m]))
	}
	return t
}

// RunOverhead regenerates Fig. 4: wall-clock per phase for every method on
// an identical PACS scenario (same clients, same sampling schedule).
func RunOverhead(cfg Config) (*OverheadResult, error) {
	spec := pacsSpec(cfg)
	methods := MethodNames()
	res := &OverheadResult{
		Methods:       methods,
		OneTime:       map[string]float64{},
		AvgLocalTrain: map[string]float64{},
		AvgAggregate:  map[string]float64{},
	}
	split := dataset.Split{Name: "fig4", Train: []int{0, 1, 2}, Test: []int{3}}
	// All specs share one scenario (identical data and client schedules
	// across methods), but this runner differs from the others in two
	// ways because its output IS wall-clock timing: jobs are submitted
	// fresh (a cached result would report another run's — possibly
	// another machine's — timings) and each is awaited before the next
	// is submitted so methods never contend with each other for CPU.
	eng := cfg.engine()
	for _, m := range methods {
		sp := flSpec(spec.Name, spec.Gen.Seed, split, DefaultLambda, spec.Sizing, m, cfg.Seed, 0, "fig4")
		job, err := eng.Submit(sp, 0, engine.Fresh())
		if err != nil {
			return nil, fmt.Errorf("eval: fig4 %s: %w", m, err)
		}
		r, err := job.Wait(context.Background())
		if err != nil {
			return nil, fmt.Errorf("eval: fig4 %s: %w", m, err)
		}
		res.OneTime[m] = r.Timing.SetupSec
		res.AvgLocalTrain[m] = r.Timing.AvgLocalTrainSec()
		res.AvgAggregate[m] = r.Timing.AvgAggregateSec()
	}
	return res, nil
}

// ClientScalingResult holds Fig. 5: accuracy as N grows with K fixed.
type ClientScalingResult struct {
	Ns      []int
	K       int
	Methods []string
	// Val/Test indexed [method][N position].
	Val  map[string][]float64
	Test map[string][]float64
}

// Tables renders the validation and test grids.
func (r *ClientScalingResult) Tables() []*report.Table {
	var out []*report.Table
	for _, kind := range []string{"Validation", "Test"} {
		t := &report.Table{Title: fmt.Sprintf("Fig. 5 — %s accuracy vs clients (K=%d fixed)", kind, r.K)}
		t.Header = []string{"Method"}
		for _, n := range r.Ns {
			t.Header = append(t.Header, fmt.Sprintf("%d/%d", r.K, n))
		}
		src := r.Val
		if kind == "Test" {
			src = r.Test
		}
		for _, m := range r.Methods {
			row := []string{m}
			for i := range r.Ns {
				row = append(row, report.Pct(src[m][i]))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

// RunClientScaling regenerates Fig. 5: K=5 participants per round while
// the total population N grows — participation ratios 100% … 2.5%.
func RunClientScaling(cfg Config) (*ClientScalingResult, error) {
	spec := pacsSpec(cfg)
	methods := MethodNames()
	res := &ClientScalingResult{
		Ns: []int{5, 10, 50, 100, 200}, K: 5,
		Methods: methods,
		Val:     map[string][]float64{},
		Test:    map[string][]float64{},
	}
	if cfg.Scale == Small {
		res.Ns = []int{5, 10, 25, 50}
	}
	for _, m := range methods {
		res.Val[m] = make([]float64, len(res.Ns))
		res.Test[m] = make([]float64, len(res.Ns))
	}
	// Same direction as Fig. 3: train Art+Cartoon, validate Art (seen
	// holdout), test Sketch (unseen).
	split := dataset.Split{Name: "fig5", Train: []int{1, 2}, Val: []int{1}, Test: []int{3}}
	sz := spec.Sizing
	// Ensure even the largest N gets a few samples per client.
	minTotal := res.Ns[len(res.Ns)-1] * 6
	if sz.PerDomain*len(split.Train) < minTotal {
		sz.PerDomain = (minTotal + len(split.Train) - 1) / len(split.Train)
	}
	seeds := cfg.seeds()
	// One (seed × method) sweep per population size N — the scenario tag
	// embeds N, so N cannot ride the sweep's Clients axis without
	// changing each cell's randomness stream. All N levels are submitted
	// before any is awaited, so the full grid still shards across the
	// worker pool at once.
	sws := make([]engine.Sweep, 0, len(res.Ns))
	for _, n := range res.Ns {
		szN := sz
		szN.NumClients = n
		szN.SampleK = res.K
		sws = append(sws, engine.Sweep{
			Base:    flSpec(spec.Name, 0, split, DefaultLambda, szN, "", 0, 0, fmt.Sprintf("fig5-%d", n)),
			Methods: methods,
			Seeds:   seedAxis(seeds, func(s uint64) uint64 { return spec.Gen.Seed*7919 + s }),
		})
	}
	all, err := sweepAllResults(cfg.engine(), sws)
	if err != nil {
		return nil, err
	}
	for ni := range res.Ns {
		i := 0
		for range seeds {
			for _, m := range methods {
				res.Val[m][ni] += all[ni][i].Final().ValAcc / float64(len(seeds))
				res.Test[m][ni] += all[ni][i].Final().TestAcc / float64(len(seeds))
				i++
			}
		}
	}
	return res, nil
}
