package eval

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/pardon-feddg/pardon/internal/dataset"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/landscape"
	"github.com/pardon-feddg/pardon/internal/nn"
	"github.com/pardon-feddg/pardon/internal/report"
)

// LandscapeResult holds Fig. 1: loss-surface sharpness around the global
// model and unseen-domain feature separation, naïve training vs PARDON.
type LandscapeResult struct {
	// Sharpness of the pooled-client loss surface (lower/flatter =
	// clients agree around the global model).
	NaiveSharpness  float64
	PARDONSharpness float64
	// Separation is the Fisher class-separation score of unseen-domain
	// embeddings (higher = the t-SNE panel's cleaner clusters).
	NaiveSeparation  float64
	PARDONSeparation float64
	// Unseen-domain accuracy of each final global model.
	NaiveAcc  float64
	PARDONAcc float64
}

// Table renders the Fig. 1 summary.
func (r *LandscapeResult) Table() *report.Table {
	t := &report.Table{
		Title:  "Fig. 1 — loss landscape and unseen-domain feature separation",
		Header: []string{"Training", "surface sharpness", "class separation (unseen)", "unseen acc"},
		Notes: []string{
			"sharpness = mean pooled-client loss increase around the global model (flatter is better)",
			"separation = between/within class scatter of unseen-domain embeddings (t-SNE panel analogue)",
		},
	}
	t.AddRow("Naive (FedAvg)", fmt.Sprintf("%.4f", r.NaiveSharpness), fmt.Sprintf("%.4f", r.NaiveSeparation), report.Pct(r.NaiveAcc))
	t.AddRow("PARDON", fmt.Sprintf("%.4f", r.PARDONSharpness), fmt.Sprintf("%.4f", r.PARDONSeparation), report.Pct(r.PARDONAcc))
	return t
}

// RunLandscape regenerates Fig. 1: two clients holding different domains
// train naïvely and with PARDON; the pooled loss surface around each
// global model and the unseen-domain feature separation are reported.
// outDir, when non-empty, receives the loss-surface grids as CSV.
func RunLandscape(cfg Config, outDir string) (*LandscapeResult, error) {
	spec := pacsSpec(cfg)
	sz := spec.Sizing
	sz.NumClients = 2
	sz.SampleK = 2
	// Two clients, two domains (Photo and Art), unseen Sketch.
	split := dataset.Split{Name: "fig1", Train: []int{0, 1}, Test: []int{3}}
	eng := cfg.engine()

	// Both training runs go through the engine as one method-axis sweep;
	// each trained global model is the checkpoint blob stored under its
	// cell's content-address. The landscape probes below need the
	// scenario itself, which the engine shares from its scenario cache.
	base := flSpec(spec.Name, spec.Gen.Seed, split, 0.0, sz, "", cfg.Seed, 0, "fig1")
	sw := engine.Sweep{Base: base, Methods: []string{"FedAvg", "PARDON"}}
	results, err := sweepResults(eng, sw)
	if err != nil {
		return nil, err
	}
	scenarioSpec := base
	scenarioSpec.Method = "FedAvg"
	sc, err := eng.BuildScenario(scenarioSpec)
	if err != nil {
		return nil, err
	}

	res := &LandscapeResult{}
	for i, method := range []string{"FedAvg", "PARDON"} {
		cell := base
		cell.Method = method
		model, err := trainedModel(eng, cell, results[i].SpecHash)
		if err != nil {
			return nil, fmt.Errorf("eval: fig1 %s model: %w", method, err)
		}
		grid, err := landscape.LossSurface(model, sc.Clients, 13, 0.5, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sep, err := landscape.SeparationScore(model, sc.Test, sc.Gen.Config().NumClasses)
		if err != nil {
			return nil, err
		}
		switch method {
		case "FedAvg":
			res.NaiveSharpness = grid.Sharpness()
			res.NaiveSeparation = sep
			res.NaiveAcc = results[i].Final().TestAcc
		default:
			res.PARDONSharpness = grid.Sharpness()
			res.PARDONSeparation = sep
			res.PARDONAcc = results[i].Final().TestAcc
		}
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(outDir, "fig1-surface-"+method+".csv")
			if err := os.WriteFile(path, []byte(grid.CSV()), 0o644); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// trainedModel decodes the checkpoint blob stored under key. A cached
// Result can outlive its blob (store eviction, a failed best-effort
// write); the cell is then retrained with Fresh() and read again.
func trainedModel(eng *engine.Engine, spec engine.Spec, key string) (*nn.Model, error) {
	blob, ok, err := eng.ModelBlob(key)
	if err == nil && !ok {
		var j *engine.Job
		if j, err = eng.Submit(spec, 0, engine.Fresh()); err == nil {
			if _, err = j.Wait(context.Background()); err == nil {
				blob, ok, err = eng.ModelBlob(key)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("no checkpoint blob stored under %.12s", key)
	}
	return nn.LoadModel(blob)
}
