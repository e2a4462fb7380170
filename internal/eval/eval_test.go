package eval_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/eval"
)

func TestParseScale(t *testing.T) {
	if s, err := eval.ParseScale("small"); err != nil || s != eval.Small {
		t.Fatalf("small: %v %v", s, err)
	}
	if s, err := eval.ParseScale(""); err != nil || s != eval.Small {
		t.Fatalf("default: %v %v", s, err)
	}
	if s, err := eval.ParseScale("paper"); err != nil || s != eval.Paper {
		t.Fatalf("paper: %v %v", s, err)
	}
	if _, err := eval.ParseScale("huge"); err == nil {
		t.Fatal("unknown scale should error")
	}
}

func TestNewAlgorithmRegistry(t *testing.T) {
	names := append(eval.MethodNames(), "FedAvg", "CCST-sample",
		"PARDON-v1", "PARDON-v2", "PARDON-v3", "PARDON-v4", "PARDON-v5")
	for _, n := range names {
		alg, err := eval.NewAlgorithm(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if alg.Name() == "" {
			t.Fatalf("%s has empty name", n)
		}
	}
	if _, err := eval.NewAlgorithm("Unknown"); err == nil {
		t.Fatal("unknown method should error")
	}
	if _, err := eval.NewAlgorithm("PARDON-v9"); err == nil {
		t.Fatal("unknown variant should error")
	}
}

func TestMethodNamesOrder(t *testing.T) {
	names := eval.MethodNames()
	if len(names) != 6 || names[0] != "FedSR" || names[5] != "PARDON" {
		t.Fatalf("method order = %v", names)
	}
}

// TestRunAblationSmoke exercises the Table V runner end to end at reduced
// scale; among other things it verifies every PARDON variant trains under
// the shared scenario builder.
func TestRunAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run is not short")
	}
	res, err := eval.RunAblation(eval.Config{Scale: eval.Small, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 5 {
		t.Fatalf("variants = %v", res.Variants)
	}
	for _, v := range res.Variants {
		if res.Test[v] <= 0 || res.Test[v] > 1 {
			t.Fatalf("%s test acc = %g", v, res.Test[v])
		}
	}
	if res.Table().Render() == "" {
		t.Fatal("empty table")
	}
}

// TestRunOverheadSmoke checks the Fig. 4 shape: PARDON pays a one-time
// setup cost and keeps aggregation as cheap as FedAvg's, while FedDG-GA's
// aggregation is the most expensive (extra server-side evaluations).
func TestRunOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead run is not short")
	}
	res, err := eval.RunOverhead(eval.Config{Scale: eval.Small, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.OneTime["PARDON"] <= 0 {
		t.Errorf("PARDON one-time cost = %g, want > 0", res.OneTime["PARDON"])
	}
	if res.OneTime["FedGMA"] > 1e-3 {
		t.Errorf("FedGMA should have a negligible one-time cost, got %gs", res.OneTime["FedGMA"])
	}
	if res.OneTime["PARDON"] < 10*res.OneTime["FedGMA"] {
		t.Errorf("PARDON's one-time cost (%gs) should dominate FedGMA's no-op setup (%gs)",
			res.OneTime["PARDON"], res.OneTime["FedGMA"])
	}
	if res.AvgAggregate["FedDG-GA"] <= res.AvgAggregate["PARDON"] {
		t.Errorf("FedDG-GA aggregation (%g) should exceed PARDON's (%g)",
			res.AvgAggregate["FedDG-GA"], res.AvgAggregate["PARDON"])
	}
}

// TestStyleTransferComparisonSmoke checks the Fig. 8 shape: CCST's
// transfers are distinguishable across targets and leak target styles;
// PARDON's are not and do not.
func TestStyleTransferComparisonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 run is not short")
	}
	res, err := eval.RunStyleTransferComparison(eval.Config{Scale: eval.Small, Seed: 7}, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.PARDONCrossTarget != 0 {
		t.Errorf("PARDON cross-target distance = %g, want 0 (single fused target)", res.PARDONCrossTarget)
	}
	if res.CCSTCrossTarget <= res.PARDONCrossTarget {
		t.Errorf("CCST cross-target %g should exceed PARDON's %g", res.CCSTCrossTarget, res.PARDONCrossTarget)
	}
	if res.CCSTTargetLeakage >= res.PARDONTargetLeakage {
		t.Errorf("CCST leakage %g should be below PARDON's %g (CCST outputs match target styles)",
			res.CCSTTargetLeakage, res.PARDONTargetLeakage)
	}
}

// TestRunLandscape pins Fig. 1 end to end: the loss surfaces around the
// trained global models (read back from their checkpoint blobs) hash to
// fixed values, and a cached re-run whose blob was evicted retrains only
// that cell and reports the same result.
func TestRunLandscape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 run is not short")
	}
	cache := t.TempDir()
	eng, err := engine.New(engine.Options{Workers: 1, CacheDir: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg := eval.Config{Scale: eval.Small, Seed: 1, Seeds: 1, Engine: eng}
	out := t.TempDir()
	first, err := eval.RunLandscape(cfg, out)
	if err != nil {
		t.Fatal(err)
	}
	for method, want := range map[string]string{
		"FedAvg": "c94d2adfa5cd85bba4316ceebe7b3d1f8b5b7bf3a9af9036ed06333747f5a001",
		"PARDON": "dde307786116fbd3e0da437d68552257a04dcf9cceddc1c8fdca0e5bc96d3729",
	} {
		raw, err := os.ReadFile(filepath.Join(out, "fig1-surface-"+method+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s surface CSV sha256 = %x, want %s", method, sum, want)
		}
	}

	blobs, err := filepath.Glob(filepath.Join(cache, "*.model.bin"))
	if err != nil || len(blobs) != 2 {
		t.Fatalf("cache holds checkpoint blobs %v (err %v), want one per cell", blobs, err)
	}
	if err := os.Remove(blobs[0]); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	again, err := eval.RunLandscape(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("re-run with an evicted blob = %+v, want %+v", again, first)
	}
	if trained := eng.Stats().RoundsExecuted - before.RoundsExecuted; trained != before.RoundsExecuted/2 {
		t.Fatalf("re-run trained %d rounds, want one cell's %d", trained, before.RoundsExecuted/2)
	}
}
