package engine

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/fl"
	"github.com/pardon-feddg/pardon/internal/metrics"
	"github.com/pardon-feddg/pardon/internal/nn"
)

// TestSpecHiddenAffectsHashAndScenario pins the capacity-sweep contract:
// Hidden is part of the content-address (unlike Parallelism) and flows
// into the built scenario's model configuration.
func TestSpecHiddenAffectsHashAndScenario(t *testing.T) {
	base := tinySpec("FedAvg")
	hBase, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	deep := tinySpec("FedAvg")
	deep.Hidden = []int{16, 8}
	hDeep, err := deep.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hBase == hDeep {
		t.Fatal("Hidden override must change the content-address")
	}
	// And the scenarios must not be shared: model depth lives in the
	// scenario's Env.
	kBase, _ := base.scenarioKey()
	kDeep, _ := deep.scenarioKey()
	if kBase == kDeep {
		t.Fatal("Hidden override must change the scenario key")
	}

	e := newTestEngine(t, Options{Workers: 1})
	sc, err := e.BuildScenario(deep)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Env.ModelCfg.HiddenDims) != 2 || sc.Env.ModelCfg.HiddenDims[0] != 16 || sc.Env.ModelCfg.HiddenDims[1] != 8 {
		t.Fatalf("scenario model config %+v, want HiddenDims [16 8]", sc.Env.ModelCfg)
	}

	// Equivalent spellings of the default depth — nil, [], and the
	// explicit [64] — compute bit-identical models, so they must share
	// one content-address (an alternate spelling must not retrain).
	for _, alt := range [][]int{{}, {64}} {
		s := tinySpec("FedAvg")
		s.Hidden = alt
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != hBase {
			t.Fatalf("Hidden spelling %v split the cache: %s vs %s", alt, h, hBase)
		}
	}

	bad := tinySpec("FedAvg")
	bad.Hidden = []int{8, 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-positive hidden width accepted")
	}
	bad = tinySpec("FedAvg")
	bad.SampleK = bad.Clients + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("SampleK above the client population accepted")
	}
}

// TestModelCheckpointRoundTrip is the checkpoint acceptance test: a run
// stores a checkpoint blob next to its cached Result; the blob decodes
// to the exact trained parameters, evaluates to the same accuracy as
// the in-memory model, and survives to answer cached re-runs — even
// from a fresh engine over the same cache directory.
func TestModelCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	spec := tinySpec("FedAvg")

	j, err := e.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	blob, ok, err := e.ModelBlob(j.Key)
	if err != nil || !ok {
		t.Fatalf("checkpoint blob missing: ok=%v err=%v", ok, err)
	}
	m, err := nn.LoadModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The reference parameters: the same run repeated directly through
	// fl.Run on the engine's scenario.
	sc, err := e.BuildScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewAlgorithm(spec.Method)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := fl.Run(sc.Env, alg, sc.Clients, sc.Val, sc.Test,
		fl.RunConfig{Rounds: spec.Rounds, SampleK: spec.SampleK, EvalEvery: spec.EvalEvery})
	if err != nil {
		t.Fatal(err)
	}
	got, want := m.Vector(), ref.Vector()
	if len(got) != len(want) {
		t.Fatalf("checkpoint has %d params, trained model %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("checkpoint param %d = %g, trained model has %g", i, got[i], want[i])
		}
	}
	// The restored model evaluates to the run's reported test accuracy.
	acc, err := metrics.Accuracy(m, sc.Test.X, sc.Test.Labels, 64)
	if err != nil {
		t.Fatal(err)
	}
	if acc != res.Final().TestAcc {
		t.Fatalf("restored model accuracy %g, run reported %g", acc, res.Final().TestAcc)
	}

	// A fresh engine over the same cache answers the resubmission from
	// the store AND still serves the model blob.
	e2 := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	j2, err := e2.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !j2.Cached() {
		t.Fatal("resubmission missed the cache")
	}
	blob2, ok, err := e2.ModelBlob(j2.Key)
	if err != nil || !ok {
		t.Fatalf("cached re-run lost the checkpoint: ok=%v err=%v", ok, err)
	}
	if len(blob2) != len(blob) {
		t.Fatalf("persisted blob length %d, want %d", len(blob2), len(blob))
	}
}

// A memory-only store must bound its blob map: a long-running
// in-memory server sweeping many specs cannot grow without limit, and
// an evicted blob is a 404, not an error.
func TestStoreMemoryBlobsBounded(t *testing.T) {
	st, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < memCacheCap+10; i++ {
		if err := st.PutBlob(fmt.Sprintf("h%04d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	n := len(st.blobs)
	st.mu.Unlock()
	if n > memCacheCap {
		t.Fatalf("memory store holds %d blobs, cap is %d", n, memCacheCap)
	}
	if _, ok, _ := st.GetBlob("h0000"); ok {
		t.Fatal("oldest blob survived past the cap")
	}
	if _, ok, _ := st.GetBlob(fmt.Sprintf("h%04d", memCacheCap+9)); !ok {
		t.Fatal("newest blob was evicted")
	}
}

func TestStoreBlobMemoryAndDisk(t *testing.T) {
	mem, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := mem.GetBlob("nope"); err != nil || ok {
		t.Fatalf("empty store blob hit: ok=%v err=%v", ok, err)
	}
	if err := mem.PutBlob("k", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	b, ok, err := mem.GetBlob("k")
	if err != nil || !ok || len(b) != 3 {
		t.Fatalf("memory blob round trip: %v %v %v", b, ok, err)
	}

	dir := t.TempDir()
	disk, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.PutBlob("k", []byte{9, 8}); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the directory sees the blob.
	disk2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, ok, err = disk2.GetBlob("k")
	if err != nil || !ok || len(b) != 2 {
		t.Fatalf("disk blob round trip: %v %v %v", b, ok, err)
	}
}

// TestStoreCapEvictsLRU pins the disk-cache size cap: past MaxBytes the
// least-recently-modified files go first, the newest write survives, and
// evicted results cannot be resurrected from the in-memory map.
func TestStoreCapEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Three ~400-byte blobs under a 1000-byte cap: the oldest must go.
	payload := make([]byte, 400)
	st.SetMaxBytes(1000)
	for i, h := range []string{"aa", "bb", "cc"} {
		if err := st.PutBlob(h, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes even on coarse filesystem clocks.
		past := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, h+".model.bin"), past, past); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutBlob("dd", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.GetBlob("aa"); ok {
		t.Fatal("oldest blob survived past the cap")
	}
	if _, ok, _ := st.GetBlob("dd"); !ok {
		t.Fatal("newest blob was evicted")
	}

	// Result entries are evicted from disk AND memory together.
	st2, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Put("old", &Result{Method: "FedAvg"}); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(st2.path("old"), past, past); err != nil {
		t.Fatal(err)
	}
	st2.SetMaxBytes(1) // cap below any entry: everything but the newest goes
	if _, ok, _ := st2.Get("old"); ok {
		t.Fatal("evicted result still served")
	}
}
