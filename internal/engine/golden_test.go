package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/telemetry"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// goldenScenarioDigest is scenarioDigest of tinySpec("FedAvg")'s built
// scenario: the encoded client inputs and test inputs, byte for byte.
const goldenScenarioDigest = "aca54ca0deffc5b4e47a9cc7d5548bedc03f8116503752561a7cd2bd019257b5"

// scenarioDigest hashes every client's FlatX and the test set's X as
// little-endian float64 bits, in client order.
func scenarioDigest(sc *Scenario) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x *tensor.Tensor) {
		for _, v := range x.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, c := range sc.Clients {
		put(c.FlatX)
	}
	put(sc.Test.X)
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenScenarioDigest(t *testing.T) {
	sc, err := buildScenario(tinySpec("FedAvg"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := scenarioDigest(sc); got != goldenScenarioDigest {
		t.Fatalf("scenario digest = %s, want %s", got, goldenScenarioDigest)
	}
}

// Fresh engines building the same scenario in parallel must share the
// process-wide default encoder and produce byte-equal scenarios. Run
// under -race this also checks the shared encoder is read-only.
func TestParallelScenarioBuildsShareEncoder(t *testing.T) {
	const n = 4
	scs := make([]*Scenario, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		e := newTestEngine(t, Options{Workers: 1})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scs[i], errs[i] = e.BuildScenario(tinySpec("FedAvg"))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if scs[i].Env.Enc != encoder.Default() {
			t.Fatalf("engine %d built its own encoder instead of sharing encoder.Default()", i)
		}
		if got := scenarioDigest(scs[i]); got != goldenScenarioDigest {
			t.Fatalf("engine %d: scenario digest = %s, want %s", i, got, goldenScenarioDigest)
		}
	}
}

// goldenResultCodeVersion is the CodeVersion goldenResultDigests were
// taken under. A digest may only move together with a CodeVersion bump:
// the content-addressed cache serves stored Results by Spec hash, so a
// computation that changes under an unchanged CodeVersion would serve
// stale Results from every existing cache.
const goldenResultCodeVersion = "pardon-engine/3"

// goldenResultDigests pins resultDigest of tinySpec runs by
// "<method>/<precision>".
var goldenResultDigests = map[string]string{
	"FedAvg/f64": "9729d7c6f680898c0d95f441bd3345c50e1ad6e4e2c1a7788d3fd1c89cb4d11f",
	"FedAvg/f32": "3f832642a60cc64788614cf11d9218fee2c5babacf1e13b030a3b1a4162ef891",
	"PARDON/f64": "c240937cd559bd7ad824ba2c7788035a19f5b9b245912a403ed410aa71202a13",
	"PARDON/f32": "c2a23b7fb8f2f78ee67b4de7ddb04637c5e670dd0941ad3a430b9a7c43038af1",
}

// resultDigest hashes the reproducible part of a run: the Result's
// SpecHash, its Stats as round numbers and float64 bits, and the stored
// model checkpoint blob. Wall-clock Timing and ElapsedSec are excluded.
func resultDigest(t *testing.T, e *Engine, res *Result) string {
	t.Helper()
	h := sha256.New()
	h.Write([]byte(res.SpecHash))
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range res.Stats {
		put(uint64(s.Round))
		put(math.Float64bits(s.ValAcc))
		put(math.Float64bits(s.TestAcc))
	}
	blob, ok, err := e.ModelBlob(res.SpecHash)
	if err != nil || !ok {
		t.Fatalf("model blob for %s: ok=%v err=%v", res.SpecHash, ok, err)
	}
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenResultDigest(t *testing.T) {
	for _, method := range []string{"FedAvg", "PARDON"} {
		for _, prec := range []string{"f64", "f32"} {
			name := method + "/" + prec
			t.Run(name, func(t *testing.T) {
				var digests [2]string
				for i, par := range []int{1, 2} {
					// A fresh engine per Parallelism: the hint is not part of
					// the content-address, so one engine would answer the
					// second run from its cache.
					e := newTestEngine(t, Options{Workers: 1, Metrics: telemetry.NewRegistry(), Logger: discardLogger()})
					sp := tinySpec(method)
					sp.Precision = prec
					sp.Parallelism = par
					j, err := e.Submit(sp, 0)
					if err != nil {
						t.Fatal(err)
					}
					res, err := j.Wait(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					digests[i] = resultDigest(t, e, res)
				}
				if digests[0] != digests[1] {
					t.Fatalf("digest differs across Parallelism: 1 → %s, 2 → %s", digests[0], digests[1])
				}
				want := goldenResultDigests[name]
				if digests[0] == want {
					return
				}
				if CodeVersion == goldenResultCodeVersion {
					t.Fatalf("result digest = %s, want %s: the computation changed under CodeVersion %q — bump CodeVersion (spec.go) and re-pin goldenResultDigests",
						digests[0], want, CodeVersion)
				}
				t.Fatalf("result digest = %s under CodeVersion %q; goldenResultDigests were taken under %q — re-pin them and goldenResultCodeVersion",
					digests[0], CodeVersion, goldenResultCodeVersion)
			})
		}
	}
}
