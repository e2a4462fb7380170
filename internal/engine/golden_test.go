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
const goldenResultCodeVersion = "pardon-engine/4"

// goldenResultDigests pins resultDigest of tinySpec runs by
// "<method>/<precision>".
var goldenResultDigests = map[string]string{
	"FedAvg/f64": "45fa4fa73c9db6dbd469ed80615a0d540ae0af4717cfbdf33283178f346cb6a2",
	"FedAvg/f32": "19cbcbc31649944a69fb3186d591a7c0966f8300f8bccb213eaf88115bb610f3",
	"PARDON/f64": "2f73f09a4427e08ea2e85f01db18c4101cd5d310654375a30a795c0a9b04f3d9",
	"PARDON/f32": "2712c6d34ff62ecd30c38ce87dff41c90d72eb1905e81d0e2b561f8874d39d14",
}

// goldenComputationDigests pins computationDigest of the same runs. It
// leaves the content-address out, so a CodeVersion bump that only
// re-addresses Specs (pardon-engine/3 → /4) must leave it unchanged;
// it moves only when what a Spec computes does.
var goldenComputationDigests = map[string]string{
	"FedAvg/f64": "55ac41d3fb0327612460da23985ba57c083421aa79394b84d1e6c871f818d983",
	"FedAvg/f32": "31080cdafd5aeef393e312533688a8510116546aa32ebbf511ecd05f8d2adb34",
	"PARDON/f64": "bd569818784988085a20654a20717c7243302cdc5e87262c38e988a4b2e9d74b",
	"PARDON/f32": "9a7d25bce56054d2bbf2805bd2a1adfa773a7136ae377bf05d6205fc78281fb9",
}

// resultDigest hashes the reproducible part of a run under its address:
// the Result's SpecHash, then computationDigest's input.
func resultDigest(t *testing.T, e *Engine, res *Result) string {
	return runDigest(t, e, res, res.SpecHash)
}

// computationDigest hashes what a run computed, apart from its address:
// its Stats as round numbers and float64 bits, and the stored model
// checkpoint blob. Wall-clock Timing and ElapsedSec are excluded.
func computationDigest(t *testing.T, e *Engine, res *Result) string {
	return runDigest(t, e, res, "")
}

func runDigest(t *testing.T, e *Engine, res *Result, address string) string {
	t.Helper()
	h := sha256.New()
	h.Write([]byte(address))
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
					if got, want := computationDigest(t, e, res), goldenComputationDigests[name]; got != want {
						t.Fatalf("computation digest = %s, want %s: what the Spec computes changed — if that is deliberate, bump CodeVersion (spec.go) and re-pin both digest maps",
							got, want)
					}
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
