package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"github.com/pardon-feddg/pardon/internal/encoder"
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
