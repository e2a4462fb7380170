package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// serveClients is the closed loop's client count: two callers that each
// wait for a reply, never more than the machine's cores.
var serveClients = min(2, runtime.NumCPU())

// cachedSweeps is how many times the whole grid is re-read as one
// cached sweep for makespan_s.
const cachedSweeps = 31

// reopens is how many cold engine starts set-up times for setup_s.
const reopens = 15

// journalFile is the write-ahead journal a disk-backed engine keeps in
// its cache directory.
const journalFile = "journal.jsonl"

// traceSlices is how many alternating untraced/traced slices a traced
// run cuts the window into.
const traceSlices = 10

// runServeCached measures cached reads. Set-up trains a grid larger
// than the store's in-memory tier on a disk-backed engine, then reopens
// that engine cold several times (timed). The measured phase is a
// closed loop of SDK clients: each op submits a Zipf-drawn cell (a
// cache hit) and fetches its Result; every fourth op also downloads the
// checkpoint, which the store reads from disk. makespan_s is the time
// to re-read the whole grid as one cached sweep.
func runServeCached(env *runEnv) (*measurement, error) {
	sw := smallCellGrid(env.seed, 12, "serve-cached")
	specs, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(env.dir, "serve")
	prepStart := time.Now()
	want, err := trainOutcomes(env, dir, sw)
	if err != nil {
		return nil, err
	}
	fmt.Printf("serve-cached: trained %d cells in %.3fs\n", len(want), time.Since(prepStart).Seconds())
	hashes := make([]string, len(specs))
	var acc float64
	for i, sp := range specs {
		if hashes[i], err = sp.Hash(); err != nil {
			return nil, err
		}
		acc += want[hashes[i]].stats[len(want[hashes[i]].stats)-1].TestAcc
	}

	// Every timed reopen starts from the journal training left behind,
	// so each one replays and compacts the same history.
	journalPath := filepath.Join(dir, journalFile)
	journal, err := os.ReadFile(journalPath)
	if err != nil {
		return nil, err
	}
	m := &measurement{testAcc: acc / float64(len(specs))}
	var srv *servingEngine
	for i := 0; i < reopens; i++ {
		if err := os.WriteFile(journalPath, journal, 0o644); err != nil {
			return nil, err
		}
		start, cpu0 := sampleStart()
		s, err := openServing(env, dir)
		if err != nil {
			return nil, err
		}
		m.addSetup(start, cpu0)
		if i < reopens-1 {
			s.close()
		} else {
			srv = s
		}
	}
	defer srv.close()

	loop := &closedLoop{env: env, srv: srv, specs: specs, hashes: hashes, want: want}
	if env.traced {
		// Untraced and traced slices alternate through the window, so the
		// memory tier's warm-up and any drift fall on both sides of
		// trace.overhead_share.
		before, jBefore := readKernels(), promSums(srv.reg)["journal_records_total"]
		ops := 0
		for i := 0; i < traceSlices; i++ {
			res := loop.run(env.budget/traceSlices, i%2 == 1)
			ops += res.ops
			if i%2 == 1 {
				m.traced = append(m.traced, res.latency...)
			} else {
				m.untraced = append(m.untraced, res.latency...)
			}
		}
		reportKernels(env.layers, before, readKernels())
		env.layers.set("journal.records_per_cell", ratio(promSums(srv.reg)["journal_records_total"]-jBefore, float64(ops)))
		srv.stap.report(env.layers)
		srv.ctap.report(env.layers, srv.stap, len(m.traced))
	} else {
		res := loop.run(env.budget, false)
		m.opMs, m.ops, m.window, m.opCPU = res.latency, res.ops, res.window, res.cpu
	}
	for i := 0; i < cachedSweeps; i++ {
		if err := loop.cachedSweep(sw, m); err != nil {
			return nil, err
		}
	}
	st := srv.eng.Stats()
	fmt.Printf("serve-cached: %d submissions, %d cache hits, %d rounds trained\n", st.Submitted, st.CacheHits, st.RoundsExecuted)
	env.check.expect(st.RoundsExecuted == 0, "serve-cached: the serving engine trained %d rounds", st.RoundsExecuted)
	if env.traced {
		env.layers.set("engine.rounds_trained", float64(st.RoundsExecuted))
		env.layers.set("engine.cache_hit_ratio", ratio(float64(st.CacheHits), float64(st.Submitted)))
		rp, err := newReplayer(env, len(distinctScenarios(specs)))
		if err != nil {
			return nil, err
		}
		defer rp.close()
		for _, sp := range distinctScenarios(specs) {
			if _, err := rp.scenario(sp, "setup"); err != nil {
				return nil, err
			}
		}
		env.layers.set("engine.scenario_build_s", rp.buildSec)
		env.layers.set("engine.scenario_builds", float64(rp.builds))
	}
	return m, nil
}

// servingEngine is the disk-backed engine behind the HTTP API, with a
// plain SDK client and, for traced passes, a tapped one.
type servingEngine struct {
	eng     *engine.Engine
	reg     *telemetry.Registry
	srv     *loopback
	tracing atomic.Bool // route requests through stap
	plain   *client.Client
	tapped  *client.Client
	stap    *serverTap
	ctap    *clientTap
}

// openServing opens the engine on its existing store (cold: journal
// replay, empty memory tier), serves it on loopback and waits for the
// first health round trip.
func openServing(env *runEnv, dir string) (*servingEngine, error) {
	s := &servingEngine{reg: telemetry.NewRegistry()}
	var err error
	s.eng, err = engine.New(engine.Options{CacheDir: dir, Metrics: s.reg, Logger: env.log})
	if err != nil {
		return nil, err
	}
	api := engine.NewServer(s.eng)
	if s.srv, err = serveLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.tracing.Load() {
			s.stap.ServeHTTP(w, r)
		} else {
			api.ServeHTTP(w, r)
		}
	})); err != nil {
		s.eng.Close()
		return nil, err
	}
	s.plain = client.New(s.srv.url)
	if env.traced {
		s.stap = newServerTap(api, env.spans)
		s.ctap = newClientTap(env.spans)
		s.tapped = client.New(s.srv.url, client.WithHTTPClient(&http.Client{Transport: s.ctap}))
	}
	if err := s.plain.Health(context.Background()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *servingEngine) close() {
	s.srv.close()
	s.eng.Close()
}

// closedLoop drives the serving engine with Zipf-skewed cell draws: the
// hot head of the grid stays in the store's memory tier, the tail is
// read from disk.
type closedLoop struct {
	env    *runEnv
	srv    *servingEngine
	specs  []engine.Spec
	hashes []string
	want   map[string]cellOutcome
	pass   int
}

type loopResult struct {
	latency []float64 // ms per op
	ops     int
	window  float64
	cpu     float64 // process CPU seconds
}

// run drives the loop for d and returns the ops' latencies. Each client
// draws its cells from its own seed-derived stream.
func (l *closedLoop) run(d time.Duration, traced bool) loopResult {
	l.pass++
	cl := l.srv.plain
	if traced {
		l.srv.tracing.Store(true)
		defer l.srv.tracing.Store(false)
		cl = l.srv.tapped
	}
	var mu sync.Mutex
	var res loopResult
	var wg sync.WaitGroup
	start, cpu0 := sampleStart()
	deadline := start.Add(d)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(l.env.seed)*131 + int64(l.pass)*17 + int64(c)))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(l.specs)-1))
			var lat []float64
			for n := 0; time.Now().Before(deadline); n++ {
				i := int(zipf.Uint64())
				ms, ok, msg := l.op(cl, i, n%4 == 3, traced, c, n)
				l.env.check.expect(ok, "serve-cached op on cell %d (%s): %s", i, l.specs[i].Method, msg)
				lat = append(lat, ms)
			}
			mu.Lock()
			res.latency = append(res.latency, lat...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.window = time.Since(start).Seconds()
	res.cpu = cpuSeconds() - cpu0
	res.ops = len(res.latency)
	return res
}

// op is client c's n-th request sequence on cell i; it returns its
// latency and whether every output matched set-up's. A failed request
// ends the op, which keeps the time it took.
func (l *closedLoop) op(cl *client.Client, i int, model, traced bool, c, n int) (float64, bool, string) {
	ctx := context.Background()
	var root int64
	var id string
	if traced {
		root, id = l.env.spans.newID(), fmt.Sprintf("op-%d-%d-%d", l.pass, c, n)
		ctx = withSpan(ctx, root, id)
	}
	want := l.want[l.hashes[i]]
	start := time.Now()
	elapsed := func() float64 { return float64(time.Since(start)) / 1e6 }
	view, err := cl.Submit(ctx, l.specs[i], client.SubmitOptions{})
	if err != nil {
		return elapsed(), false, err.Error()
	}
	res, err := cl.Result(ctx, view.ID)
	if err != nil {
		return elapsed(), false, err.Error()
	}
	var blob []byte
	if model {
		if blob, err = cl.Model(ctx, view.ID); err != nil {
			return elapsed(), false, err.Error()
		}
	}
	ms := elapsed()
	if traced {
		l.env.spans.addRoot(root, id, "op", start, time.Now())
	}
	switch {
	case !view.Cached || view.State != engine.StateDone:
		return ms, false, fmt.Sprintf("submit answered %s, cached %v", view.State, view.Cached)
	case res.SpecHash != l.hashes[i]:
		return ms, false, "result SpecHash differs from Spec.Hash()"
	case !sameStats(res.Stats, want.stats):
		return ms, false, "result Stats differ from set-up's"
	case model && sha256.Sum256(blob) != want.blob:
		return ms, false, "checkpoint digest differs from set-up's"
	}
	return ms, true, ""
}

// cachedSweep re-reads the whole grid as one sweep through the SDK,
// appends its wall and CPU time to m as a batch, and checks every cell
// was answered from the cache with set-up's Result.
func (l *closedLoop) cachedSweep(sw engine.Sweep, m *measurement) error {
	start, cpu0 := sampleStart()
	view, err := l.srv.plain.SubmitSweep(context.Background(), sw, client.SubmitOptions{Wait: true})
	m.makespan = append(m.makespan, time.Since(start).Seconds())
	m.batchCPU = append(m.batchCPU, cpuSeconds()-cpu0)
	if err != nil {
		return err
	}
	for _, jv := range view.Jobs {
		w, ok := l.want[jv.Key]
		l.env.check.expect(ok && jv.Cached && jv.State == engine.StateDone && jv.Result != nil && sameStats(jv.Result.Stats, w.stats),
			"serve-cached sweep job %s (%s): not answered from the cache with set-up's Result", jv.ID, jv.Method)
	}
	return nil
}
