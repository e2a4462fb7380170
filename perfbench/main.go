package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workload is one named traffic mix. run measures it within env.budget
// and returns the raw samples; main turns them into the metric table.
type workload struct {
	name string
	run  func(env *runEnv) (*measurement, error)
}

var workloads = []workload{
	{"table-sweep", runTableSweep},
	{"fleet-small-cells", runFleet},
	{"serve-cached", runServeCached},
}

// runEnv is what every workload receives: its inputs' seed, its time
// budget, a scratch directory, the output checker and, in a traced
// run, the span recorder and layer table.
type runEnv struct {
	seed   uint64
	budget time.Duration
	dir    string
	traced bool
	log    *slog.Logger
	check  *checker
	spans  *spanRecorder
	layers layerTable
}

// measurement is a workload's raw end-to-end samples.
type measurement struct {
	setup    []float64 // seconds, one per set-up repetition
	setupCPU []float64 // process CPU seconds, one per set-up repetition
	makespan []float64 // seconds, one per measured batch
	opMs     []float64 // per-op (or per-cell) latency in ms
	batchCPU []float64 // process CPU seconds, one per measured batch
	ops      int       // ops (or cells) completed in the measured window
	window   float64   // seconds the ops were completed in
	opCPU    float64   // process CPU seconds spent in that window
	testAcc  float64
	// untraced/traced are the makespans (or per-op latencies) of the
	// untraced and traced passes of a traced run, for
	// trace.overhead_share. The passes alternate, so warm-up and drift
	// do not fall on one side.
	untraced, traced []float64
}

// repetitions is how many batches a sweep workload measures: as many of
// the nominal length as the budget holds, at least one. A traced run
// makes three (untraced, traced, untraced).
func (env *runEnv) repetitions(nominal time.Duration) int {
	if env.traced {
		return 3
	}
	return max(1, int(math.Ceil(float64(env.budget)/float64(nominal))))
}

// sampleStart begins a timed sample. It collects garbage first, so a
// cycle an earlier phase left pending does not land in this sample's
// CPU time, and returns the wall-clock and CPU start.
func sampleStart() (time.Time, float64) {
	runtime.GC()
	return time.Now(), cpuSeconds()
}

// addSetup records one set-up repetition that began at start, with the
// process CPU time cpu0.
func (m *measurement) addSetup(start time.Time, cpu0 float64) {
	m.setup = append(m.setup, time.Since(start).Seconds())
	m.setupCPU = append(m.setupCPU, cpuSeconds()-cpu0)
}

// addPass files a batch's makespan for trace.overhead_share and reports
// whether the batch is measured: every batch of an untraced run, only
// the traced one of a traced run.
func (m *measurement) addPass(env *runEnv, traced bool, makespan float64) bool {
	switch {
	case !env.traced:
		return true
	case traced:
		m.traced = append(m.traced, makespan)
	default:
		m.untraced = append(m.untraced, makespan)
	}
	return traced
}

func main() {
	name := flag.String("workload", "", "workload: table-sweep, fleet-small-cells or serve-cached")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 12, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "directory for scratch stores and trace files")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, dir string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d, want ≥ 1", seconds)
	}
	scratch, err := os.MkdirTemp(mkdirAll(dir), "run-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	// Engines, coordinators and workers each get this discarding logger;
	// the process default is silenced too, so no log line reaches the
	// result stream.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	slog.SetDefault(quiet)
	env := &runEnv{
		seed:   seed,
		budget: time.Duration(seconds) * time.Second,
		dir:    scratch,
		traced: traced,
		log:    quiet,
		check:  &checker{},
		layers: layerTable{},
	}
	if traced {
		env.spans = newSpanRecorder()
	}
	m, err := wl.run(env)
	if err != nil {
		return err
	}
	if env.check.attempted == 0 {
		return fmt.Errorf("%s attempted nothing", name)
	}
	metrics := map[string]metricValue{}
	if traced {
		env.layers.set("trace.overhead_share", overheadShare(m.untraced, m.traced))
		unacc, share := env.spans.unaccounted()
		env.layers.set("trace.unaccounted_s", unacc)
		env.layers.set("trace.unaccounted_share", share)
		for k, unit := range layerUnits {
			v, ok := env.layers[k]
			if !ok {
				v = metricValue{0, unit}
			}
			metrics[k] = v
		}
		path := filepath.Join(mkdirAll(filepath.Join(dir, "traces")), fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := env.spans.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", env.spans.len(), path)
	} else {
		// The JSON line carries process CPU time and memory; wall-clock
		// figures and accuracy are printed above it (see doc.go).
		metrics["setup_s"] = metricValue{median(m.setupCPU), "s"}
		metrics["batch_cpu_s"] = metricValue{median(m.batchCPU), "s"}
		metrics["op_cpu_ms"] = metricValue{m.opCPU / float64(m.ops) * 1e3, "ms"}
		metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
		lat := sortedCopy(m.opMs)
		printTable("wall clock and accuracy", map[string]metricValue{
			"setup_wall_s":  {median(m.setup), "s"},
			"makespan_s":    {median(m.makespan), "s"},
			"ops_per_s":     {float64(m.ops) / m.window, "1/s"},
			"op_p50_ms":     {quantile(lat, 0.50), "ms"},
			"op_p99_ms":     {quantile(lat, 0.99), "ms"},
			"test_acc_mean": {m.testAcc, "ratio"},
		})
		fmt.Printf("samples: set-up %d, batches %d, ops %d\n", len(m.setup), len(m.makespan), len(m.opMs))
	}
	c := env.check
	fmt.Printf("%s: %d outputs checked, %d failed (error_rate %.4f)\n", name, c.attempted, c.failed, float64(c.failed)/float64(c.attempted))
	for _, msg := range c.msgs {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	printTable("metrics", metrics)
	rep := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{env.check.failed == 0, env.check.attempted, env.check.failed, metrics}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerTable collects the per-layer metrics of a traced run.
type layerTable map[string]metricValue

func (t layerTable) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: undeclared layer metric " + name)
	}
	t[name] = metricValue{v, unit}
}

func printTable(title string, metrics map[string]metricValue) {
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println(title + ":")
	for _, k := range keys {
		fmt.Printf("  %-34s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
}

// peakRSSMB is the process's peak resident set, which covers set-up,
// the measured phase and every cache the run filled.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp/WriteFile report the failure
	return dir
}

// overheadShare is how much slower the traced passes ran than the
// untraced ones, as a share of the untraced median.
func overheadShare(untraced, traced []float64) float64 {
	u, t := median(untraced), median(traced)
	if u == 0 {
		return 0
	}
	return t/u - 1
}

// checker counts output checks; every failed check counts toward
// error_rate (failed over attempted).
type checker struct {
	mu                sync.Mutex
	attempted, failed int
	msgs              []string
}

// expect records one checked outcome (a cell or an op). The first few
// failure messages are kept for stderr.
func (c *checker) expect(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// cpuSeconds is the process's user plus system CPU time. Unlike wall
// time it does not grow with time the hypervisor gives other guests.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
