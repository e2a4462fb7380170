package engine

import (
	"context"
	"strconv"
	"testing"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// A job's completion metrics and lifecycle spans are recorded before
// Done() closes, so a caller returning from Wait reads counters and a
// trace that already include its job.
func TestCompletionCountedBeforeDone(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2, Metrics: telemetry.NewRegistry(), Logger: discardLogger()})
	completed := e.metrics.jobsCompleted.With(string(StateDone), AnonymousTenant)
	runs := e.metrics.runSeconds.With("func")
	noop := func(context.Context) (*Result, error) { return &Result{}, nil }
	for i := 1; i <= 2000; i++ {
		j, err := e.SubmitFunc(FuncKey("noop", strconv.Itoa(i)), 0, noop)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := completed.Value(); got != int64(i) {
			t.Fatalf("after job %d settled, engine_jobs_completed_total{state=\"done\"} = %d, want %d", i, got, i)
		}
		if got := runs.Count(); got != int64(i) {
			t.Fatalf("after job %d settled, sched_run_seconds{method=\"func\"} count = %d, want %d", i, got, i)
		}
		spans := map[string]bool{}
		for _, sp := range e.Traces().Trace(j.TraceID) {
			spans[sp.Name] = true
		}
		if !spans["run"] || !spans["job"] {
			t.Fatalf("after job %d settled, its trace lacks the run or job span: %v", i, spans)
		}
	}
}
