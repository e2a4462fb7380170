package engine

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// Every SubmitOption means the same on Submit, SubmitSweep and
// SubmitFunc: WithTrace is adopted, WithTenant picks the queue and
// quota, Fresh re-runs on a warm store, and a coalesced submission keeps
// the first submitter's trace and tenant.
func TestSubmitOptionsAcrossEntryPoints(t *testing.T) {
	spec := func(w int) Spec {
		sp := tinySpec("FedAvg")
		sp.Seed = uint64(w)
		return sp
	}
	specKey := func(w int) string {
		hash, err := spec(w).Hash()
		if err != nil {
			t.Fatal(err)
		}
		return hash
	}
	var funcRuns atomic.Int64
	entries := []struct {
		name string
		// submit submits work item w (distinct items have distinct
		// content-addresses) and returns the job that answers it.
		submit func(e *Engine, w int, opts ...SubmitOption) (*Job, error)
		// trace is the job trace a submission WithTrace(id) yields.
		trace func(id string) string
		// key is work item w's content-address.
		key func(w int) string
	}{
		{
			name: "Submit",
			submit: func(e *Engine, w int, opts ...SubmitOption) (*Job, error) {
				return e.Submit(spec(w), 0, opts...)
			},
			trace: func(id string) string { return id },
			key:   specKey,
		},
		{
			name: "SubmitSweep",
			submit: func(e *Engine, w int, opts ...SubmitOption) (*Job, error) {
				b, err := e.SubmitSweep(Sweep{Base: spec(w)}, 0, opts...)
				if err != nil {
					return nil, err
				}
				return b.Jobs()[0], nil
			},
			trace: func(id string) string { return id + "-c0" },
			key:   specKey,
		},
		{
			name: "SubmitFunc",
			submit: func(e *Engine, w int, opts ...SubmitOption) (*Job, error) {
				return e.SubmitFunc(FuncKey("options", strconv.Itoa(w)), 0, func(context.Context) (*Result, error) {
					return &Result{Values: map[string]float64{"run": float64(funcRuns.Add(1))}}, nil
				}, opts...)
			},
			trace: func(id string) string { return id },
			key:   func(w int) string { return FuncKey("options", strconv.Itoa(w)) },
		},
	}
	for _, ep := range entries {
		t.Run(ep.name, func(t *testing.T) {
			ctx := context.Background()
			e := newTestEngine(t, Options{Workers: 1, Metrics: telemetry.NewRegistry(), Logger: discardLogger()})
			e.SetTenants(testTenants(t, TenantsFile{Tenants: []TenantConfig{
				{Name: "alice", Key: "alice-secret-key", MaxQueued: 1},
				{Name: "bob", Key: "bob-secret-key"},
			}}))
			// Occupy the only worker so the submissions below stay queued.
			gate, started := make(chan struct{}), make(chan struct{})
			blocker, err := e.SubmitFunc(FuncKey("options-blocker"), 0, func(ctx context.Context) (*Result, error) {
				close(started)
				<-gate
				return &Result{}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			<-started

			first, err := ep.submit(e, 1, WithTrace("options-trace-1"), WithTenant("alice"))
			if err != nil {
				t.Fatal(err)
			}
			if want := ep.trace("options-trace-1"); first.TraceID != want {
				t.Errorf("WithTrace: job trace = %q, want %q", first.TraceID, want)
			}
			if first.Tenant != "alice" {
				t.Errorf("WithTenant: job tenant = %q, want alice", first.Tenant)
			}
			if got := e.QueueDepths()["alice"]; got != 1 {
				t.Errorf("WithTenant: alice's queue depth = %d, want 1", got)
			}

			again, err := ep.submit(e, 1, WithTrace("options-trace-2"), WithTenant("bob"))
			if err != nil {
				t.Fatal(err)
			}
			if again != first || again.TraceID != ep.trace("options-trace-1") || again.Tenant != "alice" {
				t.Errorf("coalesced submission = %s (trace %q, tenant %q), want %s with the first submitter's trace and tenant",
					again.ID, again.TraceID, again.Tenant, first.ID)
			}

			var qerr *QuotaError
			if _, err := ep.submit(e, 2, WithTenant("alice")); !errors.As(err, &qerr) || qerr.Tenant != "alice" {
				t.Errorf("WithTenant: submission past alice's quota = %v, want *QuotaError for alice", err)
			}

			close(gate)
			if _, err := blocker.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := first.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			spans := map[string]bool{}
			for _, sp := range e.Traces().Trace(first.TraceID) {
				spans[sp.Name] = true
			}
			if !spans["submit"] || !spans["persist"] {
				t.Errorf("trace %s lacks the submit or persist span: %v", first.TraceID, spans)
			}

			// A warm store answers work item 3 from the cache unless Fresh.
			// (Item 3 was never in flight, so neither submission can
			// coalesce onto a settled job not yet released.)
			warm := &Result{Values: map[string]float64{"warm": 1}}
			if err := e.Store().Put(ep.key(3), warm); err != nil {
				t.Fatal(err)
			}
			cached, err := ep.submit(e, 3)
			if err != nil {
				t.Fatal(err)
			}
			if res, _ := cached.Result(); !cached.Cached() || !reflect.DeepEqual(res, warm) {
				t.Errorf("a submission without Fresh on a warm store was not answered from the cache")
			}
			fresh, err := ep.submit(e, 3, Fresh())
			if err != nil {
				t.Fatal(err)
			}
			freshRes, err := fresh.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Cached() {
				t.Errorf("Fresh: job %s was answered from the cache, want a new run", fresh.ID)
			}
			stored, ok, err := e.Store().Get(ep.key(3))
			if err != nil || !ok {
				t.Fatalf("store entry after fresh run: ok=%v err=%v", ok, err)
			}
			if !reflect.DeepEqual(stored, freshRes) || reflect.DeepEqual(stored, warm) {
				t.Errorf("Fresh: the rerun did not overwrite the store entry")
			}

			// blocker, first, the coalesced and the refused submission, the
			// cache hit and the fresh rerun.
			st := e.Stats()
			if st.Submitted != 6 || st.Coalesced != 1 || st.CacheHits != 1 {
				t.Errorf("stats: submitted=%d coalesced=%d cache_hits=%d, want 6, 1, 1", st.Submitted, st.Coalesced, st.CacheHits)
			}
		})
	}
}
