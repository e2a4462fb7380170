package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call. Trace is the cell or op the call served;
// Parent is the span that caused it (0 = a root). Times are seconds
// since the run started.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanRecorder keeps a traced run's spans in memory; write dumps them
// when the run ends. A nil recorder (untraced run) records nothing.
type spanRecorder struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	// roots are the spans whose wall time the layers should account for
	// (one per measured sweep or op).
	roots map[int64]bool
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{t0: time.Now(), roots: map[int64]bool{}}
}

// newID reserves a span ID before the span's end is known, so children
// can name their parent while it is still open.
func (r *spanRecorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// add records a finished span under a reserved (or, for id 0, fresh) ID.
func (r *spanRecorder) add(id, parent int64, trace, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.newID()
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// addRoot records a measured sweep or op: a span the layer spans under
// it should cover.
func (r *spanRecorder) addRoot(id int64, trace, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.add(id, 0, trace, name, start, end)
	r.mu.Lock()
	r.roots[id] = true
	r.mu.Unlock()
}

func (r *spanRecorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// unaccounted is the part of the root spans' wall time that none of
// their direct children covers: time no layer accounts for. It returns
// the mean per root in seconds and the share of the roots' total time.
// Children that only wait (event streams) are not counted as cover.
func (r *spanRecorder) unaccounted() (meanSec, share float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][][2]float64{}
	for _, s := range r.spans {
		if r.roots[s.Parent] && !strings.HasSuffix(s.Name, ".events") {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	var total, gap float64
	n := 0
	for _, s := range r.spans {
		if !r.roots[s.ID] {
			continue
		}
		n++
		total += s.End - s.Start
		gap += (s.End - s.Start) - coverage(children[s.ID], s.Start, s.End)
	}
	if n == 0 {
		return 0, 0
	}
	return gap / float64(n), ratio(gap, total)
}

// coverage is the length of the union of intervals, clipped to [lo, hi].
func coverage(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, k int) bool { return iv[i][0] < iv[k][0] })
	covered, cur := 0.0, lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return covered
}

func (r *spanRecorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, k int) bool { return r.spans[i].Start < r.spans[k].Start })
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// Request headers carry the client-side span to the server tap, so a
// handler span names its parent and handler time can be subtracted from
// what the client observed.
const (
	spanHeader  = "X-Perfbench-Span"
	traceHeader = "X-Perfbench-Trace"
)

// routeOf names the API route a request hits; the names are the
// server.<route>_ms_* metrics.
func routeOf(method, path string) string {
	seg := strings.Split(strings.Trim(path, "/"), "/")
	if len(seg) < 2 {
		return "other"
	}
	last := seg[len(seg)-1]
	switch {
	case method == http.MethodPost && (path == "/v1/jobs" || path == "/v1/sweeps"):
		return "submit"
	case last == "events":
		return "events"
	case method == http.MethodGet && len(seg) == 4 && seg[1] == "jobs" && last == "result":
		return "result"
	case method == http.MethodGet && len(seg) == 4 && seg[1] == "jobs" && last == "model":
		return "model"
	case method == http.MethodPut && last == "model":
		return "upload"
	case seg[1] == "workers" && (last == "lease" || last == "heartbeat" || last == "complete"):
		return last
	case seg[1] == "store":
		return "store"
	}
	return "other"
}

// serverRoutes are the routes with server.<route>_ms_p50/p99 metrics.
var serverRoutes = []string{"submit", "result", "model", "lease", "heartbeat", "complete", "upload"}

// serverTap is the http.Handler middleware wrapped around the API mux
// in a traced run: a span per request plus per-route handler latency.
type serverTap struct {
	next  http.Handler
	spans *spanRecorder

	mu          sync.Mutex
	latency     map[string][]float64 // route → handler ms
	handlerTime map[int64]float64    // client span ID → handler ms
	uploadBytes int64
}

func newServerTap(next http.Handler, spans *spanRecorder) *serverTap {
	return &serverTap{next: next, spans: spans, latency: map[string][]float64{}, handlerTime: map[int64]float64{}}
}

func (t *serverTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r.Method, r.URL.Path)
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	start := time.Now()
	t.next.ServeHTTP(w, r)
	end := time.Now()
	t.spans.add(0, parent, r.Header.Get(traceHeader), "server."+route, start, end)
	ms := float64(end.Sub(start)) / 1e6
	t.mu.Lock()
	t.latency[route] = append(t.latency[route], ms)
	if parent != 0 {
		t.handlerTime[parent] = ms
	}
	if route == "upload" && r.ContentLength > 0 {
		t.uploadBytes += r.ContentLength
	}
	t.mu.Unlock()
}

// report sets the server.* layer metrics and the checkpoint bytes
// workers uploaded through the API.
func (t *serverTap) report(lt layerTable) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, route := range serverRoutes {
		lat := sortedCopy(t.latency[route])
		lt.set("server."+route+"_ms_p50", quantile(lat, 0.50))
		lt.set("server."+route+"_ms_p99", quantile(lat, 0.99))
	}
	lt.set("dist.upload_bytes", float64(t.uploadBytes))
}

// spanCtx carries the caller's span into the client tap through the
// request context (the SDK builds every request with the caller's ctx).
type spanCtx struct{}

type spanRef struct {
	id    int64
	trace string
}

func withSpan(ctx context.Context, id int64, trace string) context.Context {
	return context.WithValue(ctx, spanCtx{}, spanRef{id, trace})
}

// clientTap is the http.RoundTripper handed to the SDK through
// client.WithHTTPClient in a traced run. It times each request from
// send until its body is drained or closed and counts response bytes.
type clientTap struct {
	base  http.RoundTripper
	spans *spanRecorder
	// parent is the span requests without a span in their context (the
	// worker's, whose SDK calls carry the worker's own ctx) hang under.
	parent atomic.Int64

	mu      sync.Mutex
	reqs    []clientReq
	bytesIn int64
}

type clientReq struct {
	id    int64
	route string
	ms    float64
}

func newClientTap(spans *spanRecorder) *clientTap {
	return &clientTap{base: http.DefaultTransport, spans: spans}
}

func (t *clientTap) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(spanCtx{}).(spanRef)
	if ref.id == 0 {
		ref.id = t.parent.Load()
		ref.trace = jobFromPath(req.URL.Path)
	}
	id := t.spans.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	req.Header.Set(traceHeader, ref.trace)
	route := routeOf(req.Method, req.URL.Path)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	finish := func(n int64) {
		end := time.Now()
		t.spans.add(id, ref.id, ref.trace, "client."+route, start, end)
		t.mu.Lock()
		t.reqs = append(t.reqs, clientReq{id, route, float64(end.Sub(start)) / 1e6})
		t.bytesIn += n
		t.mu.Unlock()
	}
	if err != nil {
		finish(0)
		return nil, err
	}
	resp.Body = &tappedBody{ReadCloser: resp.Body, done: finish}
	return resp, nil
}

// jobFromPath extracts the job ID of a worker lease route, the trace a
// worker request belongs to ("" for pulls and registration).
func jobFromPath(path string) string {
	seg := strings.Split(strings.Trim(path, "/"), "/")
	for i := 0; i+1 < len(seg); i++ {
		if seg[i] == "jobs" {
			return seg[i+1]
		}
	}
	return ""
}

// tappedBody ends the client span at EOF or Close, whichever is first.
type tappedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *tappedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *tappedBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// report sets the client.* layer metrics. ops is the number of
// workload ops (or cells) the requests served.
func (t *clientTap) report(lt layerTable, server *serverTap, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	server.mu.Lock()
	defer server.mu.Unlock()
	var overhead []float64
	for _, r := range t.reqs {
		if h, ok := server.handlerTime[r.id]; ok && r.route != "events" {
			overhead = append(overhead, r.ms-h)
		}
	}
	lt.set("client.overhead_ms_p50", median(overhead))
	lt.set("client.requests_per_op", ratio(float64(len(t.reqs)), float64(ops)))
	lt.set("client.bytes_in", float64(t.bytesIn))
}

// kernelSnapshot is the kernel layer's counters in telemetry.Default(),
// the only process-wide series the benchmark reads (as deltas).
type kernelSnapshot struct {
	calls, busy, serial, inline, pooled float64
}

func readKernels() kernelSnapshot {
	m := promSums(telemetry.Default())
	return kernelSnapshot{
		calls:  m["kernel_call_seconds_count"],
		busy:   m["kernel_call_seconds_sum"],
		serial: m["kernel_serial_calls_total"],
		inline: m["kernel_inline_panels_total"],
		pooled: m["kernel_pool_tasks_total"],
	}
}

// reportKernels sets the tensor.* metrics from the counters' change
// between two snapshots.
func reportKernels(lt layerTable, before, after kernelSnapshot) {
	calls := after.calls - before.calls
	inline := after.inline - before.inline
	lt.set("tensor.kernel_calls", calls)
	lt.set("tensor.kernel_busy_s", after.busy-before.busy)
	lt.set("tensor.serial_call_share", ratio(after.serial-before.serial, calls))
	lt.set("tensor.inline_panel_share", ratio(inline, inline+after.pooled-before.pooled))
}
