package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(30 * time.Second)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// TestHTTPConcurrentMixedJobs is the headline acceptance test: ≥50
// concurrent submissions through the HTTP API, mixing duplicates and unique
// jobs. All must complete, duplicates must be served by the cache (checked
// via the cache-hit counter), and every result must match the
// single-threaded replay of the same spec.
func TestHTTPConcurrentMixedJobs(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 128, CacheEntries: 64})

	dup := seqSpec("16K", "store-nt", 1)
	// Pre-warm the duplicate spec so every later duplicate is a guaranteed
	// cache hit regardless of scheduling interleave.
	resp := postJSON(t, ts.URL+"/v1/jobs?wait=1", dup)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status = %d", resp.StatusCode)
	}
	warm := decodeBody[submitResponse](t, resp)
	if warm.Job.State != JobDone || warm.Result == nil {
		t.Fatalf("warm-up did not complete: %+v", warm.Job)
	}

	const dups, uniques = 25, 25
	// Expected results computed by single-threaded replay, outside the pool.
	expect := make(map[string][]byte) // hash -> canonical result
	specs := make([]JobSpec, 0, dups+uniques)
	for i := 0; i < dups; i++ {
		specs = append(specs, dup)
	}
	for i := 0; i < uniques; i++ {
		specs = append(specs, chaseSpec("16K", uint64(100+i)))
	}
	for _, spec := range specs {
		p, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := expect[p.Hash()]; ok {
			continue
		}
		res, err := NewRunner().Run(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		expect[p.Hash()] = res.Canonical()
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/jobs?wait=1", spec)
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				errs <- fmt.Errorf("job %d: status %d", i, resp.StatusCode)
				return
			}
			out := decodeBody[submitResponse](t, resp)
			if out.Job.State != JobDone || out.Result == nil {
				errs <- fmt.Errorf("job %d: state %s (%s)", i, out.Job.State, out.Job.Error)
				return
			}
			want, ok := expect[out.Job.Hash]
			if !ok {
				errs <- fmt.Errorf("job %d: unexpected hash %s", i, out.Job.Hash)
				return
			}
			if !bytes.Equal(out.Result.Canonical(), want) {
				errs <- fmt.Errorf("job %d: result diverges from single-threaded replay", i)
			}
		}(i, spec)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.MetricsSnapshot()
	if m.CacheHits < dups {
		t.Errorf("cache_hits = %d, want >= %d (all duplicates)", m.CacheHits, dups)
	}
	if want := uint64(1 + dups + uniques); m.JobsAccepted != want {
		t.Errorf("jobs_accepted = %d, want %d", m.JobsAccepted, want)
	}
	if m.JobsCompleted+m.JobsCached != uint64(1+dups+uniques) {
		t.Errorf("completed %d + cached %d != accepted %d",
			m.JobsCompleted, m.JobsCached, m.JobsAccepted)
	}
	if m.JobsFailed != 0 || m.JobsCanceled != 0 {
		t.Errorf("failed=%d canceled=%d, want 0/0", m.JobsFailed, m.JobsCanceled)
	}
}

func TestHTTPJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})

	resp := postJSON(t, ts.URL+"/v1/jobs", chaseSpec("16K", 42))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	sub := decodeBody[submitResponse](t, resp)
	id := sub.Job.ID

	// Poll status until terminal.
	deadline := time.Now().Add(30 * time.Second)
	var st JobStatus
	for time.Now().Before(deadline) {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st = decodeBody[JobStatus](t, r)
		if st.State == JobDone || st.State == JobFailed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != JobDone {
		t.Fatalf("job never completed: %+v", st)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, want 200", r.StatusCode)
	}
	res := decodeBody[Result](t, r)
	if res.Hash != st.Hash || res.Accesses == 0 {
		t.Errorf("result payload wrong: %+v", res)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})

	// Unknown job.
	r, _ := http.Get(ts.URL + "/v1/jobs/zzz")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", r.StatusCode)
	}
	r.Body.Close()

	// Invalid spec.
	resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Workload: WorkloadSpec{Kind: "zap"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown JSON field.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":{"kind":"chase"},"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d, want 400", resp2.StatusCode)
	}
	resp2.Body.Close()

	// Healthz.
	r2, _ := http.Get(ts.URL + "/v1/healthz")
	if r2.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", r2.StatusCode)
	}
	r2.Body.Close()
}

func TestHTTPQueueFullAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, CacheEntries: -1})

	// Occupy the worker and fill the queue with slow jobs.
	postJSON(t, ts.URL+"/v1/jobs", slowSpec(50)).Body.Close()
	deadline := time.Now().Add(2 * time.Second)
	for len(s.queue) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	postJSON(t, ts.URL+"/v1/jobs", slowSpec(51)).Body.Close()

	resp := postJSON(t, ts.URL+"/v1/jobs", slowSpec(52))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full queue status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()

	// Drain (forced; the slow jobs are canceled) and verify the API says so.
	s.Shutdown(10 * time.Millisecond)
	resp = postJSON(t, ts.URL+"/v1/jobs", chaseSpec("16K", 53))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	r, _ := http.Get(ts.URL + "/v1/healthz")
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", r.StatusCode)
	}
	r.Body.Close()
}

// TestHTTPSweep drives the batch endpoint: a region sweep fans across the
// pool, streams one NDJSON line per point in order, and ends with a summary
// whose metrics include utilization and latency percentiles.
func TestHTTPSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: runtime.GOMAXPROCS(0), QueueDepth: 64})

	// Pre-warm one sweep value so its repeat inside the sweep is a
	// guaranteed cache hit (a duplicate submitted while its twin is still
	// in flight legitimately misses).
	warm := chaseSpec("16K", 77)
	postJSON(t, ts.URL+"/v1/jobs?wait=1", warm).Body.Close()

	req := SweepRequest{
		Base:      chaseSpec("4K", 77),
		Parameter: "region",
		Values:    []string{"4K", "8K", "16K", "32K", "16K"}, // duplicates of the warmed value
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}

	var points []sweepPoint
	var sum sweepSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"sweep_done"`)) {
			if err := json.Unmarshal(line, &sum); err != nil {
				t.Fatalf("summary line: %v", err)
			}
			continue
		}
		var pt sweepPoint
		if err := json.Unmarshal(line, &pt); err != nil {
			t.Fatalf("point line %q: %v", line, err)
		}
		points = append(points, pt)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(points) != len(req.Values) {
		t.Fatalf("got %d points, want %d", len(points), len(req.Values))
	}
	for i, pt := range points {
		if pt.Index != i || pt.Value != req.Values[i] {
			t.Errorf("point %d out of order: %+v", i, pt)
		}
		if pt.Job.State != JobDone || pt.Result == nil {
			t.Errorf("point %d incomplete: %+v", i, pt.Job)
		}
	}
	// Larger chase regions overflow more buffers: latency must not shrink.
	if points[0].Result.AvgLatencyNs > points[3].Result.AvgLatencyNs {
		t.Errorf("latency not monotonic-ish: 4K=%.1f 32K=%.1f",
			points[0].Result.AvgLatencyNs, points[3].Result.AvgLatencyNs)
	}
	if !sum.SweepDone || sum.Points != len(req.Values) || sum.Completed != len(req.Values) {
		t.Errorf("summary wrong: %+v", sum)
	}
	if sum.Cached < 1 {
		t.Errorf("duplicate sweep point not served from cache: %+v", sum)
	}
	m := sum.Metrics
	if m.WorkerUtilization <= 0 || m.WorkerUtilization > 1 {
		t.Errorf("worker_utilization = %f, want (0,1]", m.WorkerUtilization)
	}
	if m.JobLatencyMs.N == 0 || m.JobLatencyMs.P99 < m.JobLatencyMs.P50 {
		t.Errorf("latency percentiles wrong: %+v", m.JobLatencyMs)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue_depth after sweep = %d, want 0", m.QueueDepth)
	}
}

func TestHTTPSweepFromScale(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 64})
	base := chaseSpec("4K", 3)
	base.Workload.MaxSteps = 200
	req := SweepRequest{Base: base, Parameter: "region", FromScale: "quick"}
	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	var lines int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		lines++
	}
	if lines < 3 {
		t.Errorf("from_scale sweep produced %d lines, want several points + summary", lines)
	}
}

func TestHTTPSweepBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	for name, req := range map[string]SweepRequest{
		"no values":      {Base: chaseSpec("4K", 1), Parameter: "region"},
		"bad param":      {Base: chaseSpec("4K", 1), Parameter: "zap", Values: []string{"1"}},
		"bad value":      {Base: chaseSpec("4K", 1), Parameter: "dimms", Values: []string{"x"}},
		"bad point":      {Base: chaseSpec("4K", 1), Parameter: "region", Values: []string{"64"}},
		"both sources":   {Base: chaseSpec("4K", 1), Parameter: "region", Values: []string{"4K"}, FromScale: "quick"},
		"bad scale":      {Base: chaseSpec("4K", 1), Parameter: "region", FromScale: "zap"},
		"scale mismatch": {Base: chaseSpec("4K", 1), Parameter: "dimms", FromScale: "quick"},
	} {
		resp := postJSON(t, ts.URL+"/v1/sweep", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestHTTPMetricsShape(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	postJSON(t, ts.URL+"/v1/jobs?wait=1", seqSpec("8K", "load", 9)).Body.Close()

	r, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"queue_depth", "workers", "worker_utilization",
		"cache_hit_rate", "job_latency_ms", "jobs_accepted", "jobs_completed"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	lat, ok := m["job_latency_ms"].(map[string]any)
	if !ok {
		t.Fatalf("job_latency_ms not an object: %T", m["job_latency_ms"])
	}
	for _, key := range []string{"p50", "p95", "p99"} {
		if _, ok := lat[key]; !ok {
			t.Errorf("latency summary missing %q", key)
		}
	}
}

// countingBody is a request body of exactly n bytes: prefix, filler 'a's,
// suffix. It counts the bytes the handler pulled from it.
type countingBody struct {
	prefix, suffix string
	n, read        int
}

func (b *countingBody) Read(p []byte) (int, error) {
	if b.read >= b.n {
		return 0, io.EOF
	}
	k := min(len(p), b.n-b.read)
	tail := b.n - len(b.suffix)
	for i := range p[:k] {
		switch off := b.read + i; {
		case off < len(b.prefix):
			p[i] = b.prefix[off]
		case off >= tail:
			p[i] = b.suffix[off-tail]
		default:
			p[i] = 'a'
		}
	}
	b.read += k
	return k, nil
}

// TestHTTPBodyCap: a well-formed but oversized JSON body is refused with 413
// after the handler read at most maxBodyBytes+1 bytes of it, instead of
// being buffered whole and rejected by the trace-length check afterwards.
func TestHTTPBodyCap(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4, CacheEntries: 4})
	t.Cleanup(func() { s.Shutdown(30 * time.Second) })
	h := s.Handler()
	const job = `{"workload":{"kind":"trace","trace":"`
	for _, c := range []struct{ path, prefix, suffix string }{
		{"/v1/jobs", job, `"}}`},
		{"/v1/sweep", `{"base":` + job, `"}},"parameter":"seed","values":["1"]}`},
	} {
		body := &countingBody{prefix: c.prefix, suffix: c.suffix, n: maxBodyBytes + 1<<20}
		req := httptest.NewRequest(http.MethodPost, c.path, body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (%s)", c.path, rec.Code, rec.Body.String())
		}
		if body.read > maxBodyBytes+1 {
			t.Errorf("%s: handler read %d bytes, cap is %d", c.path, body.read, maxBodyBytes)
		}
	}
}
