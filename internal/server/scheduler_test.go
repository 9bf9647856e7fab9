package server

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// slowSpec is a job long enough to still be running when the test needs an
// occupied worker: a dependent chase over a large region.
func slowSpec(seed uint64) JobSpec {
	return JobSpec{
		Workload: WorkloadSpec{Kind: KindChase, Region: "64M", MaxSteps: maxChaseSteps},
		Seed:     seed,
	}
}

func TestSubmitAndWait(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	defer s.Shutdown(5 * time.Second)

	st, err := s.Submit(chaseSpec("16K", 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.State != JobQueued {
		t.Fatalf("state = %s, want queued", st.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if fin.State != JobDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	res, _, ok := s.Result(st.ID)
	if !ok || res == nil {
		t.Fatal("Result missing after done")
	}
	if res.Hash != st.Hash {
		t.Errorf("result hash %s != job hash %s", res.Hash, st.Hash)
	}
}

func TestUnknownJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(time.Second)
	if _, ok := s.Status("nope"); ok {
		t.Error("Status of unknown job reported ok")
	}
	if _, _, ok := s.Result("nope"); ok {
		t.Error("Result of unknown job reported ok")
	}
	if _, err := s.Wait(context.Background(), "nope"); err == nil {
		t.Error("Wait on unknown job succeeded")
	}
}

func TestCacheHitCompletesImmediately(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4, CacheEntries: 16})
	defer s.Shutdown(5 * time.Second)

	spec := chaseSpec("16K", 2)
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != JobDone || !st2.Cached {
		t.Fatalf("duplicate submission state=%s cached=%v, want immediate cached done", st2.State, st2.Cached)
	}
	r1, _, _ := s.Result(st.ID)
	r2, _, _ := s.Result(st2.ID)
	if string(r1.Canonical()) != string(r2.Canonical()) {
		t.Error("cached result differs from original")
	}
	m := s.MetricsSnapshot()
	if m.CacheHits != 1 || m.JobsCached != 1 {
		t.Errorf("cache counters = hits %d cached %d, want 1/1", m.CacheHits, m.JobsCached)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	defer s.Shutdown(100 * time.Millisecond)

	// One job occupies the worker, one fills the queue, the next bounces.
	// Seeds differ so the disabled cache is not even consulted.
	if _, err := s.Submit(slowSpec(1)); err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to dequeue the first job.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.queue) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(slowSpec(2)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(slowSpec(3))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	if m := s.MetricsSnapshot(); m.RejectedQueueFull != 1 {
		t.Errorf("rejected_queue_full = %d, want 1", m.RejectedQueueFull)
	}
}

func TestJobTimeoutCancels(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2, JobTimeout: 5 * time.Millisecond})
	defer s.Shutdown(5 * time.Second)

	st, err := s.Submit(slowSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobCanceled {
		t.Fatalf("state = %s, want canceled (timeout)", fin.State)
	}
	if m := s.MetricsSnapshot(); m.JobsCanceled != 1 {
		t.Errorf("jobs_canceled = %d, want 1", m.JobsCanceled)
	}
}

// TestGracefulShutdown covers the drain contract: submissions are rejected
// once draining, in-flight jobs finish or are canceled within the budget,
// and the goroutine count returns to baseline (no leaks).
func TestGracefulShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := New(Options{Workers: 2, QueueDepth: 8})
	for i := uint64(0); i < 4; i++ {
		if _, err := s.Submit(chaseSpec("16K", 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Shutdown(30 * time.Second) {
		t.Error("drain did not complete cleanly within the budget")
	}
	if _, err := s.Submit(chaseSpec("16K", 99)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown: %v, want ErrDraining", err)
	}
	if m := s.MetricsSnapshot(); m.RejectedDraining != 1 {
		t.Errorf("rejected_draining = %d, want 1", m.RejectedDraining)
	}

	waitForGoroutines(t, baseline)
}

// TestForcedShutdownCancelsInFlight verifies the second drain phase: a job
// that cannot finish inside the budget is context-canceled, and the pool
// still exits.
func TestForcedShutdownCancelsInFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := New(Options{Workers: 1, QueueDepth: 4, CacheEntries: -1})
	st, err := s.Submit(slowSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	// Ensure the job is running before draining.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cur, _ := s.Status(st.ID); cur.State == JobRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if s.Shutdown(time.Millisecond) {
		t.Log("drain reported clean; job finished faster than expected")
	}
	fin, _ := s.Status(st.ID)
	if fin.State != JobCanceled && fin.State != JobDone {
		t.Fatalf("in-flight job state after forced drain = %s, want canceled or done", fin.State)
	}

	waitForGoroutines(t, baseline)
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (with slack for runtime helpers) or fails the test.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:n])
}

// TestJobRegistryBounded floods the server with more cache-hit submissions
// than maxRetainedJobs while one slow job occupies the only worker. The
// registry must stay bounded, keep the active job and the most recent
// terminal ones, and forget the oldest: their ids 404 on status and result
// while the result itself stays reachable by hash.
func TestJobRegistryBounded(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, JobTimeout: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	first, err := s.Submit(chaseSpec("16K", 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st, err := s.Wait(ctx, first.ID); err != nil || st.State != JobDone {
		t.Fatalf("first job: %+v, %v", st, err)
	}
	slow, err := s.Submit(slowSpec(3))
	if err != nil {
		t.Fatalf("Submit slow: %v", err)
	}

	var last JobStatus
	for i := 0; i < maxRetainedJobs+50; i++ {
		if last, err = s.Submit(chaseSpec("16K", 1)); err != nil || !last.Cached {
			t.Fatalf("flood submission %d: %+v, %v", i, last, err)
		}
	}

	s.mu.Lock()
	registered := len(s.jobs)
	s.mu.Unlock()
	if registered > maxRetainedJobs+1 {
		t.Fatalf("registry holds %d jobs, want at most %d terminal + 1 active", registered, maxRetainedJobs)
	}
	if st, ok := s.Status(slow.ID); !ok || (st.State != JobQueued && st.State != JobRunning) {
		t.Fatalf("active job lost or finished early: %+v, %v", st, ok)
	}
	if st, ok := s.Status(last.ID); !ok || st.State != JobDone {
		t.Fatalf("most recent job not resolvable: %+v, %v", st, ok)
	}
	for _, path := range []string{"/v1/jobs/" + first.ID, "/v1/jobs/" + first.ID + "/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s of an evicted job = %d, want 404", path, resp.StatusCode)
		}
	}
	if _, ok := s.ResultByHash(first.Hash); !ok {
		t.Fatal("evicted job's result no longer reachable by hash")
	}

	sum, _ := s.ShutdownDrain(0)
	if got := sum.Finished + sum.Checkpointed + sum.Canceled; got != 1 {
		t.Fatalf("drain accounted for %d jobs (%+v), want only the 1 active job", got, sum)
	}
}
