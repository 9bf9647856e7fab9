package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/server"
)

// serveFixture is a running nvmserved core behind a loopback HTTP listener,
// with the hot catalogue already resident in its result cache.
type serveFixture struct {
	seed    uint64
	hot     []server.JobSpec
	hotBody [][]byte
	srv     *server.Server
	httpSrv *http.Server
	url     string
	served  chan error
}

func newServeFixture(seed uint64) (*serveFixture, error) {
	fx := &serveFixture{seed: seed, hot: hotCatalogue(seed), served: make(chan error, 1)}
	for _, s := range fx.hot {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		fx.hotBody = append(fx.hotBody, b)
	}
	fx.srv = server.New(server.Options{Workers: nproc, QueueDepth: queueDepth, CacheEntries: cacheSize})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fx.srv.Shutdown(time.Second)
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	fx.url = "http://" + ln.Addr().String() + "/v1/jobs?wait=1"
	fx.httpSrv = &http.Server{Handler: fx.srv.Handler()}
	go func() { fx.served <- fx.httpSrv.Serve(ln) }()

	// Warm-up: every hot spec once, so the timed loop starts from the cache
	// state a long-running daemon would be in.
	c := newClient()
	defer c.CloseIdleConnections()
	for i, b := range fx.hotBody {
		if _, err := fx.post(c, b); err != nil {
			fx.close()
			return nil, fmt.Errorf("warm-up of hot spec %d: %w", i, err)
		}
	}
	return fx, nil
}

// close stops the HTTP server and drains the scheduler, waiting for both.
func (fx *serveFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = fx.httpSrv.Shutdown(ctx) // stop accepting; in-flight requests already finished
	if err := <-fx.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "nvbench: http server:", err)
	}
	fx.srv.Shutdown(5 * time.Second)
}

// newClient returns a client holding one keep-alive connection, so the
// client count is also the connection count.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// reply is one decoded POST /v1/jobs?wait=1 response.
type reply struct {
	Job    server.JobStatus `json:"job"`
	Result json.RawMessage  `json:"result"`
}

func (fx *serveFixture) post(c *http.Client, body []byte) (*reply, error) {
	resp, err := c.Post(fx.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	if r.Job.State != server.JobDone || len(r.Result) == 0 {
		return nil, fmt.Errorf("job %s ended %s: %s", r.Job.ID, r.Job.State, r.Job.Error)
	}
	return &r, nil
}

// request is one timed request of the serve loop.
type request struct {
	key      string // "h<i>" for hot spec i, "t<c>.<n>" for a tail spec
	spec     server.JobSpec
	start    time.Time
	ms       float64
	queuedMs float64
	runMs    float64
	cached   bool
	accesses int
	digest   [32]byte        // sha256 of the served result
	result   json.RawMessage // the served result, kept only for a key's first serving per client
	err      error
}

// serveLoop runs nproc closed-loop clients until dur has passed; client c
// draws its picks from its own seeded stream. It returns the requests made
// and when the loop started and how long it ran.
func (fx *serveFixture) serveLoop(dur time.Duration) ([]request, time.Time, time.Duration) {
	perClient := make([][]request, nproc)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			pick := newPicker(fx.seed, c)
			tails := 0
			seen := map[string]bool{}
			for time.Since(t0) < dur {
				rq := request{}
				var body []byte
				if i := pick.next(); i >= 0 {
					rq.key, rq.spec, body = fmt.Sprintf("h%d", i), fx.hot[i], fx.hotBody[i]
				} else {
					rq.key, rq.spec = fmt.Sprintf("t%d.%d", c, tails), tailSpec(fx.seed, c, tails)
					tails++
					var err error
					if body, err = json.Marshal(rq.spec); err != nil {
						rq.err = err
						perClient[c] = append(perClient[c], rq)
						continue
					}
				}
				rq.start = time.Now()
				r, err := fx.post(cl, body)
				rq.ms = millis(time.Since(rq.start))
				if err != nil {
					rq.err = err
				} else {
					rq.queuedMs, rq.runMs, rq.cached = r.Job.QueuedMs, r.Job.RunMs, r.Job.Cached
					rq.digest = sha256.Sum256(r.Result)
					if !seen[rq.key] {
						seen[rq.key] = true
						rq.result = r.Result
					}
				}
				perClient[c] = append(perClient[c], rq)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var all []request
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all, t0, elapsed
}

// gateServed applies the result-digest gate to the served requests: repeats
// of a spec must return byte-identical results (a mismatch marks the
// request failed), and a sample of served results must equal what
// server.Runner.Run computes for the same spec. It fills in each request's
// access count and returns the number of Runner.Run checks made and the
// sample mismatches.
func gateServed(reqs []request, samples int) (int, []error) {
	firstIdx := map[string]int{}
	accesses := map[string]int{}
	var order []string
	for i := range reqs {
		rq := &reqs[i]
		if rq.err != nil {
			continue
		}
		f, ok := firstIdx[rq.key]
		if !ok {
			var res server.Result
			if err := json.Unmarshal(rq.result, &res); err != nil {
				rq.err = fmt.Errorf("decoding result of %s: %w", rq.key, err)
				continue
			}
			firstIdx[rq.key], accesses[rq.key] = i, res.Accesses
			order = append(order, rq.key)
		} else if rq.digest != reqs[f].digest {
			rq.err = fmt.Errorf("spec %s: served result differs from its first serving", rq.key)
		}
		rq.accesses = accesses[rq.key]
	}
	// Sample the first-served hot and tail specs, half of each.
	var errs []error
	checked, perKind := 0, map[byte]int{}
	for _, key := range order {
		if perKind[key[0]] == samples/2 {
			continue
		}
		perKind[key[0]]++
		checked++
		rq := reqs[firstIdx[key]]
		var got server.Result
		if err := json.Unmarshal(rq.result, &got); err != nil {
			errs = append(errs, fmt.Errorf("spec %s: %w", key, err))
			continue
		}
		want, err := server.RunSpec(context.Background(), rq.spec)
		if err != nil {
			errs = append(errs, fmt.Errorf("spec %s: Runner.Run: %w", key, err))
			continue
		}
		if !bytes.Equal(got.Canonical(), want.Canonical()) {
			errs = append(errs, fmt.Errorf("spec %s: HTTP result differs from Runner.Run", key))
		}
	}
	return checked, errs
}

// measureServe is the untraced run of serve-mix: set-up repeated setupReps
// times (median reported; earlier servers are shut down), then nproc clients
// for dur. Throughput is the median over the run's whole seconds of the
// requests (and accesses) completed in that second.
func measureServe(seed uint64, dur time.Duration) (*report, error) {
	rep := &report{workload: "serve-mix"}
	var setups []float64
	var fx *serveFixture
	for i := 0; i < setupReps; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		var err error
		if fx, err = newServeFixture(seed); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
	}

	runtime.GC() // start the timed window without set-up's garbage
	heap := startHeapSampler()
	a0 := allocBytes()
	reqs, start, elapsed := fx.serveLoop(dur)
	alloc := allocBytes() - a0
	peak := heap.stop()
	runtime.GC()
	live := float64(heapObjectBytes()) / 1e6
	fx.close()

	checks, sampleErrs := gateServed(reqs, serveSamples)
	rep.attempted = len(reqs) + checks
	for _, rq := range reqs {
		if rq.err != nil {
			rep.fail(rq.err)
		}
	}
	for _, err := range sampleErrs {
		rep.fail(err)
	}

	winReqs, winAccs := windowRates(reqs, start, elapsed)
	var ms []float64
	hits := 0
	for _, rq := range reqs {
		ms = append(ms, rq.ms)
		if rq.cached {
			hits++
		}
	}
	n := len(reqs)
	p99, pct := tail(ms)
	rep.add("setup_s", "s", median(setups), fmt.Sprintf("median of %.3f (server, listener, %d warm-up jobs)", setups, hotSpecs))
	rep.add("jobs_per_s", "1/s", median(winReqs),
		fmt.Sprintf("median of %d one-second windows; %d requests in %.2f s, %d clients, closed loop", len(winReqs), n, seconds(elapsed), nproc))
	rep.add("accesses_per_s", "1/s", median(winAccs), "simulated accesses of served results (cached included), median of windows")
	rep.add("job_ms_p50", "ms", median(ms), fmt.Sprintf("n=%d", n))
	rep.add("job_ms_p99", "ms", p99, fmt.Sprintf("p%.1f, n=%d", pct, n))
	rep.add("alloc_mb_per_job", "MB", float64(alloc)/1e6/float64(n), "client and server together")
	rep.add("peak_heap_mb", "MB", peak, "client and server together")
	rep.context = append(rep.context,
		fmt.Sprintf("cache_hit_share: %.4f (%d of %d; tail share %.2f)", ratio(float64(hits), float64(n)), hits, n, tailShare),
		fmt.Sprintf("digest gate: %d Runner.Run sample checks", checks),
		fmt.Sprintf("live heap after the loop and a GC, server still up: %.1f MB (%d jobs registered, never pruned)", live, n+hotSpecs))
	return rep, nil
}

// windowRates counts the requests, and the simulated accesses of their
// results, completed in each whole second of a loop that ran for took from
// start.
func windowRates(reqs []request, start time.Time, took time.Duration) (perReq, perAcc []float64) {
	windows := int(took / time.Second)
	if windows < 1 {
		windows = 1
	}
	perReq, perAcc = make([]float64, windows), make([]float64, windows)
	for _, rq := range reqs {
		done := rq.start.Add(time.Duration(rq.ms * float64(time.Millisecond)))
		if w := int(done.Sub(start) / time.Second); w < windows {
			perReq[w]++
			perAcc[w] += float64(rq.accesses)
		}
	}
	return perReq, perAcc
}
