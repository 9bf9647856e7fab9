package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/server"
)

// simWorkload is a closed loop of one client calling server.Runner.Run on a
// fixed set of distinct jobs, pass after pass, with the serial engine.
type simWorkload struct {
	specs func(seed uint64) []server.JobSpec
	// parGate also runs every distinct job with SimParallel = nproc: the
	// result must equal the serial one byte for byte, and the traced run
	// reports sim.par_speedup. The timed loop stays serial because on a
	// 2-vCPU host the sharded engine's per-round goroutine hand-off
	// doubled the run-to-run spread of every timing.
	parGate bool
}

type simJob struct {
	id   string
	plan *server.Plan
}

// simFixture is a set-up sim workload: compiled jobs, the runner, and the
// reference digest of every job seen so far.
type simFixture struct {
	jobs   []simJob
	runner *server.Runner
	digest map[string][32]byte
}

// newSimFixture builds inputs and the runner, then runs the first job once
// as warm-up; its digest becomes that job's reference.
func newSimFixture(w simWorkload, seed uint64) (*simFixture, error) {
	fx := &simFixture{runner: server.NewRunner(), digest: map[string][32]byte{}}
	for i, spec := range w.specs(seed) {
		p, err := spec.Compile()
		if err != nil {
			return nil, fmt.Errorf("compiling job %d: %w", i, err)
		}
		fx.jobs = append(fx.jobs, simJob{id: fmt.Sprintf("j%d", i), plan: p})
	}
	if _, _, err := fx.run(fx.jobs[0]); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return fx, nil
}

// run executes one job, timing Runner.Run alone, and applies the digest
// gate: every repeat of a job must produce byte-identical
// Result.Canonical().
func (fx *simFixture) run(j simJob) (*server.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := fx.runner.Run(context.Background(), j.plan)
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, fmt.Errorf("job %s: %w", j.id, err)
	}
	return res, wall, fx.check(j.id, res)
}

func (fx *simFixture) check(id string, res *server.Result) error {
	sum := sha256.Sum256(res.Canonical())
	ref, ok := fx.digest[id]
	if !ok {
		fx.digest[id] = sum
		return nil
	}
	if sum != ref {
		return fmt.Errorf("job %s: result digest %x differs from its first run %x", id, sum[:6], ref[:6])
	}
	return nil
}

// measureSim is the untraced run of a sim workload: set-up repeated
// setupReps times (median reported), then whole passes over the distinct
// jobs until the run has lasted at least dur.
func measureSim(name string, w simWorkload, seed uint64, dur time.Duration) (*report, error) {
	rep := &report{workload: name}
	var setups []float64
	var fx *simFixture
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if fx, err = newSimFixture(w, seed); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
	}

	// Throughput is the median over passes of each pass's rate, so a burst
	// of host noise during one pass does not move it.
	var jobMs, passJobs, passAccs []float64
	regimes := map[string]int{}
	runtime.GC() // start the timed window without set-up's garbage
	heap := startHeapSampler()
	a0 := allocBytes()
	t0 := time.Now()
	for time.Since(t0) < dur {
		p0, accesses := time.Now(), 0
		for _, j := range fx.jobs {
			rep.attempted++
			res, wall, err := fx.run(j)
			jobMs = append(jobMs, millis(wall))
			if err != nil {
				rep.fail(err)
				continue
			}
			accesses += res.Accesses
			if res.Verdict != nil {
				regimes[res.Verdict.Regime]++
			}
		}
		pass := seconds(time.Since(p0))
		passJobs = append(passJobs, float64(len(fx.jobs))/pass)
		passAccs = append(passAccs, float64(accesses)/pass)
	}
	elapsed := time.Since(t0)
	alloc := allocBytes() - a0
	peak := heap.stop()
	jobs := len(jobMs)

	if w.parGate {
		par := server.NewRunner()
		par.SimParallel = nproc
		for _, j := range fx.jobs {
			rep.attempted++
			res, err := par.Run(context.Background(), j.plan)
			if err == nil {
				err = fx.check(j.id, res)
			}
			if err != nil {
				rep.fail(fmt.Errorf("SimParallel=%d vs serial: %w", nproc, err))
			}
		}
	}

	p99, pct := tail(jobMs)
	rep.add("setup_s", "s", median(setups), fmt.Sprintf("median of %.3f", setups))
	rep.add("jobs_per_s", "1/s", median(passJobs),
		fmt.Sprintf("median of %d passes; %d jobs in %.2f s, 1 client, closed loop", len(passJobs), jobs, seconds(elapsed)))
	rep.add("accesses_per_s", "1/s", median(passAccs), "simulated accesses per host second, median of passes")
	rep.add("job_ms_p50", "ms", median(jobMs), fmt.Sprintf("n=%d", jobs))
	rep.add("job_ms_p99", "ms", p99, fmt.Sprintf("p%.1f, n=%d", pct, jobs))
	rep.add("alloc_mb_per_job", "MB", float64(alloc)/1e6/float64(jobs), "")
	rep.add("peak_heap_mb", "MB", peak, "")
	rep.context = append(rep.context, "regime: "+regimeSummary(regimes), "cache_hit_share: n/a (runner, no cache)")
	return rep, nil
}
