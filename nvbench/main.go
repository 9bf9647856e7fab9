// Command nvbench is the repository's end-to-end benchmark: it drives the
// simulator and the nvmserved service from outside, through their shipped
// entry points, on four seeded workloads.
//
//	bash nvbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics untraced; with --trace 1
// it recomposes each job from the public calls server.Runner.Run makes, one
// span per call, and reports per-layer figures. Every metric is printed by
// name with its unit; the last stdout line is the JSON result. Any failed,
// refused or digest-mismatched job makes the exit status non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// nproc bounds the load: client goroutines, server workers and the engine
// parallelism of write-mix's gate never exceed the host's CPU count.
var nproc = runtime.NumCPU()

const (
	setupReps    = 5 // set-ups per untraced run; setup_s is their median
	serveSamples = 8 // served results re-checked against Runner.Run
)

// The metric sets of the JSON result, in BENCHMARK.json order.
//
// job_ms_p99 is printed in every table but kept out of the JSON: its rule
// (the highest percentile with ten samples beyond it) suits serve-mix, while
// on the simulation workloads those ten samples are the slowest repeats of
// one distinct job and swing with host noise.
var (
	endToEnd = []string{"setup_s", "jobs_per_s", "accesses_per_s", "job_ms_p50",
		"alloc_mb_per_job", "peak_heap_mb"}
	perLayer = []string{
		"workload.gen_s", "trace.parse_s", "cpu.capture_s", "vans.new_s", "vans.new_alloc_mb",
		"mem.replay_s", "mem.alloc_bytes_per_access", "sim.host_ns_per_event", "sim.par_speedup",
		"obs.dump_s", "bottleneck.analyze_s", "server.compile_s", "server.canonical_s",
		"server.queued_ms_p50", "server.run_ms_p50", "server.http_ms_p50", "server.cache_hit_ratio",
		"job.unaccounted_s", "job.trace_overhead_ms",
		"sim.events", "sim.events_per_access", "sim.peak_pending",
		"cpu.instructions", "cpu.ipc", "cpu.llc_mpki",
		"imc.writes", "imc.wpq_merges", "imc.wpq_wait_ns_mean",
		"nvdimm.ait_miss_ratio", "nvdimm.rmw_partials", "nvdimm.lsq_merges", "nvdimm.lsq_wait_ns_mean", "nvdimm.migrations",
		"media.reads", "media.writes", "media.write_amp", "dram.row_hit_ratio",
	}
)

// simWorkloads are the closed loops over server.Runner.Run; serve-mix is
// the fourth workload.
var simWorkloads = map[string]simWorkload{
	"chase-ait": {specs: chaseSpecs},
	"write-mix": {specs: writeSpecs, parGate: true},
	"cloud-mix": {specs: cloudSpecs},
}

var workloadOrder = []string{"chase-ait", "write-mix", "cloud-mix", "serve-mix"}

type metric struct {
	name, unit string
	value      float64
	note       string
}

// report is one run's outcome: metrics in the order measured, labelled
// context lines, and the failure tally.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	errs      []error
	metrics   []metric
	context   []string
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name, unit, v, note})
}

func (r *report) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err)
}

func (r *report) find(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes the human-readable table.
func (r *report) print(w io.Writer, seed uint64) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s\n", r.workload, seed, mode)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-28s %16.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Fprintf(w, "  %-28s %16.6g %-6s %d of %d attempted\n", "failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	for _, c := range r.context {
		fmt.Fprintf(w, "  context  %s\n", c)
	}
	for _, err := range r.errs {
		fmt.Fprintf(w, "  FAILED   %v\n", err)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result builds the JSON line from reports; with several reports metric
// names are prefixed by the workload.
func result(reps []*report) (jsonResult, error) {
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range reps {
		out.Attempted += r.attempted
		out.Failed += r.failed
		names := endToEnd
		if r.traced {
			names = perLayer
		}
		for _, n := range names {
			m, ok := r.find(n)
			if !ok {
				return out, fmt.Errorf("%s: metric %s was not measured", r.workload, n)
			}
			key := n
			if len(reps) > 1 {
				key = r.workload + "/" + n
			}
			out.Metrics[key] = jsonMetric{m.value, m.unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out, nil
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := flag.Float64("seconds", 10, "measured seconds per untraced run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced recomposition and reports per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory for the traced run's span file (empty: not written)")
	flag.Parse()
	os.Exit(run(*name, *seed, time.Duration(*secs*float64(time.Second)), *traceFlag, *spansDir))
}

func run(name string, seed uint64, dur time.Duration, traceFlag int, spansDir string) int {
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "nvbench: --trace must be 0 or 1")
		return 2
	}
	names, modes := []string{name}, []bool{traceFlag == 1}
	if name == "all" {
		// Every workload, untraced then traced; metric names get a
		// "<workload>/" prefix in the JSON line.
		names, modes = workloadOrder, []bool{false, true}
	}
	var reps []*report
	for _, n := range names {
		for _, traced := range modes {
			rep, err := runOne(n, seed, dur, traced, spansDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nvbench: %s: %v\n", n, err)
				return 2
			}
			rep.print(os.Stdout, seed)
			reps = append(reps, rep)
		}
	}
	res, err := result(reps)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvbench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func runOne(name string, seed uint64, dur time.Duration, traced bool, spansDir string) (*report, error) {
	w, isSim := simWorkloads[name]
	if !isSim && name != "serve-mix" {
		return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadOrder, ", "))
	}
	if !traced {
		if isSim {
			return measureSim(name, w, seed, dur)
		}
		return measureServe(seed, dur)
	}
	rec := newRecorder()
	var rep *report
	var err error
	if isSim {
		rep, err = traceSim(name, w, seed, rec)
	} else {
		rep, err = traceServe(seed, dur, rec)
	}
	if err != nil {
		return nil, err
	}
	if spansDir != "" {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.ndjson", name, seed))
		if err := rec.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.context = append(rep.context, "spans: "+path)
	}
	return rep, nil
}

// traceSim is the traced run of a sim workload over one pass of its
// distinct jobs.
func traceSim(name string, w simWorkload, seed uint64, rec *recorder) (*report, error) {
	rep := &report{workload: name, traced: true}
	specs := w.specs(seed)
	tot, untraced, traced := tracedJobs(rep, rec, specs)
	if tot.jobs == 0 {
		return nil, errors.Join(rep.errs...)
	}
	speedup := 0.0
	if w.parGate {
		speedup = parallelReplay(rep, specs, tot, rec)
	}
	layerReport(rep, rec, tot, untraced, traced)
	rep.add("sim.par_speedup", "ratio", speedup, fmt.Sprintf("serial replay time over replay at SimParallel=%d (0: not measured on this workload)", nproc))
	rep.add("server.queued_ms_p50", "ms", 0, "no queue: jobs call Runner.Run directly")
	rep.add("server.run_ms_p50", "ms", 0, "no queue: jobs call Runner.Run directly")
	rep.add("server.http_ms_p50", "ms", 0, "no HTTP on this workload")
	rep.add("server.cache_hit_ratio", "ratio", 0, "no result cache on this workload")
	return rep, nil
}

// traceServe is the traced run of serve-mix: a timed HTTP phase of half the
// run for the service layers, then the hot catalogue recomposed for the
// simulation layers.
func traceServe(seed uint64, dur time.Duration, rec *recorder) (*report, error) {
	rep := &report{workload: "serve-mix", traced: true}
	fx, err := newServeFixture(seed)
	if err != nil {
		return nil, err
	}
	reqs, _, _ := fx.serveLoop(dur / 2)
	fx.close()
	checks, sampleErrs := gateServed(reqs, serveSamples)
	rep.attempted += len(reqs) + checks
	var queued, run, httpMs []float64
	hits := 0
	for i, rq := range reqs {
		if rq.err != nil {
			rep.fail(rq.err)
			continue
		}
		rec.addSpan(fmt.Sprintf("r%d", i), "http.request", rq.start, rq.ms)
		httpMs = append(httpMs, rq.ms-rq.queuedMs-rq.runMs)
		if rq.cached {
			hits++
			continue
		}
		queued = append(queued, rq.queuedMs)
		run = append(run, rq.runMs)
	}
	for _, err := range sampleErrs {
		rep.fail(err)
	}

	tot, untraced, traced := tracedJobs(rep, rec, fx.hot)
	if tot.jobs == 0 {
		return nil, errors.Join(rep.errs...)
	}
	layerReport(rep, rec, tot, untraced, traced)
	rep.add("sim.par_speedup", "ratio", 0, "serial workers (0: not measured on this workload)")
	rep.add("server.queued_ms_p50", "ms", median(queued), fmt.Sprintf("simulated requests, n=%d", len(queued)))
	rep.add("server.run_ms_p50", "ms", median(run), fmt.Sprintf("simulated requests, n=%d", len(run)))
	rep.add("server.http_ms_p50", "ms", median(httpMs), fmt.Sprintf("client latency minus queued minus run, n=%d", len(httpMs)))
	rep.add("server.cache_hit_ratio", "ratio", ratio(float64(hits), float64(len(reqs))), fmt.Sprintf("%d of %d requests", hits, len(reqs)))
	rep.context = append(rep.context, fmt.Sprintf("per-layer simulation figures over the %d hot specs", len(fx.hot)))
	return rep, nil
}
