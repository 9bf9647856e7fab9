package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/bottleneck"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/vans"
	"repro/internal/workload"
)

// span is one timed call into a layer. Spans of one job share Job; Parent
// is the index of the enclosing span (-1 for a job's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    string  `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder keeps spans in memory; they are written out once, at exit.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(job string, parent int, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Job: job, Name: name,
		Start: time.Since(r.t0).Seconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = time.Since(r.t0).Seconds() }

// addSpan records a finished root span measured elsewhere: ms long from
// start.
func (r *recorder) addSpan(job, name string, start time.Time, ms float64) {
	s := start.Sub(r.t0).Seconds()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: -1, Job: job, Name: name, Start: s, End: s + ms/1e3})
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the durations of its direct children. Spans nest strictly
// (one job runs at a time), so children never overlap.
func (r *recorder) selfTimes() map[string]float64 {
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range r.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// write stores the spans as NDJSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recomposed is what one traced job measured beyond its spans.
type recomposed struct {
	res         *server.Result
	canonical   []byte
	events      uint64
	peak        int
	cpu         *cpu.Stats
	newAlloc    uint64 // heap bytes allocated by vans.New
	replayAlloc uint64 // heap bytes allocated by the replay
}

// recompose runs one job through the same public calls server.Runner.Run
// makes for a plan without faults, checkpoints or warm-up, with one span per
// call. par is the engine's SimParallel.
func recompose(rec *recorder, job string, spec server.JobSpec, par int) (*recomposed, error) {
	out := &recomposed{}
	root := rec.begin(job, -1, "job")
	defer rec.end(root)

	sp := rec.begin(job, root, "server.compile")
	plan, err := spec.Compile()
	var hash string
	if err == nil {
		hash = plan.Hash()
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	var accs []mem.Access
	window := plan.Window
	switch plan.Kind {
	case server.KindChase:
		sp = rec.begin(job, root, "workload.gen")
		accs = workload.ChaseAccesses(plan.Region, plan.MaxSteps, plan.Seed)
		rec.end(sp)
		window = 1
	case server.KindSeq:
		op := map[string]mem.Op{"load": mem.OpRead, "store": mem.OpWrite, "store-nt": mem.OpWriteNT}[plan.Op]
		sp = rec.begin(job, root, "workload.gen")
		accs = workload.SeqAccesses(plan.Bytes, op)
		rec.end(sp)
	case server.KindTrace:
		sp = rec.begin(job, root, "trace.parse")
		accs, err = trace.ReadAccesses(strings.NewReader(plan.Trace))
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	case server.KindCloud:
		accs, out.cpu = capture(rec, job, root, plan)
	default:
		return nil, fmt.Errorf("recompose: unsupported workload kind %q", plan.Kind)
	}

	a0 := allocBytes()
	sp = rec.begin(job, root, "vans.new")
	cfg := plan.VansConfig()
	cfg.Parallel = par
	o := obs.New()
	cfg.Obs = o
	sys := vans.New(cfg)
	d := mem.NewDriver(sys)
	d.SetObs(o)
	rec.end(sp)
	a1 := allocBytes()
	ev0 := sys.Engine().Fired()

	sp = rec.begin(job, root, "mem.replay")
	elapsed := d.RunWindow(accs, window)
	fenceStart := sys.Engine().Now()
	d.Fence()
	drain := sys.Engine().Now() - fenceStart
	rec.end(sp)
	out.replayAlloc = allocBytes() - a1
	out.newAlloc = a1 - a0
	out.events = sys.Engine().Fired() - ev0
	out.peak = sys.Engine().PeakPending()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	sp = rec.begin(job, root, "obs.dump")
	dump := o.Dump()
	rec.end(sp)
	sp = rec.begin(job, root, "bottleneck.analyze")
	verdict := bottleneck.Analyze(dump)
	rec.end(sp)

	var bytesMoved uint64
	for _, a := range accs {
		sz := uint64(a.Size)
		if sz == 0 {
			sz = mem.CacheLine
		}
		bytesMoved += sz
	}
	out.res = &server.Result{
		Hash:          hash,
		Accesses:      len(accs),
		BytesMoved:    bytesMoved,
		ElapsedCycles: uint64(elapsed),
		DrainCycles:   uint64(drain),
		ElapsedNs:     mem.ToNs(sys, elapsed),
		DrainNs:       mem.ToNs(sys, drain),
		AvgLatencyNs:  mem.ToNs(sys, elapsed) / float64(len(accs)),
		BandwidthGBs:  mem.BandwidthGBs(sys, bytesMoved, elapsed+drain),
		Vans:          sys.Snapshot(),
		Obs:           dump,
		Verdict:       verdict,
	}
	sp = rec.begin(job, root, "server.canonical")
	out.canonical = out.res.Canonical()
	rec.end(sp)
	return out, nil
}

// capture records a cloud job's memory stream through the cpu core on a
// capture system, as the runner does before replay.
func capture(rec *recorder, job string, root int, plan *server.Plan) ([]mem.Access, *cpu.Stats) {
	sp := rec.begin(job, root, "cpu.capture")
	defer rec.end(sp)
	capCfg := vans.DefaultConfig()
	capCfg.NV.Media.Capacity = 256 << 20
	col := trace.NewCollector(vans.New(capCfg))
	core := cpu.New(cpu.DefaultConfig(), col)

	g := rec.begin(job, sp, "workload.gen")
	var w cpu.Workload
	if b, ok := workload.SPECBenchByName(plan.Name); ok {
		b.FootprintMB = float64(plan.Footprint) / (1 << 20)
		w = workload.SPEC(b, plan.Instructions, plan.Seed)
	} else {
		w = workload.Cloud(plan.Name, workload.CloudOptions{
			Instructions: plan.Instructions, Seed: plan.Seed, Footprint: plan.Footprint})
	}
	rec.end(g)
	st := core.Run(w)
	accs := make([]mem.Access, len(col.Records))
	for i, r := range col.Records {
		accs[i] = r.Access()
	}
	return accs, &st
}

// layerTotals accumulates the traced run's per-layer figures over a fixed
// set of jobs, so every simulated count repeats exactly for a given seed.
type layerTotals struct {
	jobs        int
	accesses    int
	events      uint64
	peakPending int
	newAlloc    uint64
	replayAlloc uint64
	counters    map[string]uint64 // "<comp>/<name>" summed over DIMMs/channels and jobs
	hists       map[string][2]uint64
	cpu         cpu.Stats
	cpuJobs     int
	regimes     map[string]int
	canonical   map[string][]byte // per job id, for the parallel-engine gate
}

func newLayerTotals() *layerTotals {
	return &layerTotals{counters: map[string]uint64{}, hists: map[string][2]uint64{},
		regimes: map[string]int{}, canonical: map[string][]byte{}}
}

// component reduces a dump name to "<comp>/<name>": the last segment plus
// the one before it with any instance number dropped ("dimm0/media/reads"
// -> "media/reads", "imc3/writes" -> "imc/writes").
func component(full string) string {
	parts := strings.Split(full, "/")
	if len(parts) < 2 {
		return full
	}
	comp := strings.TrimRight(parts[len(parts)-2], "0123456789")
	return comp + "/" + parts[len(parts)-1]
}

func (t *layerTotals) add(id string, rc *recomposed) {
	t.jobs++
	t.canonical[id] = rc.canonical
	t.accesses += rc.res.Accesses
	t.events += rc.events
	if rc.peak > t.peakPending {
		t.peakPending = rc.peak
	}
	t.newAlloc += rc.newAlloc
	t.replayAlloc += rc.replayAlloc
	for _, c := range rc.res.Obs.Counters {
		t.counters[component(c.Name)] += c.Value
	}
	for _, h := range rc.res.Obs.Histograms {
		k := component(h.Name)
		v := t.hists[k]
		t.hists[k] = [2]uint64{v[0] + h.Count, v[1] + h.Sum}
	}
	if rc.cpu != nil {
		t.cpuJobs++
		s := &t.cpu
		s.Instructions += rc.cpu.Instructions
		s.Cycles += rc.cpu.Cycles
		s.L3.Misses += rc.cpu.L3.Misses
	}
	if rc.res.Verdict != nil {
		t.regimes[rc.res.Verdict.Regime]++
	}
}

func (t *layerTotals) c(name string) float64 { return float64(t.counters[name]) }

func (t *layerTotals) histMean(name string) float64 {
	h := t.hists[name]
	return ratio(float64(h[1]), float64(h[0]))
}

// tracedJobs runs every job untraced through server.Runner.Run and
// recomposed with spans, checking that both agree cycle for cycle and byte
// for byte; every mismatch is reported on rep. It returns the totals and the
// summed untraced and traced job wall times.
func tracedJobs(rep *report, rec *recorder, specs []server.JobSpec) (*layerTotals, time.Duration, time.Duration) {
	tot := newLayerTotals()
	var untraced, traced time.Duration
	rn := server.NewRunner()
	// Warm-up, so neither side of the overhead comparison pays for the
	// process's first job.
	rep.attempted++
	if _, err := server.RunSpec(context.Background(), specs[0]); err != nil {
		rep.fail(fmt.Errorf("warm-up: %w", err))
	}
	for i, spec := range specs {
		id := fmt.Sprintf("j%d", i)
		rep.attempted++
		p, err := spec.Compile()
		if err != nil {
			rep.fail(fmt.Errorf("job %s: %w", id, err))
			continue
		}
		// Alternate which side runs first, so neither gains from the other
		// having just warmed the heap.
		var want *server.Result
		var got *recomposed
		var werr, gerr error
		for k := 0; k < 2; k++ {
			t0 := time.Now()
			if (i+k)%2 == 0 {
				want, werr = rn.Run(context.Background(), p)
				untraced += time.Since(t0)
			} else {
				got, gerr = recompose(rec, id, spec, 0)
				traced += time.Since(t0)
			}
		}
		if werr != nil {
			rep.fail(fmt.Errorf("job %s: %w", id, werr))
			continue
		}
		if gerr != nil {
			rep.fail(fmt.Errorf("job %s recomposed: %w", id, gerr))
			continue
		}
		switch {
		case got.res.ElapsedCycles != want.ElapsedCycles:
			rep.fail(fmt.Errorf("job %s: recomposed run took %d cycles, Runner.Run %d", id, got.res.ElapsedCycles, want.ElapsedCycles))
		case !reflect.DeepEqual(got.res.Vans, want.Vans):
			rep.fail(fmt.Errorf("job %s: recomposed vans.Snapshot differs from Runner.Run's", id))
		case !bytes.Equal(got.canonical, want.Canonical()):
			rep.fail(fmt.Errorf("job %s: recomposed Result.Canonical differs from Runner.Run's", id))
		default:
			tot.add(id, got)
		}
	}
	return tot, untraced, traced
}

// layerReport turns the traced totals into the per-layer metrics.
func layerReport(rep *report, rec *recorder, tot *layerTotals, untraced, traced time.Duration) {
	self := rec.selfTimes()
	jobs := float64(tot.jobs)
	perJob := func(name string) float64 { return ratio(self[name], jobs) }
	rep.add("workload.gen_s", "s", perJob("workload.gen"), "self time per job")
	rep.add("trace.parse_s", "s", perJob("trace.parse"), "self time per job")
	rep.add("cpu.capture_s", "s", perJob("cpu.capture"), "self time per job, generator construction excluded")
	rep.add("vans.new_s", "s", perJob("vans.new"), "self time per job")
	rep.add("vans.new_alloc_mb", "MB", ratio(float64(tot.newAlloc)/1e6, jobs), "per job")
	rep.add("mem.replay_s", "s", perJob("mem.replay"), "self time per job, fence included")
	rep.add("mem.alloc_bytes_per_access", "B", ratio(float64(tot.replayAlloc), float64(tot.accesses)), "")
	rep.add("sim.host_ns_per_event", "ns", ratio(self["mem.replay"]*1e9, float64(tot.events)), "replay time over events fired")
	rep.add("obs.dump_s", "s", perJob("obs.dump"), "self time per job")
	rep.add("bottleneck.analyze_s", "s", perJob("bottleneck.analyze"), "self time per job")
	rep.add("server.compile_s", "s", perJob("server.compile"), "Compile + Hash, self time per job")
	rep.add("server.canonical_s", "s", perJob("server.canonical"), "self time per job")
	rep.add("job.unaccounted_s", "s", perJob("job"), fmt.Sprintf("job wall time outside every layer span (%.2f%% of traced wall)",
		100*ratio(self["job"], traced.Seconds())))
	rep.add("job.trace_overhead_ms", "ms", ratio(millis(traced-untraced), jobs), "traced minus untraced wall per job")

	rep.add("sim.events", "count", float64(tot.events), fmt.Sprintf("over %d jobs", tot.jobs))
	rep.add("sim.events_per_access", "count", ratio(float64(tot.events), float64(tot.accesses)), "")
	rep.add("sim.peak_pending", "count", float64(tot.peakPending), "max over jobs")
	rep.add("cpu.instructions", "count", float64(tot.cpu.Instructions), fmt.Sprintf("over %d captured jobs", tot.cpuJobs))
	rep.add("cpu.ipc", "ratio", tot.cpu.IPC(cpu.DefaultConfig().CoreGHz), "")
	rep.add("cpu.llc_mpki", "count", tot.cpu.LLCMPKI(), "LLC misses per 1000 instructions")
	rep.add("imc.writes", "count", tot.c("imc/writes"), "")
	rep.add("imc.wpq_merges", "count", tot.c("imc/wpq_merges"), "")
	rep.add("imc.wpq_wait_ns_mean", "ns", tot.histMean("imc/wpq_wait_ns"), "simulated")
	aitMiss := tot.c("dimm/ait_line_misses") + tot.c("dimm/ait_sector_misses")
	rep.add("nvdimm.ait_miss_ratio", "ratio", ratio(aitMiss, aitMiss+tot.c("dimm/ait_hits")), "")
	rep.add("nvdimm.rmw_partials", "count", tot.c("dimm/rmw_partials"), "")
	rep.add("nvdimm.lsq_merges", "count", tot.c("dimm/lsq_merges"), "")
	rep.add("nvdimm.lsq_wait_ns_mean", "ns", tot.histMean("dimm/lsq_wait_ns"), "simulated")
	rep.add("nvdimm.migrations", "count", tot.c("wear/migrations"), "")
	rep.add("media.reads", "count", tot.c("media/reads"), "")
	rep.add("media.writes", "count", tot.c("media/writes"), "")
	rep.add("media.write_amp", "ratio", ratio(tot.c("media/bytes_written"), tot.c("dimm/client_writes")*mem.CacheLine),
		"media bytes written per client byte written")
	rowAll := tot.c("dram/row_hits") + tot.c("dram/row_misses") + tot.c("dram/row_conflicts")
	rep.add("dram.row_hit_ratio", "ratio", ratio(tot.c("dram/row_hits"), rowAll), "on-DIMM DRAM")
	rep.context = append(rep.context, "regime: "+regimeSummary(tot.regimes))
}

// regimeSummary renders a regime tally in a stable order.
func regimeSummary(m map[string]int) string {
	if len(m) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s x%d", k, m[k])
	}
	return strings.Join(parts, ", ")
}

// parallelReplay replays every job again with SimParallel = nproc and
// returns sim.par_speedup: the serial replay time the traced run recorded
// over the parallel replay time. Each parallel result must equal the serial
// one byte for byte.
func parallelReplay(rep *report, specs []server.JobSpec, tot *layerTotals, serial *recorder) float64 {
	rec := newRecorder()
	for i, spec := range specs {
		id := fmt.Sprintf("j%d", i)
		rep.attempted++
		got, err := recompose(rec, id, spec, nproc)
		if err == nil && !bytes.Equal(got.canonical, tot.canonical[id]) {
			err = fmt.Errorf("result differs from the serial engine's")
		}
		if err != nil {
			rep.fail(fmt.Errorf("SimParallel=%d job %s: %w", nproc, id, err))
		}
	}
	return ratio(serial.selfTimes()["mem.replay"], rec.selfTimes()["mem.replay"])
}
