package mem

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Driver issues request streams into a System and collects completion
// latencies. It implements the two access disciplines the LENS
// microbenchmarks need: a dependent chain (each access starts only after the
// previous completes — pointer chasing) and a windowed stream (up to W
// outstanding — bandwidth tests).
type Driver struct {
	sys    System
	nextID uint64

	// faults counts completed requests that carried an access fault
	// (mem.Request.Err, e.g. injected uncorrectable media reads); firstErr
	// keeps the first such error for reporting.
	faults   int
	firstErr error

	o          *obs.Obs
	reads      uint64
	writes     uint64
	faultCount uint64
	histRead   *obs.Histogram
	histWrite  *obs.Histogram

	// ckpt, when set, makes checkpoint barriers part of the run (see
	// CkptPolicy). runStart is the engine cycle the windowed run started at;
	// it is serialized so a resumed run reports the same elapsed span.
	ckpt     *CkptPolicy
	ckptErr  error
	runStart sim.Cycle
}

// NewDriver returns a driver bound to sys.
func NewDriver(sys System) *Driver { return &Driver{sys: sys} }

// SetObs registers the driver's request counters and end-to-end latency
// histograms ("driver" component) and enables request-lifecycle hook
// emission. Call before issuing accesses.
func (d *Driver) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	d.o = o
	o.RegisterPtr("driver", "reads", &d.reads)
	o.RegisterPtr("driver", "writes", &d.writes)
	o.RegisterPtr("driver", "faults", &d.faultCount)
	d.histRead = o.Histogram("driver", "read_ns", nil)
	d.histWrite = o.Histogram("driver", "write_ns", nil)
}

// noteDone folds one completed request into the fault and latency
// accounting.
func (d *Driver) noteDone(r *Request) {
	if r.Err != nil {
		d.faults++
		d.faultCount++
		if d.firstErr == nil {
			d.firstErr = r.Err
		}
	}
	if d.o != nil {
		ns := uint64(float64(r.Latency()) / d.sys.CyclesPerNano())
		switch {
		case r.Op == OpRead:
			d.reads++
			d.histRead.Observe(ns)
		case r.Op.IsWrite() || r.Op == OpClwb:
			d.writes++
			d.histWrite.Observe(ns)
		}
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.sys.Engine().Now(), Stage: obs.StageRequest,
				Pos: obs.PosComplete, Write: r.Op != OpRead, Comp: "driver",
				Addr: r.Addr, Arg: uint64(r.Latency())})
		}
	}
}

// Err returns the first access fault observed across all runs of this
// driver (nil when every access succeeded). Faults do not abort a run —
// the stream completes with its real timing — so callers check Err after
// the run to decide whether results are trustworthy.
func (d *Driver) Err() error { return d.firstErr }

// Faults returns the number of faulted accesses observed.
func (d *Driver) Faults() int { return d.faults }

// Access is one element of a driver stream.
type Access struct {
	Op   Op
	Addr uint64
	Size uint32
	// Data optionally carries a functional write payload (crash-consistency
	// and data-integrity runs). Nil means timing-only.
	Data []byte
}

// runUntil runs the engine until done reports true, checking it before each
// dispatch. It panics if the queue empties first: a model that stops
// scheduling while the driver still waits on it has deadlocked, a bug we
// want loudly. what names the wait in the panic.
func (d *Driver) runUntil(done func() bool, what string) {
	ok := false
	d.sys.Engine().RunWhile(func() bool { ok = done(); return !ok })
	if !ok {
		panic("mem: " + what + " stalled with no pending events (model deadlock)")
	}
}

// submitBlocking offers r until accepted, advancing the engine to drain
// backpressure.
func (d *Driver) submitBlocking(r *Request) {
	if d.o.Active() {
		// Arg deliberately stays 0: PosIssue events carrying a nonzero Arg
		// render as duration slices in the Chrome exporter.
		d.o.Emit(obs.Event{Now: d.sys.Engine().Now(), Stage: obs.StageRequest, Pos: obs.PosIssue,
			Write: r.Op != OpRead && r.Op != OpFence, Comp: "driver", Addr: r.Addr})
	}
	d.runUntil(func() bool { return d.sys.Submit(r) }, "submission")
}

// RunChain issues accesses strictly one at a time: access i+1 is submitted
// only once access i completed. It returns the per-access latency in cycles.
// This is the timing discipline of a pointer-chasing load loop, where the
// next address depends on the loaded value. The checkpoint policy applies
// only to the windowed stream: RunChain, and so Fence, executes no barriers.
func (d *Driver) RunChain(accs []Access) []sim.Cycle {
	lats := make([]sim.Cycle, 0, len(accs))
	for _, a := range accs {
		d.nextID++
		done := false
		r := &Request{ID: d.nextID, Op: a.Op, Addr: a.Addr, Size: a.Size, Data: a.Data,
			OnDone: func(r *Request) { done = true; d.noteDone(r) }}
		d.submitBlocking(r)
		d.runUntil(func() bool { return done }, "request")
		lats = append(lats, r.Latency())
	}
	return lats
}

// RunWindow issues accesses keeping up to window requests outstanding, the
// discipline of a store/streaming loop limited by CPU memory-level
// parallelism. It returns the total cycles from first submit until the last
// completion (all requests drained).
func (d *Driver) RunWindow(accs []Access, window int) sim.Cycle {
	elapsed, _ := d.RunWindowChecked(accs, window, nil)
	return elapsed
}

// RunWindowChecked is RunWindow with a cooperative cancellation hook: when
// keepGoing is non-nil it is polled before each submission, and a false
// return abandons the remaining accesses after draining what is already in
// flight. The second result reports whether the whole stream was issued.
// A run that completes has timing identical to RunWindow (the hook never
// touches the engine), which is what lets nvmserved enforce per-job timeouts
// without perturbing results.
func (d *Driver) RunWindowChecked(accs []Access, window int, keepGoing func() bool) (sim.Cycle, bool) {
	if window < 1 {
		window = 1
	}
	eng := d.sys.Engine()
	start := eng.Now()
	first := 0
	if d.ckpt != nil && d.ckpt.StartIndex > 0 {
		// Resuming from a snapshot: the accesses before StartIndex already ran
		// in the captured prefix, and the run's true start cycle was restored
		// by LoadState.
		first = d.ckpt.StartIndex
		start = d.runStart
	} else {
		d.runStart = start
	}
	inflight := 0
	drained := func() bool { return inflight == 0 }
	windowOpen := func() bool { return inflight < window }
	completed := true
	for i := first; i < len(accs); i++ {
		a := accs[i]
		if d.ckpt.atBarrier(i) && i != first {
			// Checkpoint barrier: drain the window, run the engine dry, then
			// hand the idle cut to the sink. The drain is executed even with a
			// nil sink so barrier placement — part of the plan — perturbs a
			// non-checkpointing run identically.
			d.runUntil(drained, "barrier drain")
			eng.Run()
			if d.ckpt.Sink != nil {
				if err := d.ckpt.Sink(i); err != nil {
					d.ckptErr = err
					completed = false
					break
				}
			}
		}
		if keepGoing != nil && !keepGoing() {
			completed = false
			break
		}
		d.runUntil(windowOpen, "window")
		d.nextID++
		r := &Request{ID: d.nextID, Op: a.Op, Addr: a.Addr, Size: a.Size, Data: a.Data,
			OnDone: func(r *Request) { inflight--; d.noteDone(r) }}
		d.submitBlocking(r)
		inflight++
	}
	d.runUntil(drained, "drain")
	return eng.Now() - start, completed
}

// Fence submits an OpFence and runs until it completes, guaranteeing all
// previously submitted stores are durable.
func (d *Driver) Fence() sim.Cycle {
	lats := d.RunChain([]Access{{Op: OpFence}})
	return lats[0]
}

// BandwidthGBs converts (bytes moved, elapsed cycles) into GB/s given the
// system clock.
func BandwidthGBs(sys System, bytes uint64, elapsed sim.Cycle) float64 {
	if elapsed == 0 {
		return 0
	}
	ns := ToNs(sys, elapsed)
	return float64(bytes) / ns // bytes/ns == GB/s
}
