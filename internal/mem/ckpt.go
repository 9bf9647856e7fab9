package mem

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// CkptPolicy makes checkpoint barriers part of a run's semantics. At a
// barrier the driver stops issuing, drains its outstanding window, runs the
// engine to quiescence, and only then invokes Sink — so the whole system
// serializes from an idle cut with no request in flight. Because the
// barriers (the drains) perturb timing relative to a barrier-free run, the
// policy's shape (Every, ForcedAt) belongs to the job plan and its hash: a
// straight run and a resumed run of the same plan execute identical barriers
// and produce byte-identical results.
type CkptPolicy struct {
	// Every inserts a barrier before access i for every i with i%Every == 0,
	// 0 < i < len(accs). Zero disables periodic barriers.
	Every int
	// ForcedAt inserts one extra barrier before access ForcedAt (the warmup
	// boundary warm-start sweeps fork from). Zero disables it.
	ForcedAt int
	// StartIndex resumes the run at this access index. The driver skips
	// accesses before it and suppresses the barrier at the index itself (the
	// snapshot being resumed was taken there).
	StartIndex int
	// Sink receives each barrier's access index with the system quiescent.
	// A nil Sink still executes the barriers (drains), which is what keeps a
	// non-checkpointing run of the same plan byte-identical to one that
	// snapshots. A Sink error aborts the run.
	Sink func(idx int) error
}

// atBarrier reports whether a barrier precedes access i. It is on the
// per-access hot path and must not allocate (pinned by an AllocsPerRun
// guard).
func (p *CkptPolicy) atBarrier(i int) bool {
	if p == nil || i == 0 {
		return false
	}
	if p.Every > 0 && i%p.Every == 0 {
		return true
	}
	return p.ForcedAt > 0 && i == p.ForcedAt
}

// SetCkpt installs the checkpoint policy for subsequent runs (nil disables).
func (d *Driver) SetCkpt(p *CkptPolicy) { d.ckpt = p }

// CkptErr returns the error of a Sink invocation that aborted a run (nil
// otherwise).
func (d *Driver) CkptErr() error { return d.ckptErr }

// SaveState serializes the driver's accounting at a barrier: request ID
// counter, fault counters, request counters, the run's start cycle, and the
// end-to-end latency histograms. A driver that already observed an access
// fault cannot checkpoint — the error value has no serial form (and fault
// injection is rejected upstream anyway).
func (d *Driver) SaveState(enc *ckpt.Enc) error {
	if d.firstErr != nil {
		return fmt.Errorf("ckpt: driver observed an access fault (%v); cannot checkpoint", d.firstErr)
	}
	enc.U64(d.nextID)
	enc.U64(uint64(d.faults))
	enc.U64(d.faultCount)
	enc.U64(d.reads)
	enc.U64(d.writes)
	enc.U64(uint64(d.runStart))
	d.histRead.SaveState(enc)
	d.histWrite.SaveState(enc)
	return nil
}

// LoadState restores driver accounting captured by SaveState.
func (d *Driver) LoadState(dec *ckpt.Dec) error {
	d.nextID = dec.U64()
	d.faults = int(dec.U64())
	d.faultCount = dec.U64()
	d.reads = dec.U64()
	d.writes = dec.U64()
	d.runStart = sim.Cycle(dec.U64())
	if err := dec.Err(); err != nil {
		return err
	}
	if err := d.histRead.LoadState(dec); err != nil {
		return err
	}
	return d.histWrite.LoadState(dec)
}
