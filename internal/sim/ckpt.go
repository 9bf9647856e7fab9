package sim

import (
	"fmt"

	"repro/internal/ckpt"
)

// SaveState serializes an idle engine: the clock (now, seq) and the
// execution counters (fired, peak pending), followed by a pending-event
// count that is always 0. Checkpoints are cut only at engine-idle barriers —
// a pending event holds a callback with no identity outside this process —
// so SaveState fails while anything is pending.
func (e *Engine) SaveState(enc *ckpt.Enc) error {
	if n := e.Pending(); n != 0 {
		return fmt.Errorf("sim: %d events pending; checkpoint only an idle engine", n)
	}
	enc.U64(uint64(e.now))
	enc.U64(e.seq)
	enc.U64(e.fired)
	enc.U64(uint64(e.peak))
	enc.U32(0)
	return nil
}

// LoadState restores state captured by SaveState into an idle engine. A
// snapshot claiming pending events cannot have come from SaveState and is
// rejected as corrupt.
func (e *Engine) LoadState(dec *ckpt.Dec) error {
	if n := e.Pending(); n != 0 {
		return fmt.Errorf("sim: %d events pending; restore only into an idle engine", n)
	}
	now := Cycle(dec.U64())
	seq := dec.U64()
	fired := dec.U64()
	peak := int(dec.U64())
	n := dec.U32()
	if err := dec.Err(); err != nil {
		return err
	}
	if n != 0 {
		return fmt.Errorf("%w: engine snapshot claims %d pending events", ckpt.ErrCorrupt, n)
	}
	e.now = now
	e.seq = seq
	e.fired = fired
	e.peak = peak
	return nil
}

// SaveState serializes the RNG stream state (s0, s1).
func (r *RNG) SaveState(enc *ckpt.Enc) {
	enc.U64(r.s0)
	enc.U64(r.s1)
}

// LoadState restores the RNG stream state.
func (r *RNG) LoadState(dec *ckpt.Dec) {
	r.s0 = dec.U64()
	r.s1 = dec.U64()
}
