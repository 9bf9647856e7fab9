package sim

import (
	"errors"
	"testing"

	"repro/internal/ckpt"
)

// TestEngineCheckpointRoundTrip runs a workload to an idle cut, restores the
// clock and counters into a fresh engine, and requires the continuation to
// match an uninterrupted run: the same clock, seq, fired, and peak after a
// second phase scheduled identically on both.
func TestEngineCheckpointRoundTrip(t *testing.T) {
	phase := func(e *Engine, base Cycle, n int) {
		for i := 0; i < n; i++ {
			e.Schedule(base+Cycle(i%7), func() { e.After(3, func() {}) })
		}
		e.Run()
	}
	straight := NewEngine()
	phase(straight, 10, 40)
	phase(straight, 100, 25)

	eng := NewEngine()
	phase(eng, 10, 40)
	var enc ckpt.Enc
	if err := eng.SaveState(&enc); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	restored := NewEngine()
	if err := restored.LoadState(ckpt.NewDec(enc.Bytes())); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if restored.Now() != eng.Now() || restored.Fired() != eng.Fired() ||
		restored.PeakPending() != eng.PeakPending() || restored.seq != eng.seq {
		t.Fatalf("restored (now %d, fired %d, peak %d, seq %d), saved (now %d, fired %d, peak %d, seq %d)",
			restored.Now(), restored.Fired(), restored.PeakPending(), restored.seq,
			eng.Now(), eng.Fired(), eng.PeakPending(), eng.seq)
	}
	phase(restored, 100, 25)
	if restored.Now() != straight.Now() || restored.Fired() != straight.Fired() ||
		restored.PeakPending() != straight.PeakPending() || restored.seq != straight.seq {
		t.Fatalf("continuation ended at (now %d, fired %d, peak %d, seq %d), straight run at (now %d, fired %d, peak %d, seq %d)",
			restored.Now(), restored.Fired(), restored.PeakPending(), restored.seq,
			straight.Now(), straight.Fired(), straight.PeakPending(), straight.seq)
	}
}

// TestEngineCheckpointRejectsClosures: a pending event holds a callback with
// no serializable identity, so SaveState on a non-idle engine must fail —
// whichever Schedule variant or shard handle queued the event — and so must
// restoring into one, whose events would collide with the restored seq.
func TestEngineCheckpointRejectsClosures(t *testing.T) {
	var idle ckpt.Enc
	if err := NewEngine().SaveState(&idle); err != nil {
		t.Fatalf("SaveState on an idle engine: %v", err)
	}
	for name, queue := range map[string]func(e *Engine){
		"Schedule":   func(e *Engine) { e.After(10, func() {}) },
		"ScheduleFn": func(e *Engine) { e.AfterFn(0, func(any) {}, nil) },
		"shard":      func(e *Engine) { e.Shard(2).After(5, func() {}) },
	} {
		eng := NewEngine()
		queue(eng)
		var enc ckpt.Enc
		if err := eng.SaveState(&enc); err == nil {
			t.Fatalf("%s: SaveState accepted an engine with a pending event", name)
		}
		if err := eng.LoadState(ckpt.NewDec(idle.Bytes())); err == nil {
			t.Fatalf("%s: LoadState restored into an engine with a pending event", name)
		}
	}
}

// TestEngineLoadPendingEventsCorrupt: SaveState always writes a zero event
// count, so a snapshot claiming pending events is corrupt, not a panic.
func TestEngineLoadPendingEventsCorrupt(t *testing.T) {
	var enc ckpt.Enc
	for i := 0; i < 4; i++ {
		enc.U64(uint64(10 + i)) // now, seq, fired, peak
	}
	enc.U32(1)
	err := NewEngine().LoadState(ckpt.NewDec(enc.Bytes()))
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("LoadState = %v, want ErrCorrupt", err)
	}
}

// TestRNGCheckpointRoundTrip: a restored stream continues identically.
func TestRNGCheckpointRoundTrip(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	var enc ckpt.Enc
	r.SaveState(&enc)

	want := make([]uint64, 50)
	for i := range want {
		want[i] = r.Uint64()
	}

	r2 := NewRNG(7)
	r2.LoadState(ckpt.NewDec(enc.Bytes()))
	for i := range want {
		if got := r2.Uint64(); got != want[i] {
			t.Fatalf("draw %d: restored %d, straight %d", i, got, want[i])
		}
	}
}
