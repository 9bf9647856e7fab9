package optane

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// chase runs a steady-state pointer-chasing read pass over region bytes and
// returns the average latency per access in ns.
func chase(t *testing.T, s *System, region uint64, passes int) float64 {
	t.Helper()
	d := mem.NewDriver(s)
	blocks := int(region / 64)
	rng := sim.NewRNG(5)
	perm := rng.PermCycle(blocks)
	steps := blocks
	if steps > 20000 {
		steps = 20000
	}
	var accs []mem.Access
	at := 0
	for i := 0; i < passes*steps; i++ {
		accs = append(accs, mem.Access{Op: mem.OpRead, Addr: uint64(at) * 64, Size: 64})
		at = perm[at]
	}
	lats := d.RunChain(accs)
	half := len(lats) / 2
	var sum float64
	for _, l := range lats[half:] {
		sum += mem.ToNs(s, l)
	}
	return sum / float64(len(lats)-half)
}

func TestReadLatencyThreeSegments(t *testing.T) {
	p := DefaultParams()
	small := chase(t, New(DefaultConfig()), 4<<10, 2)  // fits RMW (16KB)
	mid := chase(t, New(DefaultConfig()), 256<<10, 2)  // fits AIT (16MB)
	large := chase(t, New(DefaultConfig()), 64<<20, 1) // exceeds AIT
	if !(small < mid && mid < large) {
		t.Fatalf("segments not increasing: %.0f %.0f %.0f", small, mid, large)
	}
	within := func(got, want float64) bool { return got > want*0.85 && got < want*1.15 }
	if !within(small, p.ReadRMWNs) {
		t.Fatalf("small-region latency %.0f, want ~%.0f", small, p.ReadRMWNs)
	}
	if !within(mid, p.ReadAITNs) {
		t.Fatalf("mid-region latency %.0f, want ~%.0f", mid, p.ReadAITNs)
	}
	if !within(large, p.ReadMediaNs) {
		t.Fatalf("large-region latency %.0f, want ~%.0f", large, p.ReadMediaNs)
	}
}

func TestWriteKnees(t *testing.T) {
	run := func(region uint64) float64 {
		s := New(DefaultConfig())
		d := mem.NewDriver(s)
		var accs []mem.Access
		for i := 0; i < 2000; i++ {
			accs = append(accs, mem.Access{Op: mem.OpWriteNT, Addr: uint64(i) * 64 % region, Size: 64})
		}
		start := s.Engine().Now()
		d.RunChain(accs)
		return mem.ToNs(s, s.Engine().Now()-start) / float64(len(accs))
	}
	tiny := run(256)     // fits WPQ
	smal := run(2 << 10) // fits LSQ
	med := run(8 << 10)  // fits RMW
	big := run(8 << 20)  // fits AIT only
	if !(tiny < smal && smal < med && med < big) {
		t.Fatalf("write knees not increasing: %.0f %.0f %.0f %.0f", tiny, smal, med, big)
	}
}

func TestBandwidthOrderingOptane(t *testing.T) {
	// Real Optane: load > store-nt > store (Figure 1a).
	bw := func(op mem.Op) float64 {
		s := New(Config{Params: DefaultParams(), DIMMs: 6, Interleaved: true, Seed: 2})
		d := mem.NewDriver(s)
		n := 8192
		accs := make([]mem.Access, n)
		for i := range accs {
			accs[i] = mem.Access{Op: op, Addr: uint64(i) * 64, Size: 64}
		}
		elapsed := d.RunWindow(accs, 10)
		return mem.BandwidthGBs(s, uint64(n)*64, elapsed)
	}
	load := bw(mem.OpRead)
	nt := bw(mem.OpWriteNT)
	st := bw(mem.OpWrite)
	if !(load > nt && nt > st) {
		t.Fatalf("bandwidth ordering wrong: load=%.1f nt=%.1f st=%.1f", load, nt, st)
	}
}

func TestInterleavingIncreasesBandwidth(t *testing.T) {
	bw := func(cfg Config) float64 {
		s := New(cfg)
		d := mem.NewDriver(s)
		n := 4096
		accs := make([]mem.Access, n)
		for i := range accs {
			accs[i] = mem.Access{Op: mem.OpRead, Addr: uint64(i) * 64, Size: 64}
		}
		elapsed := d.RunWindow(accs, 64)
		return mem.BandwidthGBs(s, uint64(n)*64, elapsed)
	}
	one := bw(DefaultConfig())
	six := bw(Config{Params: DefaultParams(), DIMMs: 6, Interleaved: true, Seed: 1})
	if six <= one*1.5 {
		t.Fatalf("6-DIMM bandwidth (%.1f) not well above 1-DIMM (%.1f)", six, one)
	}
}

func TestWearTailInjection(t *testing.T) {
	p := DefaultParams()
	p.TailEvery = 50
	p.NoisePct = 0
	s := New(Config{Params: p, DIMMs: 1, Seed: 3})
	d := mem.NewDriver(s)
	var maxLat, sum sim.Cycle
	n := 200
	for i := 0; i < n; i++ {
		lat := d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: 4096, Size: 64}})[0]
		sum += lat
		if lat > maxLat {
			maxLat = lat
		}
	}
	if s.Tails == 0 {
		t.Fatal("no tails injected")
	}
	avg := float64(sum) / float64(n)
	if float64(maxLat) < 20*avg {
		t.Fatalf("tail (%d) not >> average (%.0f)", maxLat, avg)
	}
	if s.Tails != uint64(n)/50 {
		t.Fatalf("tails = %d, want %d", s.Tails, n/50)
	}
}

func TestFenceScalesWithPending(t *testing.T) {
	s := New(DefaultConfig())
	d := mem.NewDriver(s)
	empty := d.Fence()
	for i := 0; i < 16; i++ {
		d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: uint64(i) * 64, Size: 64}})
	}
	loaded := d.Fence()
	if loaded <= empty {
		t.Fatalf("fence with pending writes (%d) not slower than empty (%d)", loaded, empty)
	}
}

func TestAmplificationScoreShape(t *testing.T) {
	// Score decreases toward 1 as the PC-Block approaches the granularity.
	prev := 1e9
	for _, bs := range []uint64{64, 128, 256} {
		sc := AmplificationScore(bs, 256, 415, 168)
		if sc > prev {
			t.Fatalf("score not decreasing at %d", bs)
		}
		prev = sc
	}
	if got := AmplificationScore(256, 256, 415, 168); got != 1 {
		t.Fatalf("score at granularity = %v, want 1", got)
	}
	if got := AmplificationScore(4096, 256, 415, 168); got != 1 {
		t.Fatalf("score above granularity = %v, want 1", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		return chase(t, New(DefaultConfig()), 32<<10, 1)
	}
	if run() != run() {
		t.Fatal("reference model not deterministic")
	}
}
