package vans

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// allocsPerAccess replays chunk after chunk of accs through a driver on s
// with the given window — one fresh chunk per measured run, so the replay
// keeps reaching new addresses — and returns the mean allocations per
// access once the first chunk has warmed the system up.
func allocsPerAccess(t *testing.T, s *System, accs []mem.Access, chunk, window int) float64 {
	t.Helper()
	const runs = 8
	if len(accs) < (runs+2)*chunk {
		t.Fatalf("%d accesses cannot feed %d chunks of %d", len(accs), runs+2, chunk)
	}
	d := mem.NewDriver(s)
	next := 0
	replay := func() {
		d.RunWindow(accs[next:next+chunk], window)
		next += chunk
	}
	replay() // warm-up: engine queues, free lists, AIT and RMW state
	// AllocsPerRun adds one untimed call of its own before measuring.
	got := testing.AllocsPerRun(runs, replay) / float64(chunk)
	t.Logf("%.4f allocations per access", got)
	return got
}

// TestAccessPathAllocFree is the allocation guard of the VANS access path:
// after warm-up, requests through mem.Driver, the iMC, the DIMM (LSQ, RMW
// buffer, AIT, on-DIMM DRAM) and the media run on recycled hop records and
// allocate nothing per access. Measured on the unobserved path: 2
// allocations per replay call (the driver's per-run completion closure and
// the in-flight counter it captures) and none per access — 0.0020 per access
// for the chase (1024-access chunks), 0.0010 for the mix (2048). The bound
// leaves room for that per-run cost only.
func TestAccessPathAllocFree(t *testing.T) {
	const bound = 0.01

	t.Run("chase-ait-miss", func(t *testing.T) {
		// A dependent chase over 64M, four times the AIT buffer's reach: most
		// hops miss the AIT and trigger a critical-sector read plus a 4KB
		// line fill from the media.
		s := New(DefaultConfig())
		accs := workload.ChaseAccesses(64<<20, 10*1024, 3)
		got := allocsPerAccess(t, s, accs, 1024, 1)
		st := s.DIMMs()[0].Stats()
		if st.AITLineMiss < st.AITHits {
			t.Fatalf("chase did not exercise the miss path: %d line misses, %d hits",
				st.AITLineMiss, st.AITHits)
		}
		if got > bound {
			t.Fatalf("chase allocated %.3f times per access, want <= %.2f", got, bound)
		}
	})

	t.Run("load-store-nt-mix", func(t *testing.T) {
		// Interleaved loads, stores and non-temporal stores over 1M with
		// eight in flight: WPQ merges and drains, LSQ combining, partial-block
		// read-modify-write fills and write-through media writes.
		s := New(DefaultConfig())
		rng := sim.NewRNG(11)
		accs := make([]mem.Access, 10*2048)
		for i := range accs {
			op := mem.OpRead
			switch u := rng.Float64(); {
			case u < 0.35:
				op = mem.OpWrite
			case u < 0.60:
				op = mem.OpWriteNT
			}
			accs[i] = mem.Access{Op: op, Addr: rng.Uint64n(1<<20/64) * 64, Size: 64}
		}
		got := allocsPerAccess(t, s, accs, 2048, 8)
		if st := s.DIMMs()[0].Stats(); st.PartialRMW == 0 || st.ClientWrites == 0 {
			t.Fatalf("mix did not exercise the write path: %+v", st)
		}
		if got > bound {
			t.Fatalf("mix allocated %.3f times per access, want <= %.2f", got, bound)
		}
	})
}
