package optane

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestGoldenRunChainLatencies pins, to values recorded once, the per-access
// latency vector of a seeded mixed dependent chain and the elapsed span of a
// windowed replay of the same stream on the reference model. Together with
// the vans golden outputs in internal/server this catches a change to event
// order in the engine, which identity tests comparing two runs of the same
// code cannot.
func TestGoldenRunChainLatencies(t *testing.T) {
	s := New(Config{Params: DefaultParams(), DIMMs: 2, Interleaved: true, Seed: 4})
	d := mem.NewDriver(s)
	ops := [...]mem.Op{mem.OpRead, mem.OpWrite, mem.OpWriteNT, mem.OpRead, mem.OpClwb}
	rng := sim.NewRNG(9)
	accs := make([]mem.Access, 0, 3000)
	for i := 0; i < cap(accs); i++ {
		if i%97 == 96 {
			accs = append(accs, mem.Access{Op: mem.OpFence})
			continue
		}
		accs = append(accs, mem.Access{Op: ops[rng.Uint64n(uint64(len(ops)))],
			Addr: rng.Uint64n(1<<20) &^ 63, Size: 64})
	}
	lats := d.RunChain(accs)
	// A windowed pass over the same stream keeps several events pending at
	// once, so same-cycle ordering shows in its elapsed span too.
	windowed := d.RunWindow(accs, 8)

	h := sha256.New()
	var buf [8]byte
	for _, l := range lats {
		binary.LittleEndian.PutUint64(buf[:], uint64(l))
		h.Write(buf[:])
	}
	eng := s.Engine()
	got := fmt.Sprintf("sha=%s windowed=%d now=%d fired=%d peak=%d",
		hex.EncodeToString(h.Sum(nil)), windowed, eng.Now(), eng.Fired(), eng.PeakPending())
	const want = "sha=98db89230cd29da7a1e94a01c9d4523c84baba331e0019c420df8c533cd027c4 windowed=181494 now=1559113 fired=6000 peak=8"
	if got != want {
		t.Fatalf("golden RunChain output changed\n got: %s\nwant: %s", got, want)
	}
}
