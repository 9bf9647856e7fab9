package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vans"
)

// interleavedTrace builds a seeded mixed load/store/store-nt stream spread
// over 6 interleaved 4KB pages per DIMM, with an mfence every 48 records.
func interleavedTrace(n int) string {
	ops := [...]string{"load", "store", "store-nt"}
	rng := sim.NewRNG(11)
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i%48 == 47 {
			fmt.Fprintf(&b, "%d mfence 0x0 0\n", i)
			continue
		}
		addr := rng.Uint64n(6*6*4096/64) * 64
		fmt.Fprintf(&b, "%d %s %#x 64\n", i, ops[rng.Uint64n(3)], addr)
	}
	return b.String()
}

// goldenEngineCounts replays the plan the way Runner does (window replay and
// final fence, or the power-fail cut) on a fresh system and returns the
// engine's fired-event count, pending high-water mark, and the replay's
// elapsed cycles.
func goldenEngineCounts(t *testing.T, p *Plan) (fired uint64, peak int, elapsed sim.Cycle) {
	t.Helper()
	accs, window, err := buildAccesses(p)
	if err != nil {
		t.Fatalf("buildAccesses: %v", err)
	}
	cfg := p.VansConfig()
	if cut := p.Fault.PowerFailCycle; cut > 0 {
		cfg.Functional = true
		fault.FillPayloads(accs, p.Seed)
		sys := vans.New(cfg)
		led := fault.RunToCut(sys, accs, window, sim.Cycle(cut))
		return sys.Engine().Fired(), sys.Engine().PeakPending(), led.EndCycle()
	}
	o := obs.New()
	cfg.Obs = o
	sys := vans.New(cfg)
	d := mem.NewDriver(sys)
	d.SetObs(o)
	elapsed = d.RunWindow(accs, window)
	d.Fence()
	return sys.Engine().Fired(), sys.Engine().PeakPending(), elapsed
}

// TestGoldenOutput pins the simulated output of a fixed set of specs to
// values recorded once: the SHA-256 of the canonical result bytes plus the
// engine's fired-event count and peak pending depth. Unlike the identity
// tests (serial vs parallel, resumed vs straight), which compare two runs of
// the same code, these constants catch a change that alters every run alike
// — an event reordering in the engine, say. A legitimate model change must
// update them deliberately.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		name  string
		spec  JobSpec
		sha   string
		fired uint64
		peak  int
	}{
		{
			name: "chase-64M-1dimm",
			spec: JobSpec{
				Config:   ConfigSpec{MediaBytes: "256M"},
				Workload: WorkloadSpec{Kind: KindChase, Region: "64M", MaxSteps: 3000},
				Seed:     3,
			},
			sha:   "dae6943752ff172d409f14dd7eefbdd92c0b4a05c1635b52a3ec5be51c0d6bb2",
			fired: 104281, peak: 35,
		},
		{
			name: "trace-6dimm-interleaved",
			spec: JobSpec{
				Config:   ConfigSpec{DIMMs: 6, Interleaved: true, WearThreshold: 32},
				Workload: WorkloadSpec{Kind: KindTrace, Trace: interleavedTrace(2400)},
				Window:   16, Seed: 2,
			},
			sha:   "b9d9ff4bc284666c23b587ad882fa3975d5ea1cdf87395baad87824c23ed332f",
			fired: 2810640, peak: 254,
		},
		{
			name: "seq-store",
			spec: JobSpec{
				Workload: WorkloadSpec{Kind: KindSeq, Bytes: "64K", Op: "store"},
				Window:   10, Seed: 1,
			},
			sha:   "4aaac2dc4e80adf06975d546709ec70b02f2cf9f6bc4b617a50c784894c7bc4b",
			fired: 11176, peak: 21,
		},
		{
			name: "power-fail-cut",
			spec: JobSpec{
				Workload: WorkloadSpec{Kind: KindSeq, Bytes: "16K", Op: "store-nt"},
				Fault:    &fault.Spec{PowerFailCycle: 4000},
				Seed:     1,
			},
			sha:   "7500e03e37f0be584ea9981450bbce575277b8b9c9b2d8b73cd509ad1f0313bd",
			fired: 605, peak: 14,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunSpec(context.Background(), tc.spec)
			if err != nil {
				t.Fatalf("RunSpec: %v", err)
			}
			sum := sha256.Sum256(res.Canonical())
			p, err := tc.spec.Compile()
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			fired, peak, elapsed := goldenEngineCounts(t, p)
			if uint64(elapsed) != res.ElapsedCycles {
				t.Fatalf("recomposed replay elapsed %d cycles, Runner %d: the recomposition drifted from Runner",
					elapsed, res.ElapsedCycles)
			}
			got := fmt.Sprintf("sha=%s fired=%d peak=%d", hex.EncodeToString(sum[:]), fired, peak)
			want := fmt.Sprintf("sha=%s fired=%d peak=%d", tc.sha, tc.fired, tc.peak)
			if got != want {
				t.Fatalf("golden output changed\n got: %s\nwant: %s", got, want)
			}
		})
	}
}
