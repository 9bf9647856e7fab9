package server

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// forcePar raises GOMAXPROCS for the duration of the test so the engine's
// pool budget (GOMAXPROCS-1 extra workers) hands out tokens even on a
// single-CPU host; without it every parallel round would silently degrade to
// inline execution and these tests would not exercise the concurrent path.
func forcePar(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// runAtPar executes the compiled plan with the given intra-simulation
// parallelism and returns the canonical result bytes.
func runAtPar(t *testing.T, p *Plan, par int) (*Result, []byte) {
	t.Helper()
	rn := NewRunner()
	rn.SimParallel = par
	res, err := rn.Run(context.Background(), p)
	if err != nil {
		t.Fatalf("par %d: %v", par, err)
	}
	return res, res.Canonical()
}

// TestParallelByteIdentical is the engine-parallelism oracle at the service
// layer: every representative figure/table job shape must produce
// byte-identical canonical results (timings, counters, obs dump) on the
// serial engine and on the parallel engine at several -par levels. `make
// par-smoke` runs exactly this harness under -race.
func TestParallelByteIdentical(t *testing.T) {
	forcePar(t, 8)
	for key, spec := range figureShapes {
		spec := spec
		t.Run(key, func(t *testing.T) {
			p, err := spec.Compile()
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			ref, refBytes := runAtPar(t, p, 1)
			for _, par := range []int{2, 4} {
				res, got := runAtPar(t, p, par)
				if !bytes.Equal(refBytes, got) {
					t.Fatalf("par %d result differs from serial\nserial:   %s\nparallel: %s",
						par, refBytes, got)
				}
				if res.Hash != ref.Hash {
					t.Fatalf("par %d hash %s != serial hash %s", par, res.Hash, ref.Hash)
				}
			}
		})
	}
}

// TestSimParallelExcludedFromHash pins the contract that parallelism is an
// execution strategy, not a job parameter: the canonical plan hash and the
// result bytes are identical at every SimParallel setting, for plain runs,
// fault-injected runs, and the 6-DIMM interleaved shape, so the result cache
// may freely mix results computed at different parallelism levels.
func TestSimParallelExcludedFromHash(t *testing.T) {
	forcePar(t, 8)
	specs := map[string]JobSpec{
		"interleaved": {
			Config:   ConfigSpec{DIMMs: 6, Interleaved: true, MediaBytes: "8M"},
			Workload: WorkloadSpec{Kind: "seq", Bytes: "96K", Op: "store-nt"},
			Window:   8, Seed: 7,
		},
		// A power-fail job: the crash-consistency checker replays to a cut
		// cycle on the same sharded engine, so its report must be par-stable
		// too (this also covers the runPowerFail parallelism plumbing).
		"power-fail": {
			Config:   ConfigSpec{MediaBytes: "16M"},
			Workload: WorkloadSpec{Kind: "seq", Bytes: "64K", Op: "store"},
			Window:   4, Seed: 7,
			Fault: &fault.Spec{PowerFailCycle: 40000},
		},
		// A transient-fault retry: attempt 1 must succeed identically at any
		// parallelism.
		"transient-poison": {
			Config:   ConfigSpec{MediaBytes: "16M"},
			Workload: WorkloadSpec{Kind: "chase", Region: "64K", MaxSteps: 900},
			Seed:     7,
			Fault:    &fault.Spec{PoisonRate: 1, PoisonTransient: true},
		},
	}
	for name, spec := range specs {
		spec := spec
		t.Run(name, func(t *testing.T) {
			p, err := spec.Compile()
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			hash := p.Hash()
			var ref []byte
			for _, par := range []int{1, 4} {
				rn := NewRunner()
				rn.SimParallel = par
				res, err := rn.RunAttemptCkpt(context.Background(), p, 1, nil)
				if err != nil {
					t.Fatalf("par %d: %v", par, err)
				}
				if res.Hash != hash {
					t.Fatalf("par %d: result hash %s != plan hash %s", par, res.Hash, hash)
				}
				if ref == nil {
					ref = res.Canonical()
				} else if !bytes.Equal(ref, res.Canonical()) {
					t.Fatalf("par %d result differs:\nserial:   %s\nparallel: %s",
						par, ref, res.Canonical())
				}
			}
		})
	}
}

// TestParallelByteIdenticalPooledRecords guards the recycled hop records of
// the access path under concurrent cycle rounds: each DIMM, its on-DIMM DRAM
// and its iMC channel recycle records on their own shard while six channels
// run side by side. A uniform mix of loads, stores and non-temporal stores
// with periodic fences, interleaved across six DIMMs with a lowered wear
// threshold (so migrations stall media accesses), must give canonical bytes
// at SimParallel=2 equal to the serial run. `make par-smoke` runs it under
// -race.
func TestParallelByteIdenticalPooledRecords(t *testing.T) {
	forcePar(t, 4)
	rng := sim.NewRNG(23)
	var b strings.Builder
	for i := 0; i < 3000; i++ {
		if i%200 == 199 {
			b.WriteString("0 mfence 0x0 0\n")
			continue
		}
		op := "load"
		switch u := rng.Float64(); {
		case u < 0.35:
			op = "store"
		case u < 0.60:
			op = "store-nt"
		}
		fmt.Fprintf(&b, "0 %s 0x%x 64\n", op, rng.Uint64n(1<<22/64)*64)
	}
	spec := JobSpec{
		Config:   ConfigSpec{DIMMs: 6, Interleaved: true, MediaBytes: "16M", WearThreshold: 16},
		Workload: WorkloadSpec{Kind: KindTrace, Trace: b.String()},
		Window:   16,
		Seed:     5,
	}
	p, err := spec.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ref, refBytes := runAtPar(t, p, 1)
	res, got := runAtPar(t, p, 2)
	if !bytes.Equal(refBytes, got) {
		t.Fatalf("par 2 result differs from serial\nserial:   %s\nparallel: %s", refBytes, got)
	}
	if res.Hash != ref.Hash {
		t.Fatalf("par 2 hash %s != serial hash %s", res.Hash, ref.Hash)
	}
}
