package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bottleneck"
)

// hotspotTrace builds an overwrite loop hammering one 64B line with fences,
// so a tiny wear threshold forces block migrations.
func hotspotTrace(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d store 0x0 64\n%d mfence 0x0 0\n", 2*i, 2*i+1)
	}
	return b.String()
}

// goldenVerdicts pins the three canonical workload->regime mappings from the
// paper's attribution story.
func TestGoldenVerdicts(t *testing.T) {
	cases := []struct {
		name   string
		spec   JobSpec
		regime string
	}{
		{
			// Non-temporal write burst: latency accumulates waiting in the
			// WPQ/LSQ drain path.
			name: "write-burst",
			spec: JobSpec{
				Workload: WorkloadSpec{Kind: KindSeq, Bytes: "256K", Op: "store-nt"},
				Window:   10, Seed: 1,
			},
			regime: bottleneck.RegimeWPQ,
		},
		{
			// Pointer chase over a footprint far past AIT coverage: nearly
			// every access misses the on-DIMM address-translation buffer.
			name: "ait-miss-chase",
			spec: JobSpec{
				Config:   ConfigSpec{MediaBytes: "256M"},
				Workload: WorkloadSpec{Kind: KindChase, Region: "64M", MaxSteps: 20000},
				Window:   10, Seed: 1,
			},
			regime: bottleneck.RegimeAIT,
		},
		{
			// Hotspot overwrite loop with a tiny wear threshold: migration
			// stalls dominate the attributed time.
			name: "wear-hotspot",
			spec: JobSpec{
				Config:   ConfigSpec{WearThreshold: 50},
				Workload: WorkloadSpec{Kind: KindTrace, Trace: hotspotTrace(200)},
				Window:   10, Seed: 1,
			},
			regime: bottleneck.RegimeWear,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.spec.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			res, err := NewRunner().RunAttemptCkpt(context.Background(), p, 0, nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Verdict == nil {
				t.Fatal("run produced no verdict")
			}
			if res.Verdict.Regime != tc.regime {
				t.Fatalf("regime = %q, want %q\n%s",
					res.Verdict.Regime, tc.regime, res.Verdict)
			}
		})
	}
}
