package lens

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/mem"
	"repro/internal/vans"
	"repro/internal/workload"
)

// scaledConfig returns a VANS config with shrunken buffers so LENS sweeps
// stay fast: RMW 4KB (16 x 256B), AIT 256KB (64 x 4KB), LSQ 1KB, WPQ 512B.
func scaledConfig() vans.Config {
	cfg := vans.DefaultConfig()
	cfg.NV.RMWEntries = 16
	cfg.NV.AITEntries = 64
	cfg.NV.AITWays = 8
	cfg.NV.LSQSlots = 16
	cfg.NV.Media.Capacity = 16 << 20
	return cfg
}

func makeScaled(cfg vans.Config) MakeSystem {
	return func() mem.System { return vans.New(cfg) }
}

func testOptions() Options {
	return Options{MaxSteps: 3000, WarmPasses: 1, Window: 8, Seed: 42}
}

func TestBufferProberRecoversVANSReadBuffers(t *testing.T) {
	cfg := scaledConfig()
	bp := BufferProberConfig{
		Regions:      analysis.LogSpace(512, 2<<20, 2),
		BlockSizes:   analysis.LogSpace(64, 8<<10, 2),
		KneeRatio:    1.25,
		MaxReadKnees: 2,
		Options:      testOptions(),
	}
	rep := BufferProber(makeScaled(cfg), bp)
	if len(rep.ReadBufferBytes) != 2 {
		t.Fatalf("read buffers = %v, want 2", rep.ReadBufferBytes)
	}
	// RMW = 4KB, AIT = 256KB; allow one log2 step of slack.
	within2x := func(got, want uint64) bool { return got >= want/2 && got <= want*2 }
	if !within2x(rep.ReadBufferBytes[0], cfg.NV.RMWBytes()) {
		t.Errorf("first read buffer = %d, want ~%d", rep.ReadBufferBytes[0], cfg.NV.RMWBytes())
	}
	if !within2x(rep.ReadBufferBytes[1], cfg.NV.AITBytes()) {
		t.Errorf("second read buffer = %d, want ~%d", rep.ReadBufferBytes[1], cfg.NV.AITBytes())
	}
	// The paper's key finding: the buffers form an inclusive hierarchy.
	if !rep.InclusiveHierarchy {
		t.Error("hierarchy not detected as inclusive")
	}
}

func TestBufferProberRecoversGranularity(t *testing.T) {
	cfg := scaledConfig()
	bp := BufferProberConfig{
		Regions:      analysis.LogSpace(512, 2<<20, 2),
		BlockSizes:   analysis.LogSpace(64, 8<<10, 2),
		KneeRatio:    1.25,
		MaxReadKnees: 2,
		Options:      testOptions(),
	}
	rep := BufferProber(makeScaled(cfg), bp)
	if len(rep.ReadGranularity) < 1 {
		t.Fatalf("no granularities: %v", rep.ReadGranularity)
	}
	// RMW granularity: 256B (one log2 step of slack).
	if g := rep.ReadGranularity[0]; g < 128 || g > 512 {
		t.Errorf("RMW granularity = %d, want ~256", g)
	}
	if len(rep.ReadGranularity) > 1 {
		if g := rep.ReadGranularity[1]; g < 2048 {
			t.Errorf("AIT granularity = %d, want ~4096", g)
		}
	}
}

func TestWriteKneesDetected(t *testing.T) {
	cfg := scaledConfig()
	bp := BufferProberConfig{
		Regions:      analysis.LogSpace(256, 64<<10, 2),
		BlockSizes:   []uint64{64},
		KneeRatio:    1.2,
		MaxReadKnees: 2,
		Options:      testOptions(),
	}
	rep := BufferProber(makeScaled(cfg), bp)
	if len(rep.WriteBufferBytes) == 0 {
		t.Fatalf("no write knees: curve\n%s", rep.WriteCurve)
	}
	// WPQ 512B and LSQ 1KB are adjacent; at minimum the small-queue knee
	// must sit at or below 2KB.
	if rep.WriteBufferBytes[0] > 2048 {
		t.Errorf("first write knee = %d, want <= 2048; curve\n%s",
			rep.WriteBufferBytes[0], rep.WriteCurve)
	}
}

func TestPolicyProberMigrationParameters(t *testing.T) {
	cfg := scaledConfig()
	cfg.NV.WearThreshold = 50
	cfg.NV.MigrationNs = 30000
	mk := makeScaled(cfg)
	pc := PolicyProberConfig{
		OverwriteIters: 400,
		TailFactor:     8,
		Regions:        analysis.LogSpace(256, 4<<10, 2),
		SeqSizes:       analysis.LogSpace(1<<10, 8<<10, 2),
		Options:        testOptions(),
	}
	rep := PolicyProber(mk, pc)
	if rep.MigrationIntervalIters < 25 || rep.MigrationIntervalIters > 100 {
		t.Errorf("migration interval = %.0f iters, want ~50", rep.MigrationIntervalIters)
	}
	if rep.MigrationLatencyNs < 10000 {
		t.Errorf("migration latency = %.0f ns, want ~30000", rep.MigrationLatencyNs)
	}
	if rep.NormalIterNs <= 0 || rep.MigrationLatencyNs < 10*rep.NormalIterNs {
		t.Errorf("tail (%.0f) not >> normal (%.0f)", rep.MigrationLatencyNs, rep.NormalIterNs)
	}
}

func TestPolicyProberDetectsInterleaving(t *testing.T) {
	inter := scaledConfig()
	inter.DIMMs = 6
	inter.Interleaved = true
	pc := PolicyProberConfig{
		OverwriteIters: 60,
		TailFactor:     8,
		Regions:        []uint64{256},
		SeqSizes:       analysis.LogSpace(1<<10, 32<<10, 2),
		Options:        testOptions(),
	}
	rep := PolicyProber(makeScaled(inter), pc)
	if rep.InterleaveBytes == 0 {
		t.Fatalf("interleaving not detected; curve\n%s", rep.SeqWriteCurve)
	}
	if rep.InterleaveBytes < 2048 || rep.InterleaveBytes > 8192 {
		t.Errorf("interleave granularity = %d, want ~4096; curve\n%s",
			rep.InterleaveBytes, rep.SeqWriteCurve)
	}

	// Non-interleaved single DIMM: no interleaving detected.
	single := scaledConfig()
	rep2 := PolicyProber(makeScaled(single), pc)
	if rep2.InterleaveBytes != 0 && rep2.InterleaveBytes < 16<<10 {
		t.Errorf("spurious interleave detection: %d; curve\n%s",
			rep2.InterleaveBytes, rep2.SeqWriteCurve)
	}
}

func TestPerfProberBandwidthOrdering(t *testing.T) {
	cfg := scaledConfig()
	mk := makeScaled(cfg)
	rep := PerfProber(mk, BufferReport{ReadBufferBytes: []uint64{4 << 10, 256 << 10}},
		testOptions())
	if rep.LoadGBs <= 0 || rep.StoreNTGBs <= 0 {
		t.Fatalf("bandwidths not positive: %+v", rep)
	}
	if len(rep.TierLatenciesNs) != 3 {
		t.Fatalf("tier latencies = %v, want 3 tiers", rep.TierLatenciesNs)
	}
	// Tier latencies increase down the hierarchy.
	if !(rep.TierLatenciesNs[0] < rep.TierLatenciesNs[1] &&
		rep.TierLatenciesNs[1] < rep.TierLatenciesNs[2]) {
		t.Errorf("tier latencies not increasing: %v", rep.TierLatenciesNs)
	}
}

func TestRaWSlowerThanRPlusWOnSmallRegions(t *testing.T) {
	// Figure 5c: RaW >> R+W for small PC-Regions on Optane-like systems.
	cfg := scaledConfig()
	res := ReadAfterWrite(makeScaled(cfg), 512, testOptions())
	if res.RaWNs <= res.RPlusWNs {
		t.Errorf("RaW (%.0f) not above R+W (%.0f) at 512B", res.RaWNs, res.RPlusWNs)
	}
}

func TestPMEPShowsNoKnees(t *testing.T) {
	mk := func() mem.System { return baseline.NewPMEP(baseline.DefaultPMEP(), 1) }
	curve := PtrChaseSweep(mk, analysis.LogSpace(512, 1<<20, 4), 64, mem.OpRead, testOptions())
	if ks := analysis.Knees(curve, 1.25); len(ks) != 0 {
		t.Errorf("PMEP shows buffer knees %v; curve\n%s", ks, curve)
	}
}

func TestCharacterizeEndToEnd(t *testing.T) {
	cfg := scaledConfig()
	cfg.NV.WearThreshold = 50
	bp := BufferProberConfig{
		Regions:      analysis.LogSpace(512, 1<<20, 2),
		BlockSizes:   analysis.LogSpace(64, 1<<10, 2),
		KneeRatio:    1.25,
		MaxReadKnees: 2,
		Options:      testOptions(),
	}
	pc := PolicyProberConfig{
		OverwriteIters: 200,
		TailFactor:     8,
		Regions:        analysis.LogSpace(256, 2<<10, 2),
		SeqSizes:       analysis.LogSpace(1<<10, 8<<10, 2),
		Options:        testOptions(),
	}
	c := Characterize(makeScaled(cfg), bp, pc)
	rep := c.Report()
	for _, want := range []string{"Read buffers", "Wear-leveling", "Bandwidth"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestCapabilityTables(t *testing.T) {
	cm := CapabilityMatrix()
	if len(cm.Rows) != 4 {
		t.Fatalf("capability rows = %d", len(cm.Rows))
	}
	ov := Overview()
	if len(ov.Rows) != 8 {
		t.Fatalf("overview rows = %d", len(ov.Rows))
	}
	if !strings.Contains(cm.String(), "LENS") {
		t.Fatal("capability matrix missing LENS")
	}
}

func TestChaseAccessesShape(t *testing.T) {
	accs := workload.ChaseBlocks(1024, 256, mem.OpRead, 64, 1)
	if len(accs) != 64 {
		t.Fatalf("len = %d", len(accs))
	}
	// Within a block, accesses are sequential 64B lines.
	for i := 1; i < 4; i++ {
		if accs[i].Addr != accs[0].Addr+uint64(i)*64 {
			t.Fatalf("intra-block not sequential: %v", accs[:4])
		}
	}
	// All addresses inside the region.
	for _, a := range accs {
		if a.Addr >= 1024 {
			t.Fatalf("address %d outside region", a.Addr)
		}
	}
}
