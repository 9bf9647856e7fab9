package main

import (
	"fmt"
	"strings"

	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Seeded input generators. Every input a workload submits is a pure function
// of the benchmark seed, so the same seed gives byte-identical job specs;
// the program under test only ever sees the generated JobSpecs.

// mix derives an independent 64-bit stream seed from the benchmark seed and
// a salt (splitmix64 finalizer). Never returns 0, which JobSpec treats as
// "default seed".
func mix(seed, salt uint64) uint64 {
	z := seed + salt*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Shapes of the simulation workloads. Sizes are chosen so one job takes a
// few hundred host milliseconds on a current x86 core: long enough that
// per-job timing noise is small, short enough that a run completes several
// passes over every distinct job.
const (
	// distinctJobs is the number of distinct specs in one pass; passes
	// repeat them, which is what the result-digest gate compares.
	distinctJobs = 4

	// chase-ait: a 64M region is 4x the 16M the AIT buffer covers, so most
	// hops miss it.
	chaseRegion = "64M"
	chaseSteps  = 16384

	// write-mix: zipf-skewed 64B accesses over 16M of 6 interleaved DIMMs.
	writeLines     = 1 << 18
	writeAccesses  = 4096
	writeFenceGap  = 128 // an mfence every writeFenceGap records
	writeTheta     = 0.99
	writeWearLimit = 32 // media writes per 64KB block before a migration
	writeWindow    = 32
)

// cloudJobs is the cloud-mix rotation: three Section V cloud workloads and
// one SPEC bench, each captured through the cpu core. Instruction counts are
// set so every job costs about the same host time; with equal costs the
// median job time does not sit on the step between two job kinds.
var cloudJobs = [distinctJobs]struct {
	name         string
	instructions int
}{{"YCSB", 40000}, {"Redis", 90000}, {"TPCC", 20000}, {"mcf", 150000}}

// chaseSpecs returns chase-ait's distinct jobs: dependent pointer chases on
// one DIMM, one derived seed each.
func chaseSpecs(seed uint64) []server.JobSpec {
	specs := make([]server.JobSpec, distinctJobs)
	for i := range specs {
		specs[i] = server.JobSpec{
			Config:   server.ConfigSpec{DIMMs: 1, MediaBytes: "256M"},
			Workload: server.WorkloadSpec{Kind: server.KindChase, Region: chaseRegion, MaxSteps: chaseSteps},
			Window:   1,
			Seed:     mix(seed, uint64(100+i)),
		}
	}
	return specs
}

// writeSpecs returns write-mix's distinct jobs: inline traces replayed on six
// interleaved DIMMs with a lowered wear threshold so migrations fire.
func writeSpecs(seed uint64) []server.JobSpec {
	specs := make([]server.JobSpec, distinctJobs)
	for i := range specs {
		specs[i] = server.JobSpec{
			Config:   server.ConfigSpec{DIMMs: 6, Interleaved: true, WearThreshold: writeWearLimit},
			Workload: server.WorkloadSpec{Kind: server.KindTrace, Trace: writeTrace(mix(seed, uint64(200+i)))},
			Window:   writeWindow,
			Seed:     mix(seed, uint64(250+i)),
		}
	}
	return specs
}

// writeTrace renders one write-mix trace in the text format of
// internal/trace: 40% load, 35% store, 25% store-nt over zipf-hot lines,
// with hot lines scattered across the region (and so across DIMMs) by an
// odd-multiplier bijection.
func writeTrace(seed uint64) string {
	rng := sim.NewRNG(seed)
	z := workload.NewZipf(rng, writeLines, writeTheta)
	var b strings.Builder
	for i := 0; i < writeAccesses; i++ {
		if i%writeFenceGap == writeFenceGap-1 {
			b.WriteString("0 mfence 0x0 0\n")
			continue
		}
		line := (z.Next() * 0x9e3779b97f4a7c15) & (writeLines - 1)
		op := "load"
		switch u := rng.Float64(); {
		case u < 0.35:
			op = "store"
		case u < 0.60:
			op = "store-nt"
		}
		fmt.Fprintf(&b, "0 %s 0x%x 64\n", op, line*64)
	}
	return b.String()
}

// cloudSpecs returns cloud-mix's distinct jobs: one capture-then-replay job
// per rotation entry.
func cloudSpecs(seed uint64) []server.JobSpec {
	specs := make([]server.JobSpec, distinctJobs)
	for i := range specs {
		specs[i] = server.JobSpec{
			Workload: server.WorkloadSpec{Kind: server.KindCloud, Name: cloudJobs[i].name, Instructions: cloudJobs[i].instructions},
			Seed:     mix(seed, uint64(300+i)),
		}
	}
	return specs
}

// serve-mix shape: a hot catalogue the clients pick from with zipf skew, plus
// a stated share of never-repeated tail specs that must simulate.
const (
	hotSpecs      = 64
	serveAccesses = 1024
	hotTheta      = 0.99
	tailShare     = 0.04
	cacheSize     = 256
	queueDepth    = 64
)

// hotCatalogue returns serve-mix's hot set: small chase and seq jobs of
// varied shape, all distinct. Every hot and tail job issues serveAccesses
// accesses, so the work behind a request does not depend on the seed.
func hotCatalogue(seed uint64) []server.JobSpec {
	rng := sim.NewRNG(mix(seed, 400))
	regions := []string{"256K", "1M", "4M"}
	ops := []string{"load", "store", "store-nt"}
	specs := make([]server.JobSpec, hotSpecs)
	for i := range specs {
		s := server.JobSpec{Seed: rng.Uint64()%1_000_000 + 1}
		if i%2 == 0 {
			s.Workload = server.WorkloadSpec{Kind: server.KindChase,
				Region: regions[rng.Intn(len(regions))], MaxSteps: serveAccesses}
		} else {
			s.Workload = server.WorkloadSpec{Kind: server.KindSeq,
				Bytes: fmt.Sprint(serveAccesses * 64), Op: ops[rng.Intn(len(ops))]}
			s.Window = 8 + rng.Intn(24)
		}
		specs[i] = s
	}
	return specs
}

// tailSpec is the t-th tail pick of client c: a small chase whose seed no
// other pick shares, so it always misses the result cache.
func tailSpec(seed uint64, c, t int) server.JobSpec {
	return server.JobSpec{
		Workload: server.WorkloadSpec{Kind: server.KindChase, Region: "1M", MaxSteps: serveAccesses},
		Seed:     mix(seed, uint64(1)<<40|uint64(c)<<32|uint64(t)),
	}
}

// picker draws one client's request sequence: a hot-set index (zipf skewed)
// or, with probability tailShare, -1 for a fresh tail spec.
type picker struct {
	rng *sim.RNG
	hot *workload.Zipf
}

func newPicker(seed uint64, client int) *picker {
	rng := sim.NewRNG(mix(seed, uint64(500+client)))
	return &picker{rng: rng, hot: workload.NewZipf(rng, hotSpecs, hotTheta)}
}

func (p *picker) next() int {
	if p.rng.Float64() < tailShare {
		return -1
	}
	return int(p.hot.Next())
}
