package vans

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Recover models a power cycle: it boots a fresh System with the same
// configuration (new engine, cold volatile structures — LSQ, RMW buffer, AIT
// data buffer, WPQ, near cache) and transplants only the persistent remnants
// of each DIMM: the media functional image, the wear counters, and the AIT
// translation table. This is exactly the state ADR plus persistent metadata
// guarantee across power loss; everything else is truncated by construction.
//
// Fault injection does not survive the reboot — the recovered system reads
// back cleanly so the checker observes the true persistent image.
func (s *System) Recover() *System {
	cfg := s.cfg
	cfg.Fault = fault.Spec{}
	fresh := New(cfg)
	for i, d := range fresh.dimms {
		d.AdoptPersistent(s.dimms[i])
	}
	return fresh
}

// CheckPowerFail runs accs against a fresh system built from cfg, cuts power
// at engine cycle cut, recovers, and verifies the ADR contract: the
// persistent image after recovery holds exactly the writes the iMC accepted
// before the cut — the final payload of every accepted line (nothing lost or
// torn) and zeroes on every line only unaccepted writes touched (nothing
// ghost). Write payloads are filled deterministically from seed, so any torn
// or stale byte is a detected mismatch.
//
// The check is functional by necessity and App Direct by definition (Memory
// mode offers no persistence to check).
func CheckPowerFail(cfg Config, accs []mem.Access, window int, cut sim.Cycle, seed uint64) (fault.CrashReport, error) {
	if cfg.Mode == MemoryMode {
		return fault.CrashReport{}, fmt.Errorf("vans: crash-consistency check requires App Direct mode")
	}
	cfg.Functional = true
	// Work on a copy: FillPayloads mutates, and the caller may reuse accs.
	run := make([]mem.Access, len(accs))
	copy(run, accs)
	fault.FillPayloads(run, seed)

	sys := New(cfg)
	led := fault.RunToCut(sys, run, window, cut)
	rec := sys.Recover()
	mism := led.Verify(rec.ReadData)

	return fault.CrashReport{
		CutCycle:       uint64(cut),
		EndCycle:       uint64(led.EndCycle()),
		AcceptedWrites: led.Accepted(),
		LostWrites:     led.Lost(),
		DurableLines:   led.DurableLines(),
		Consistent:     len(mism) == 0,
		Mismatches:     mism,
	}, nil
}
