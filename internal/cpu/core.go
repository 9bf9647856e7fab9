package cpu

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Stats summarizes one run of the core.
type Stats struct {
	Instructions uint64
	Cycles       sim.Cycle // engine cycles (0.75 ns each)
	Loads        uint64
	Stores       uint64
	Fences       uint64

	L1    cache.Stats
	L2    cache.Stats
	L3    cache.Stats
	DTLB  cache.Stats
	STLB  cache.Stats
	Walks uint64

	// MemReads / MemWrites count requests sent to the memory system.
	MemReads  uint64
	MemWrites uint64

	// ClassCycles attributes retire time to instruction classes.
	ClassCycles [numClasses]sim.Cycle
	// ClassInstrs counts instructions per class.
	ClassInstrs [numClasses]uint64

	// ClassLLCMisses / ClassTLBMisses attribute misses to classes
	// (Figure 12a's per-operation analysis).
	ClassLLCMisses [numClasses]uint64
	ClassTLBMisses [numClasses]uint64

	// RLBHits / PreTransHits / PreTransStale count Pre-translation events.
	RLBHits       uint64
	PreTransHits  uint64
	PreTransStale uint64
	MkptMarked    uint64
}

// IPC returns instructions per core cycle.
func (s Stats) IPC(coreGHz float64) float64 {
	if s.Cycles == 0 {
		return 0
	}
	coreCycles := float64(s.Cycles) * coreGHz * 1000 / 1333.0
	return float64(s.Instructions) / coreCycles
}

// LLCMissRate returns L3 misses / L3 references.
func (s Stats) LLCMissRate() float64 { return s.L3.MissRate() }

// LLCMPKI returns L3 misses per thousand instructions.
func (s Stats) LLCMPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L3.Misses) / float64(s.Instructions) * 1000
}

// STLBMPKI returns second-level TLB misses per thousand instructions.
func (s Stats) STLBMPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.STLB.Misses) / float64(s.Instructions) * 1000
}

// Core is the window-based out-of-order timing model bound to one memory
// system.
type Core struct {
	cfg Config
	cyc cpucycles
	sys mem.System
	eng *sim.Engine

	l1, l2, l3 *cache.Cache
	dtlb, stlb *cache.TLB

	rlb      *RLB
	preTrans PreTransPort

	// retireRing holds completion tokens of the last ROB instructions.
	retireRing []*token
	// dispatchF is the fractional dispatch clock in engine cycles.
	dispatchF float64
	// lastLoad is the most recent load's completion token (dep chains).
	lastLoad *token
	// outstanding counts memory misses in flight (MSHR limit).
	outstanding int

	nextID uint64
	stats  Stats
}

// token tracks one instruction's completion.
type token struct {
	done bool
	at   sim.Cycle
}

// PreTransPort abstracts the DIMM-side pre-translation table lookup for a
// physical address (implemented by vans.System when the optimization is on).
type PreTransPort interface {
	// Lookup returns the recorded pointee page frame for paddr.
	Lookup(paddr uint64) (pfn uint64, ok bool)
	// Update records paddr -> pfn.
	Update(paddr, pfn uint64)
	// ExtraLatency is the added DRAM cost of fetching the entry with data.
	ExtraLatency() sim.Cycle
}

// New builds a core over sys with cfg (zero value defaulted).
func New(cfg Config, sys mem.System) *Core {
	if cfg.WidthIssue == 0 {
		cfg = DefaultConfig()
	}
	c := &Core{
		cfg:  cfg,
		cyc:  cfg.cycles(),
		sys:  sys,
		eng:  sys.Engine(),
		l1:   cache.New(cfg.L1),
		l2:   cache.New(cfg.L2),
		l3:   cache.New(cfg.L3),
		dtlb: cache.NewTLB(cfg.DTLBEntries, cfg.DTLBWays, cfg.PageSize),
		stlb: cache.NewTLB(cfg.STLBEntries, cfg.STLBWays, cfg.PageSize),
	}
	c.retireRing = make([]*token, cfg.ROB)
	if cfg.RLBEntries > 0 {
		c.rlb = NewRLB(cfg.RLBEntries)
	}
	return c
}

// AttachPreTrans connects the DIMM-side pre-translation table (Pre-
// translation is active only when both the RLB and the port are present).
func (c *Core) AttachPreTrans(p PreTransPort) { c.preTrans = p }

// Stats returns a snapshot including cache/TLB counters.
func (c *Core) Stats() Stats {
	s := c.stats
	s.L1 = c.l1.Stats()
	s.L2 = c.l2.Stats()
	s.L3 = c.l3.Stats()
	s.DTLB = c.dtlb.Stats()
	s.STLB = c.stlb.Stats()
	return s
}

// resolve runs the engine until tok completes.
func (c *Core) resolve(tok *token) sim.Cycle {
	if !tok.done {
		c.eng.RunWhile(func() bool { return !tok.done })
		if !tok.done {
			panic("cpu: token never resolved (memory model deadlock)")
		}
	}
	return tok.at
}

// immediate returns a resolved token.
func immediate(at sim.Cycle) *token { return &token{done: true, at: at} }

// submitRetry submits r until accepted, advancing the engine under
// backpressure.
func (c *Core) submitRetry(r *mem.Request) {
	for !c.sys.Submit(r) {
		c.eng.Step()
		if c.eng.Pending() == 0 && !c.sys.Submit(r) {
			panic("cpu: memory system rejected request with no pending events")
		}
	}
}

// memRead issues a cache-line read at no earlier than `at`, returning a
// completion token. Counts against MSHRs.
func (c *Core) memRead(addr uint64, at sim.Cycle) *token {
	c.waitMSHR()
	if c.eng.Now() < at {
		c.eng.RunUntil(at)
	}
	tok := &token{}
	c.nextID++
	c.outstanding++
	c.stats.MemReads++
	r := &mem.Request{ID: c.nextID, Op: mem.OpRead, Addr: addr, Size: 64,
		OnDone: func(rq *mem.Request) {
			c.outstanding--
			tok.done = true
			tok.at = rq.Done
		}}
	c.submitRetry(r)
	return tok
}

// memWrite posts a cache-line write (write-back traffic or NT store).
func (c *Core) memWrite(addr uint64, op mem.Op, at sim.Cycle) *token {
	c.waitMSHR()
	if c.eng.Now() < at {
		c.eng.RunUntil(at)
	}
	tok := &token{}
	c.nextID++
	c.outstanding++
	c.stats.MemWrites++
	r := &mem.Request{ID: c.nextID, Op: op, Addr: addr, Size: 64,
		OnDone: func(rq *mem.Request) {
			c.outstanding--
			tok.done = true
			tok.at = rq.Done
		}}
	c.submitRetry(r)
	return tok
}

// waitMSHR blocks until a miss slot is free.
func (c *Core) waitMSHR() {
	for c.outstanding >= c.cfg.MSHRs {
		if !c.eng.Step() {
			panic("cpu: every MSHR busy with no pending events")
		}
	}
}

// translate performs the TLB lookup chain at time `at` and returns the
// post-translation time.
func (c *Core) translate(addr uint64, at sim.Cycle, class InstrClass) sim.Cycle {
	if c.dtlb.Lookup(addr) {
		return at
	}
	at += c.cyc.stlb
	if c.stlb.Lookup(addr) {
		c.dtlb.Insert(addr)
		return at
	}
	// Page walk: fixed-cost walk (page-table lines usually cache-resident).
	c.stats.Walks++
	c.stats.ClassTLBMisses[class]++
	at += c.cyc.walk
	c.stlb.Insert(addr)
	c.dtlb.Insert(addr)
	return at
}

// lookupHierarchy walks L1->L2->L3, filling on hit path, and returns either
// (latency, nil) for a hit or (latency-so-far, missToken) after issuing the
// memory read.
func (c *Core) loadPath(addr uint64, at sim.Cycle, class InstrClass) *token {
	line := addr &^ 63
	if c.l1.Access(line, false) {
		return immediate(at + c.cyc.l1)
	}
	at += c.cyc.l1
	if c.l2.Access(line, false) {
		c.fillL1(line, false)
		return immediate(at + c.cyc.l2)
	}
	at += c.cyc.l2
	if c.l3.Access(line, false) {
		c.fillL1(line, false)
		c.l2.Fill(line, false)
		return immediate(at + c.cyc.l3)
	}
	at += c.cyc.l3
	c.stats.ClassLLCMisses[class]++
	miss := c.memRead(line, at)
	// The line installs when data arrives; approximate by installing now
	// (timing of subsequent hits is unaffected at this model fidelity).
	c.fillHierarchy(line, false)
	return miss
}

// fillL1 installs a line into L1, pushing dirty victims down.
func (c *Core) fillL1(line uint64, dirty bool) {
	if v, ev := c.l1.Fill(line, dirty); ev && v.Dirty {
		if v2, ev2 := c.l2.Fill(v.Addr, true); ev2 && v2.Dirty {
			c.spillL3(v2.Addr)
		}
	}
}

// fillHierarchy installs a line into all levels (miss fill).
func (c *Core) fillHierarchy(line uint64, dirty bool) {
	c.fillL1(line, dirty)
	if v, ev := c.l2.Fill(line, false); ev && v.Dirty {
		c.spillL3(v.Addr)
	}
	if v, ev := c.l3.Fill(line, false); ev && v.Dirty {
		c.memWrite(v.Addr, mem.OpWrite, c.eng.Now())
	}
}

// spillL3 pushes a dirty L2 victim into L3, spilling to memory if L3
// displaces a dirty line.
func (c *Core) spillL3(line uint64) {
	if v, ev := c.l3.Fill(line, true); ev && v.Dirty {
		c.memWrite(v.Addr, mem.OpWrite, c.eng.Now())
	}
}

// storePath handles a cached store (write-allocate, RFO on miss). Stores
// complete into the store buffer immediately; misses generate traffic.
func (c *Core) storePath(addr uint64, at sim.Cycle) {
	line := addr &^ 63
	if c.l1.Access(line, true) {
		return
	}
	if c.l2.Access(line, true) {
		c.fillL1(line, true)
		return
	}
	if c.l3.Access(line, true) {
		c.fillL1(line, true)
		c.l2.Fill(line, false)
		return
	}
	// RFO: fetch ownership from memory; traffic matters, the store itself
	// retires from the store buffer.
	c.memRead(line, at)
	c.fillHierarchy(line, true)
}

// Run executes the workload to completion and returns the statistics.
func (c *Core) Run(w Workload) Stats {
	start := c.eng.Now()
	robIdx := 0
	c.dispatchF = float64(start)
	prevRetire := start
	var pending []pendingRetire
	for {
		in, ok := w.Next()
		if !ok {
			break
		}
		c.stats.Instructions++
		c.stats.ClassInstrs[in.Class]++

		// ROB window: dispatch cannot pass retirement of the instruction
		// ROB slots earlier.
		c.dispatchF += c.cyc.perInstr
		if old := c.retireRing[robIdx]; old != nil {
			if at := c.resolve(old); float64(at) > c.dispatchF {
				c.dispatchF = float64(at)
			}
		}
		dispatch := sim.Cycle(c.dispatchF)

		var done *token
		switch {
		case in.Fence:
			c.stats.Fences++
			tok := &token{}
			c.nextID++
			r := &mem.Request{ID: c.nextID, Op: mem.OpFence,
				OnDone: func(rq *mem.Request) {
					tok.done = true
					tok.at = rq.Done
				}}
			if c.eng.Now() < dispatch {
				c.eng.RunUntil(dispatch)
			}
			c.submitRetry(r)
			at := c.resolve(tok)
			// Fences serialize dispatch.
			if float64(at) > c.dispatchF {
				c.dispatchF = float64(at)
			}
			done = immediate(at)

		case in.IsMem && in.IsLoad:
			c.stats.Loads++
			issue := dispatch
			if in.DependsOnLoad && c.lastLoad != nil {
				if at := c.resolve(c.lastLoad); at > issue {
					issue = at
				}
			}
			issue = c.translate(in.Addr, issue, in.Class)
			tok := c.loadPath(in.Addr, issue, in.Class)
			if in.Mkpt {
				tok = c.mkptLoad(in, tok)
			}
			c.lastLoad = tok
			done = tok

		case in.IsMem && in.NT:
			c.stats.Stores++
			issue := dispatch
			if in.DependsOnLoad && c.lastLoad != nil {
				if at := c.resolve(c.lastLoad); at > issue {
					issue = at
				}
			}
			issue = c.translate(in.Addr, issue, in.Class)
			done = c.memWrite(in.Addr, mem.OpWriteNT, issue)

		case in.IsMem && in.Clwb:
			c.stats.Stores++
			issue := c.translate(in.Addr, dispatch, in.Class)
			line := in.Addr &^ 63
			// clwb leaves the line resident but clean; the write-back goes
			// to the memory system either way in this model.
			c.l1.Invalidate(line)
			done = c.memWrite(line, mem.OpClwb, issue)

		case in.IsMem:
			c.stats.Stores++
			issue := dispatch
			if in.DependsOnLoad && c.lastLoad != nil {
				if at := c.resolve(c.lastLoad); at > issue {
					issue = at
				}
			}
			issue = c.translate(in.Addr, issue, in.Class)
			c.storePath(in.Addr, issue)
			done = immediate(issue + c.cyc.l1)

		default:
			done = immediate(dispatch + sim.Cycle(c.cyc.coreCycle))
		}

		c.retireRing[robIdx] = done
		robIdx = (robIdx + 1) % len(c.retireRing)

		// In-order retirement attribution is deferred so outstanding loads
		// overlap (memory-level parallelism); tokens resolve lazily.
		pending = append(pending, pendingRetire{class: in.Class, tok: done})
		if len(pending) >= 4*len(c.retireRing) {
			prevRetire = c.drainRetire(pending, prevRetire)
			pending = pending[:0]
		}
	}
	prevRetire = c.drainRetire(pending, prevRetire)
	// Drain outstanding background traffic.
	for c.outstanding > 0 {
		if !c.eng.Step() {
			panic("cpu: requests outstanding with no pending events")
		}
	}
	if prevRetire > c.eng.Now() {
		c.eng.RunUntil(prevRetire)
	}
	c.stats.Cycles = c.eng.Now() - start
	return c.Stats()
}

// pendingRetire defers in-order retirement accounting.
type pendingRetire struct {
	class InstrClass
	tok   *token
}

// drainRetire resolves queued retirements in order and attributes cycles.
func (c *Core) drainRetire(pending []pendingRetire, prevRetire sim.Cycle) sim.Cycle {
	for _, p := range pending {
		at := c.resolve(p.tok)
		if at < prevRetire {
			at = prevRetire
		}
		c.stats.ClassCycles[p.class] += at - prevRetire
		prevRetire = at
	}
	return prevRetire
}
