package nvdimm

import (
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stats aggregates DIMM-internal activity for validation experiments.
type Stats struct {
	ClientReads  uint64
	ClientWrites uint64
	LSQForwards  uint64 // reads served by LSQ data fast-forward
	LSQMerges    uint64
	LSQStalls    uint64 // write accepts rejected for a full LSQ
	RMWHits      uint64
	RMWMisses    uint64
	PartialRMW   uint64 // partial-block writes that required a fill read
	AITHits      uint64
	AITLineMiss  uint64
	AITSectorMis uint64
	TableReads   uint64
	MediaStalls  uint64 // accesses delayed by an in-progress migration
	Migrations   uint64
	MediaPoison  uint64 // injected uncorrectable media read errors
	FaultStalls  uint64 // injected AIT stall spikes
}

// DIMM is one Optane DIMM: LSQ + RMW buffer + AIT (translation table and
// data buffer in on-DIMM DRAM) + wear-leveler + 3D-XPoint media. The iMC
// talks to it through Read / AcceptWrite / Flush; a standalone mem.System
// adapter is provided for unit tests and single-DIMM experiments.
type DIMM struct {
	eng *sim.Engine
	cfg Config
	cyc cycles

	lsq   *LSQ
	rmw   *RMWBuffer
	buf   *AITBuffer
	trans *Translator
	wear  *WearLeveler
	med   *media.XPoint
	dramC *dram.Controller
	inj   *fault.Injector

	// rmwFree serializes the RMW buffer port.
	rmwFree sim.Cycle

	// draining marks the LSQ drain engine as scheduled.
	draining bool
	// flushing forces drain regardless of age/occupancy thresholds.
	flushing int

	readsInFlight  int
	writesInFlight int // accepted into LSQ but not yet durable at AIT/media
	mediaInFlight  int // outstanding media accesses (fills + demand)

	// lazy is the optional Lazy cache optimization (nil when disabled).
	lazy *LazyCache
	// pretrans is the optional pre-translation table support (nil when
	// disabled); consulted by the Pre-translation read path.
	pretrans *PreTransTable

	stats Stats

	o    *obs.Obs
	comp string
	// histLSQWait records LSQ residency (enqueue -> drain pop) and histAIT
	// the full AIT operation latency (lookup through buffer/media service),
	// both in ns; nil when no Obs is attached so the hot path skips them.
	histLSQWait *obs.Histogram
	histAIT     *obs.Histogram
}

// dramRegion layout inside the on-DIMM DRAM: translation table first, then
// the AIT data buffer.
const (
	tableEntryBytes = 8
	tableBase       = uint64(0)
	dataBase        = uint64(256 << 20) // leave generous room for the table
)

// New constructs a DIMM on eng with cfg (zero fields defaulted) and a
// deterministic seed for wear-leveling partner selection.
func New(eng *sim.Engine, cfg Config, seed uint64) *DIMM {
	cfg = cfg.withDefaults()
	cfg.Media.Functional = cfg.Media.Functional || cfg.Functional
	comp := cfg.ObsName
	if comp == "" {
		comp = "dimm"
	}
	if cfg.Obs != nil {
		cfg.Media.Obs = cfg.Obs
		cfg.Media.ObsName = comp + "/media"
		cfg.DRAM.Obs = cfg.Obs
		cfg.DRAM.ObsName = comp + "/dram"
	}
	med := media.New(eng, cfg.Media)
	trans := NewTranslator(cfg.AITLine, med.Config().Capacity)
	cyc := cfg.cycles()
	d := &DIMM{
		eng:   eng,
		cfg:   cfg,
		cyc:   cyc,
		lsq:   NewLSQ(cfg.LSQSlots, cfg.LSQCombineBlock),
		rmw:   NewRMWBuffer(cfg.RMWEntries),
		buf:   NewAITBuffer(cfg.AITEntries, cfg.AITWays, cfg.AITLine, cfg.RMWBlock),
		trans: trans,
		med:   med,
		dramC: dram.NewController(eng, cfg.DRAM),
		inj:   cfg.Injector,
	}
	d.wear = NewWearLeveler(eng, med, trans, cfg.WearThreshold, cyc.migration, seed)
	if cfg.Obs != nil {
		d.o = cfg.Obs
		d.comp = comp
		d.wear.o = cfg.Obs
		d.wear.comp = comp + "/wear"
		o := cfg.Obs
		o.RegisterPtr(comp, "client_reads", &d.stats.ClientReads)
		o.RegisterPtr(comp, "client_writes", &d.stats.ClientWrites)
		o.RegisterPtr(comp, "lsq_forwards", &d.stats.LSQForwards)
		o.RegisterPtr(comp, "lsq_stalls", &d.stats.LSQStalls)
		o.RegisterPtr(comp, "rmw_partials", &d.stats.PartialRMW)
		o.RegisterPtr(comp, "ait_table_reads", &d.stats.TableReads)
		o.RegisterPtr(comp, "media_stalls", &d.stats.MediaStalls)
		o.RegisterPtr(comp, "media_poison", &d.stats.MediaPoison)
		o.RegisterPtr(comp, "fault_stalls", &d.stats.FaultStalls)
		o.RegisterFunc(comp, "lsq_merges", d.lsq.Merges)
		o.RegisterFunc(comp, "rmw_hits", d.rmw.Hits)
		o.RegisterFunc(comp, "rmw_misses", d.rmw.Misses)
		o.RegisterFunc(comp, "ait_hits", d.buf.Hits)
		o.RegisterFunc(comp, "ait_line_misses", d.buf.Misses)
		o.RegisterFunc(comp, "ait_sector_misses", d.buf.SectorMisses)
		o.RegisterFunc(d.wear.comp, "migrations", d.wear.Migrations)
		d.histLSQWait = o.Histogram(comp, "lsq_wait_ns", nil)
		d.histAIT = o.Histogram(comp, "ait_ns", nil)
		d.wear.histMig = o.Histogram(d.wear.comp, "migration_ns", nil)
	}
	return d
}

// Config returns the effective configuration.
func (d *DIMM) Config() Config { return d.cfg }

// Stats returns a snapshot of the counters (wear migrations included).
func (d *DIMM) Stats() Stats {
	s := d.stats
	s.LSQMerges = d.lsq.Merges()
	s.RMWHits = d.rmw.Hits()
	s.RMWMisses = d.rmw.Misses()
	s.AITHits = d.buf.Hits()
	s.AITLineMiss = d.buf.Misses()
	s.AITSectorMis = d.buf.SectorMisses()
	s.Migrations = d.wear.Migrations()
	return s
}

// Media exposes the media model (read-only use: wear and traffic counters).
func (d *DIMM) Media() *media.XPoint { return d.med }

// DRAM exposes the on-DIMM DRAM controller (command-trace verification).
func (d *DIMM) DRAM() *dram.Controller { return d.dramC }

// Wear exposes the wear-leveler (migration event analysis).
func (d *DIMM) Wear() *WearLeveler { return d.wear }

// Translator exposes the AIT translation state (property tests).
func (d *DIMM) Translator() *Translator { return d.trans }

// Busy reports in-flight work (reads, undrained writes, pending flushes).
func (d *DIMM) Busy() bool {
	return d.readsInFlight > 0 || d.writesInFlight > 0 || !d.lsq.Empty() || d.flushing > 0
}

// block aligns an address to the DIMM-internal 256B granularity.
func (d *DIMM) block(addr uint64) uint64 { return addr - addr%d.cfg.RMWBlock }

// page returns the AIT page number of an address.
func (d *DIMM) page(addr uint64) uint64 { return addr / d.cfg.AITLine }

// sector returns the 256B sector index of addr within its AIT line.
func (d *DIMM) sector(addr uint64) int {
	return int(addr % d.cfg.AITLine / d.cfg.RMWBlock)
}

// tableAddr returns the on-DIMM DRAM address of a page's AIT entry.
func (d *DIMM) tableAddr(page uint64) uint64 { return tableBase + page*tableEntryBytes }

// dataAddr returns the on-DIMM DRAM address of a sector's buffered data.
// Lines are direct-placed by page so related sectors stay row-local.
func (d *DIMM) dataAddr(page uint64, sector int) uint64 {
	idx := page % uint64(d.cfg.AITEntries)
	return dataBase + idx*d.cfg.AITLine + uint64(sector)*d.cfg.RMWBlock
}

// dramAccess schedules one 64B access on the on-DIMM DRAM, retrying under
// backpressure.
func (d *DIMM) dramAccess(addr uint64, write bool, done func()) {
	if !d.dramC.Schedule(addr, write, done) {
		d.eng.After(24, func() { d.dramAccess(addr, write, done) })
	}
}

// dramBurst schedules one n-burst access (n*64 contiguous bytes — a 256B
// AIT sector is 4 bursts) as a single DRAM transaction, retrying under
// backpressure.
func (d *DIMM) dramBurst(addr uint64, n int, write bool, done func()) {
	if !d.dramC.ScheduleN(addr, write, n, done) {
		d.eng.After(24, func() { d.dramBurst(addr, n, write, done) })
	}
}

// mediaAccess performs one 256B demand media access through the
// wear-leveler stall window, firing done at completion. Reads may surface an
// injected uncorrectable media error (poison) through done; writes never do.
func (d *DIMM) mediaAccess(cpuBlock uint64, write bool, done func(error)) {
	d.mediaAccessPri(cpuBlock, write, false, done)
}

func (d *DIMM) mediaAccessPri(cpuBlock uint64, write, background bool, done func(error)) {
	mediaAddr := d.trans.ToMedia(cpuBlock)
	if until := d.wear.BusyUntil(mediaAddr); until > d.eng.Now() {
		d.stats.MediaStalls++
		d.eng.Schedule(until, func() { d.mediaAccessPri(cpuBlock, write, background, done) })
		return
	}
	// Poison is drawn at issue time: the access still occupies the media
	// (the ECC pipeline runs to completion) but delivers an error instead
	// of data.
	var perr error
	if !write {
		if perr = d.inj.ReadPoison(mediaAddr); perr != nil {
			d.stats.MediaPoison++
			if d.o.Active() {
				d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageMedia, Pos: obs.PosFault,
					Comp: d.comp, Addr: mediaAddr})
			}
		}
	}
	d.mediaInFlight++
	cb := func() {
		d.mediaInFlight--
		if write {
			d.wear.NoteWrite(mediaAddr)
		}
		if done != nil {
			done(perr)
		}
	}
	if background {
		d.med.AccessBG(mediaAddr, write, cb)
	} else {
		d.med.Access(mediaAddr, write, cb)
	}
}

// maxInternalWrites bounds LSQ-drain concurrency: the RMW buffer cannot
// source more outstanding operations than it has ports/entries, and the
// bound keeps internal traffic from swamping the AIT path.
const maxInternalWrites = 16

// maxFillBacklog bounds line-fill media traffic; demand accesses always
// proceed, and fills shed when the backlog saturates.
const maxFillBacklog = 32

// rmwSlot reserves the RMW buffer port and returns the cycle the operation
// may proceed.
func (d *DIMM) rmwSlot() sim.Cycle {
	at := d.eng.Now()
	if d.rmwFree > at {
		at = d.rmwFree
	}
	d.rmwFree = at + d.cyc.rmwPort
	return at
}

// ---------------------------------------------------------------- read path

// Read requests the 64B line at addr; done fires when data is ready to move
// onto the bus back to the iMC. A non-nil error reports an uncorrectable
// media read (poison): the access completes with full timing but no data.
func (d *DIMM) Read(addr uint64, done func(error)) {
	d.stats.ClientReads++
	d.readsInFlight++
	finish := func(err error) {
		d.readsInFlight--
		done(err)
	}
	line := addr - addr%64
	block := d.block(addr)

	// LSQ forwarding: pending store data is returned directly (data
	// fast-forward, the effect the RaW prober measures).
	if d.lsq.Contains(line) {
		d.stats.LSQForwards++
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageLSQ, Pos: obs.PosHit,
				Comp: d.comp, Addr: addr})
		}
		d.eng.After(d.cyc.lsqLookup+d.cyc.rmwHit, func() { finish(nil) })
		return
	}

	start := d.rmwSlot() + d.cyc.lsqLookup
	if d.rmw.Lookup(block) {
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosHit,
				Comp: d.comp, Addr: addr})
		}
		d.eng.Schedule(start+d.cyc.rmwHit, func() { finish(nil) })
		return
	}
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosMiss,
			Comp: d.comp, Addr: addr})
	}

	// Lazy cache probe (optimization, §V-C): frequently written data can be
	// served from the small persistent write cache.
	if d.lazy != nil {
		if lat, hit := d.lazy.ReadProbe(block); hit {
			d.eng.Schedule(start+lat, func() { finish(nil) })
			return
		}
	}

	d.eng.Schedule(start, func() {
		d.aitRead(block, func(err error) {
			if err != nil {
				// Poisoned data is never installed in the RMW buffer.
				d.eng.After(d.cyc.rmwHit, func() { finish(err) })
				return
			}
			d.installRMW(block, false)
			d.eng.After(d.cyc.rmwHit, func() { finish(nil) })
		})
	})
}

// installRMW inserts a block into the RMW buffer, handling eviction.
func (d *DIMM) installRMW(block uint64, dirty bool) {
	ev, evicted := d.rmw.Insert(block)
	if dirty {
		d.rmw.MarkDirty(block)
	}
	if evicted && ev.Dirty {
		// Write-back mode only: push the displaced line to the AIT.
		d.writesInFlight++
		d.aitWrite(ev.Block, func() { d.writesInFlight-- })
	}
}

// aitRead fetches the 256B sector containing block from the AIT: a
// translation-table DRAM read, then either an AIT-buffer DRAM read (hit) or
// a media access with critical-sector-first line fill (miss). An injected
// AIT stall spike (controller firmware hiccup) stretches the lookup latency.
func (d *DIMM) aitRead(block uint64, done func(error)) {
	page := d.page(block)
	sector := d.sector(block)
	d.stats.TableReads++
	if d.histAIT != nil {
		start := d.eng.Now()
		inner := done
		done = func(err error) {
			d.histAIT.Observe(uint64(float64(d.eng.Now()-start) / dram.CyclesPerNano))
			inner(err)
		}
	}
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageAIT, Pos: obs.PosIssue,
			Comp: d.comp, Addr: block})
	}
	lookup := d.cyc.aitLookup
	if stall := d.inj.AITStall(); stall > 0 {
		d.stats.FaultStalls++
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageAIT, Pos: obs.PosFault,
				Comp: d.comp, Addr: block, Arg: uint64(stall)})
		}
		lookup += stall
	}
	d.eng.After(lookup, func() {
		d.dramAccess(d.tableAddr(page), false, func() {
			d.aitReadLookup(page, sector, block, done)
		})
	})
}

// aitReadLookup continues aitRead after the translation-table access.
func (d *DIMM) aitReadLookup(page uint64, sector int, block uint64, done func(error)) {
	lineHit, sectorHit := d.buf.LookupSector(page, sector)
	if d.o.Active() {
		pos := obs.PosMiss
		if sectorHit {
			pos = obs.PosHit
		}
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageAIT, Pos: pos,
			Comp: d.comp, Addr: block})
	}
	if sectorHit {
		burst := int(d.cfg.RMWBlock / 64)
		d.dramBurst(d.dataAddr(page, sector), burst, false, func() { done(nil) })
		return
	}
	if !lineHit {
		d.allocateAITLine(page)
	}
	// Critical sector from media, following sectors in the background.
	d.mediaAccess(block, false, func(err error) {
		if err != nil {
			// Poisoned sector: nothing valid to install or buffer.
			done(err)
			return
		}
		d.buf.FillSector(page, sector)
		// The fetched sector is also written into the DRAM buffer; that
		// write is off the critical path.
		burst := int(d.cfg.RMWBlock / 64)
		d.dramBurst(d.dataAddr(page, sector), burst, true, nil)
		done(nil)
	})
	if d.cfg.ReadFillLine {
		d.fillLine(page, sector)
	}
}

// allocateAITLine makes room for page in the AIT buffer, writing back any
// dirty sectors of the victim (write-back mode only).
func (d *DIMM) allocateAITLine(page uint64) {
	ev, dirty := d.buf.Allocate(page)
	if !dirty {
		return
	}
	for s := 0; s < int(d.cfg.AITLine/d.cfg.RMWBlock); s++ {
		if ev.DirtySector&(1<<s) == 0 {
			continue
		}
		victimBlock := ev.Page*d.cfg.AITLine + uint64(s)*d.cfg.RMWBlock
		d.writesInFlight++
		d.mediaAccess(victimBlock, true, func(error) { d.writesInFlight-- })
	}
}

// fillLine fetches the rest of a 4KB AIT line from media in the background
// (critical sector first, the other sectors across the fill ports — the
// whole-line fill LENS's amplification probe observes). Fills shed when the
// backlog saturates.
func (d *DIMM) fillLine(page uint64, except int) {
	missing := d.buf.MissingSectors(page)
	for _, s := range missing {
		if s == except {
			continue
		}
		if d.mediaInFlight >= maxFillBacklog {
			return
		}
		s := s
		block := page*d.cfg.AITLine + uint64(s)*d.cfg.RMWBlock
		d.mediaAccessPri(block, false, true, func(err error) {
			if err != nil {
				// Poisoned speculative fill: drop it silently — the sector
				// stays invalid and a later demand read surfaces the fault.
				return
			}
			d.buf.FillSector(page, s)
			d.dramBurst(d.dataAddr(page, s), int(d.cfg.RMWBlock/64), true, nil)
		})
	}
}

// aitWrite pushes one full 256B block to the AIT: table read, buffer update
// (DRAM write), and — in write-through mode — a media write that advances
// wear. done fires when the block is durable at the media (write-through)
// or buffered (write-back).
func (d *DIMM) aitWrite(block uint64, done func()) {
	page := d.page(block)
	sector := d.sector(block)
	d.stats.TableReads++
	if d.histAIT != nil {
		start := d.eng.Now()
		inner := done
		done = func() {
			d.histAIT.Observe(uint64(float64(d.eng.Now()-start) / dram.CyclesPerNano))
			inner()
		}
	}
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageAIT, Pos: obs.PosIssue,
			Write: true, Comp: d.comp, Addr: block})
	}
	d.eng.After(d.cyc.aitLookup, func() {
		d.aitWriteLookup(page, sector, block, done)
	})
}

// aitWriteLookup continues aitWrite after the lookup-processing delay.
func (d *DIMM) aitWriteLookup(page uint64, sector int, block uint64, done func()) {
	d.dramAccess(d.tableAddr(page), false, func() {
		if !d.buf.Resident(page) {
			d.allocateAITLine(page)
		}
		d.buf.WriteSector(page, sector, !d.cfg.WriteThrough)
		burst := int(d.cfg.RMWBlock / 64)
		if d.cfg.WriteThrough {
			d.dramBurst(d.dataAddr(page, sector), burst, true, nil)
			// Writes never fault in the model; the error is discarded.
			d.mediaAccess(block, true, func(error) { done() })
			return
		}
		d.dramBurst(d.dataAddr(page, sector), burst, true, done)
	})
}

// --------------------------------------------------------------- write path

// AcceptWrite offers a 64B store to the LSQ. It returns false when the LSQ
// is full (the iMC retries; that backpressure is the 4KB store knee). data,
// when non-nil, is committed to the functional store.
func (d *DIMM) AcceptWrite(addr uint64, data []byte) bool {
	line := addr - addr%64
	merged, ok := d.lsq.Accept(line, d.eng.Now())
	if !ok {
		d.stats.LSQStalls++
		d.kickDrain()
		return false
	}
	d.stats.ClientWrites++
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageLSQ, Pos: obs.PosEnqueue,
			Write: true, Comp: d.comp, Addr: addr})
	}
	if data != nil && d.cfg.Functional {
		d.med.WriteData(d.trans.ToMedia(addr), data)
	}
	_ = merged
	d.kickDrain()
	return true
}

// AcceptWriteData commits functional contents through the current
// translation without timing effects; the iMC uses it when the timing path
// tracks only addresses (WPQ entries carry no payload in the model).
func (d *DIMM) AcceptWriteData(addr uint64, data []byte) {
	if data != nil && d.cfg.Functional {
		d.med.WriteData(d.trans.ToMedia(addr), data)
	}
}

// dimmDrainStep adapts drainStep to the engine's allocation-free recurring
// callback form (AfterFn): the drain engine fires once per epoch for the
// whole life of a store burst, so a closure per hop would be a steady
// allocation stream.
func dimmDrainStep(a any) { a.(*DIMM).drainStep() }

// kickDrain schedules the LSQ drain engine if idle.
func (d *DIMM) kickDrain() {
	if d.draining {
		return
	}
	d.draining = true
	d.eng.AfterFn(d.cyc.lsqEpoch, dimmDrainStep, d)
}

// drainStep is the LSQ scheduling epoch: drain groups while the occupancy
// is above high water, an entry is over-age, or a flush is in progress;
// otherwise sleep one epoch.
func (d *DIMM) drainStep() {
	if d.lsq.Empty() {
		d.draining = false
		return
	}
	now := d.eng.Now()
	mustDrain := d.flushing > 0 ||
		d.lsq.Len() > d.cfg.LSQHighWater ||
		d.lsq.OldestAge(now) >= d.cyc.lsqAge
	// Flow control: the drain engine never runs ahead of what the RMW/AIT
	// path can absorb, regardless of the drain trigger.
	if !mustDrain || d.writesInFlight >= maxInternalWrites {
		d.eng.AfterFn(d.cyc.lsqEpoch, dimmDrainStep, d)
		return
	}
	g, ok := d.lsq.PopGroup()
	if !ok {
		d.draining = false
		return
	}
	if d.histLSQWait != nil {
		if now > g.Enq {
			d.histLSQWait.Observe(uint64(float64(now-g.Enq) / dram.CyclesPerNano))
		} else {
			d.histLSQWait.Observe(0)
		}
	}
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: now, Stage: obs.StageLSQ, Pos: obs.PosDequeue,
			Write: true, Comp: d.comp, Addr: g.Block})
	}
	d.writesInFlight++
	d.processGroup(g, func() { d.writesInFlight-- })
	// Pace the next drain decision by the RMW port.
	next := d.rmwFree
	if next <= now {
		next = now + 1
	}
	d.eng.ScheduleFn(next, dimmDrainStep, d)
}

// processGroup applies one combined write group to the RMW buffer. Partial
// groups against absent lines perform the read-modify-write fill first.
func (d *DIMM) processGroup(g Group, done func()) {
	at := d.rmwSlot()
	complete := g.Complete(d.cfg.RMWBlock)
	d.eng.Schedule(at, func() {
		// Lazy cache intercept: hot blocks are absorbed by the persistent
		// write cache, skipping AIT/media wear entirely.
		if d.lazy != nil && d.lazy.WriteProbe(g.Block) {
			d.eng.After(d.lazy.writeLat, done)
			return
		}
		if !complete && !d.rmw.Peek(g.Block) {
			// Read-modify-write: fetch the block, then apply. A poisoned
			// fill does not block the write: the store overwrites the
			// unreadable sector (how poison is actually cleared on Optane).
			d.stats.PartialRMW++
			if d.o.Active() {
				d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosMiss,
					Write: true, Comp: d.comp, Addr: g.Block})
			}
			d.aitRead(g.Block, func(error) {
				d.installRMW(g.Block, !d.cfg.WriteThrough)
				d.forwardWrite(g.Block, done)
			})
			return
		}
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosHit,
				Write: true, Comp: d.comp, Addr: g.Block})
		}
		d.installRMW(g.Block, !d.cfg.WriteThrough)
		d.forwardWrite(g.Block, done)
	})
}

// forwardWrite propagates a combined block write beyond the RMW buffer
// according to the write policy.
func (d *DIMM) forwardWrite(block uint64, done func()) {
	if d.cfg.WriteThrough {
		d.aitWrite(block, done)
		return
	}
	d.rmw.MarkDirty(block)
	d.eng.After(d.cyc.rmwHit, done)
}

// ---------------------------------------------------------------- flush

// Flush forces the LSQ to drain and fires done once every accepted write is
// durable (the mfence semantics the paper observed: mfence flushes the LSQ).
func (d *DIMM) Flush(done func()) {
	d.flushing++
	d.kickDrain()
	var poll func()
	poll = func() {
		if d.lsq.Empty() && d.writesInFlight == 0 {
			d.flushing--
			done()
			return
		}
		d.eng.After(d.cyc.lsqEpoch, poll)
	}
	d.eng.After(1, poll)
}

// ReadData returns n bytes at addr from the functional store through the
// current translation (test support).
func (d *DIMM) ReadData(addr uint64, n int) []byte {
	return d.med.ReadData(d.trans.ToMedia(addr), n)
}

// AdoptPersistent transplants the persistent remnants of a powered-off DIMM
// into this (freshly constructed) one: the AIT translation table and the
// media image plus wear counters. Volatile state — LSQ, RMW buffer, AIT data
// buffer, in-flight bookkeeping — is deliberately not carried: it is exactly
// what a power failure truncates.
func (d *DIMM) AdoptPersistent(old *DIMM) {
	d.trans.AdoptFrom(old.trans)
	d.med.AdoptPersistent(old.med)
}

// ----------------------------------------------------- standalone adapter

// System adapts a single DIMM to mem.System for unit tests and single-DIMM
// experiments (no iMC in front: reads/writes hit the LSQ directly).
type System struct {
	D   *DIMM
	eng *sim.Engine
}

// NewSystem builds a standalone single-DIMM system.
func NewSystem(cfg Config, seed uint64) *System {
	eng := sim.NewEngine()
	return &System{D: New(eng, cfg, seed), eng: eng}
}

// Engine implements mem.System.
func (s *System) Engine() *sim.Engine { return s.eng }

// CyclesPerNano implements mem.System.
func (s *System) CyclesPerNano() float64 { return dram.CyclesPerNano }

// Drained implements mem.System.
func (s *System) Drained() bool { return !s.D.Busy() }

// Submit implements mem.System.
func (s *System) Submit(r *mem.Request) bool {
	switch r.Op {
	case mem.OpRead:
		r.Issued = s.eng.Now()
		s.D.Read(r.Addr, func(err error) { r.CompleteErr(s.eng.Now(), err) })
		return true
	case mem.OpWrite, mem.OpWriteNT, mem.OpClwb:
		if !s.D.AcceptWrite(r.Addr, r.Data) {
			return false
		}
		r.Issued = s.eng.Now()
		// Stores are posted: they complete on LSQ acceptance.
		s.eng.After(1, func() { r.Complete(s.eng.Now()) })
		return true
	case mem.OpFence:
		r.Issued = s.eng.Now()
		s.D.Flush(func() { r.Complete(s.eng.Now()) })
		return true
	default:
		return false
	}
}
