package nvdimm

import (
	"math/bits"

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

	// free lists recycled hop records.
	free *hop

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

// hop is the record one DIMM-internal operation carries through its chain of
// scheduled events — a client read, a drained write group, an RMW or AIT
// victim write-back, one speculative line-fill sector, or a DRAM retry. Each
// event is a package-level func(any) taking the record, so the steady-state
// access path allocates nothing. Records come from the DIMM's free list and
// return to it when the operation ends (see DESIGN.md, "Allocation
// discipline").
type hop struct {
	d      *DIMM
	block  uint64 // 256B block in CPU address space
	page   uint64 // AIT page of block (set by the AIT stage)
	sector int    // sector of block within its AIT line (set by the AIT stage)
	// err carries an injected media read error (poison) from the media
	// stage to the read's completion.
	err error

	// AIT stage: start cycle (for histAIT) and the continuation run when
	// the table lookup and buffer or media service complete.
	aitStart sim.Cycle
	aitDone  func(*hop)

	// Media stage: the translated address, the access kind, and the
	// continuation run at media completion.
	mediaAddr  uint64
	write      bool
	background bool
	mediaDone  func(*hop)

	// full marks a drained write group covering its whole block (no
	// read-modify-write fill needed).
	full bool

	// readDone(readArg, err) returns a client read to the iMC.
	readDone func(any, error)
	readArg  any

	// A DRAM access waiting out controller backpressure.
	dramAddr  uint64
	dramN     int
	dramWrite bool
	dramDone  func(any)
	dramArg   any

	next *hop // free list link
}

// newHop takes a zeroed record from the free list.
func (d *DIMM) newHop() *hop {
	h := d.free
	if h != nil {
		d.free = h.next
		h.next = nil
	} else {
		h = new(hop)
	}
	h.d = d
	return h
}

// putHop returns a finished record to the free list, dropping its
// references.
func (d *DIMM) putHop(h *hop) {
	*h = hop{next: d.free}
	d.free = h
}

// dramBurst schedules one n-burst access (n*64 contiguous bytes — a 256B
// AIT sector is 4 bursts, a table entry 1) on the on-DIMM DRAM as a single
// transaction, running done(arg) at data completion. Under backpressure it
// retries every 24 cycles.
func (d *DIMM) dramBurst(addr uint64, n int, write bool, done func(any), arg any) {
	if d.dramC.ScheduleN(addr, write, n, done, arg) {
		return
	}
	r := d.newHop()
	r.dramAddr, r.dramN, r.dramWrite, r.dramDone, r.dramArg = addr, n, write, done, arg
	d.eng.AfterFn(24, hopDRAMRetry, r)
}

func hopDRAMRetry(a any) {
	r := a.(*hop)
	d := r.d
	addr, n, write, done, arg := r.dramAddr, r.dramN, r.dramWrite, r.dramDone, r.dramArg
	d.putHop(r)
	d.dramBurst(addr, n, write, done, arg)
}

// mediaAccess performs one 256B media access for h.block through the
// wear-leveler stall window and runs done(h) at completion. Background
// accesses are speculative line fills (see media.XPoint.AccessBG). Reads may
// pick up an injected uncorrectable media error (poison) in h.err; writes
// never do.
func (d *DIMM) mediaAccess(h *hop, write, background bool, done func(*hop)) {
	h.write, h.background, h.mediaDone = write, background, done
	d.issueMedia(h)
}

func hopIssueMedia(a any) {
	h := a.(*hop)
	h.d.issueMedia(h)
}

func (d *DIMM) issueMedia(h *hop) {
	mediaAddr := d.trans.ToMedia(h.block)
	if until := d.wear.BusyUntil(mediaAddr); until > d.eng.Now() {
		d.stats.MediaStalls++
		d.eng.ScheduleFn(until, hopIssueMedia, h)
		return
	}
	// Poison is drawn at issue time: the access still occupies the media
	// (the ECC pipeline runs to completion) but delivers an error instead
	// of data.
	h.err = nil
	if !h.write {
		if h.err = d.inj.ReadPoison(mediaAddr); h.err != nil {
			d.stats.MediaPoison++
			if d.o.Active() {
				d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageMedia, Pos: obs.PosFault,
					Comp: d.comp, Addr: mediaAddr})
			}
		}
	}
	h.mediaAddr = mediaAddr
	d.mediaInFlight++
	if h.background {
		d.med.AccessBG(mediaAddr, h.write, hopMediaDone, h)
	} else {
		d.med.Access(mediaAddr, h.write, hopMediaDone, h)
	}
}

func hopMediaDone(a any) {
	h := a.(*hop)
	d := h.d
	d.mediaInFlight--
	if h.write {
		d.wear.NoteWrite(h.mediaAddr)
	}
	h.mediaDone(h)
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

// Read requests the 64B line at addr; done(arg, err) runs when data is ready
// to move onto the bus back to the iMC. A non-nil err reports an
// uncorrectable media read (poison): the access completes with full timing
// but no data.
func (d *DIMM) Read(addr uint64, done func(any, error), arg any) {
	d.stats.ClientReads++
	d.readsInFlight++
	h := d.newHop()
	h.readDone, h.readArg = done, arg
	line := addr - addr%64
	h.block = d.block(addr)

	// LSQ forwarding: pending store data is returned directly (data
	// fast-forward, the effect the RaW prober measures).
	if d.lsq.Contains(line) {
		d.stats.LSQForwards++
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageLSQ, Pos: obs.PosHit,
				Comp: d.comp, Addr: addr})
		}
		d.eng.AfterFn(d.cyc.lsqLookup+d.cyc.rmwHit, hopReadReturn, h)
		return
	}

	start := d.rmwSlot() + d.cyc.lsqLookup
	if d.rmw.Lookup(h.block) {
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosHit,
				Comp: d.comp, Addr: addr})
		}
		d.eng.ScheduleFn(start+d.cyc.rmwHit, hopReadReturn, h)
		return
	}
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosMiss,
			Comp: d.comp, Addr: addr})
	}

	// Lazy cache probe (optimization, §V-C): frequently written data can be
	// served from the small persistent write cache.
	if d.lazy != nil {
		if lat, hit := d.lazy.ReadProbe(h.block); hit {
			d.eng.ScheduleFn(start+lat, hopReadReturn, h)
			return
		}
	}

	d.eng.ScheduleFn(start, hopReadAIT, h)
}

func hopReadAIT(a any) {
	h := a.(*hop)
	h.d.aitRead(h, readFetched)
}

// readFetched continues a client read once the AIT delivered its sector:
// install it in the RMW buffer (poisoned data never is) and return after
// the buffer access.
func readFetched(h *hop) {
	d := h.d
	if h.err == nil {
		d.installRMW(h.block, false)
	}
	d.eng.AfterFn(d.cyc.rmwHit, hopReadReturn, h)
}

// hopReadReturn completes a client read.
func hopReadReturn(a any) {
	h := a.(*hop)
	d := h.d
	done, arg, err := h.readDone, h.readArg, h.err
	d.putHop(h)
	d.readsInFlight--
	done(arg, err)
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
		w := d.newHop()
		w.block = ev.Block
		d.aitWrite(w, writeRetired)
	}
}

// writeRetired ends an internal write: a drained group, or an RMW or AIT
// victim write-back.
func writeRetired(h *hop) {
	d := h.d
	d.putHop(h)
	d.writesInFlight--
}

func hopWriteRetired(a any) { writeRetired(a.(*hop)) }

// aitStage starts the AIT stage of h: table-read accounting, the histAIT
// start stamp, and the issue hook. done runs when the stage completes.
func (d *DIMM) aitStage(h *hop, write bool, done func(*hop)) {
	h.page = d.page(h.block)
	h.sector = d.sector(h.block)
	h.aitDone = done
	d.stats.TableReads++
	if d.histAIT != nil {
		h.aitStart = d.eng.Now()
	}
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageAIT, Pos: obs.PosIssue,
			Write: write, Comp: d.comp, Addr: h.block})
	}
}

// aitFinished ends the AIT stage of h, recording its latency.
func aitFinished(h *hop) {
	d := h.d
	if d.histAIT != nil {
		d.histAIT.Observe(uint64(float64(d.eng.Now()-h.aitStart) / dram.CyclesPerNano))
	}
	h.aitDone(h)
}

func hopAITFinished(a any) { aitFinished(a.(*hop)) }

// aitRead fetches the 256B sector containing h.block from the AIT: a
// translation-table DRAM read, then either an AIT-buffer DRAM read (hit) or
// a media access with critical-sector-first line fill (miss); done(h) runs
// with h.err set on poison. An injected AIT stall spike (controller firmware
// hiccup) stretches the lookup latency.
func (d *DIMM) aitRead(h *hop, done func(*hop)) {
	d.aitStage(h, false, done)
	lookup := d.cyc.aitLookup
	if stall := d.inj.AITStall(); stall > 0 {
		d.stats.FaultStalls++
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageAIT, Pos: obs.PosFault,
				Comp: d.comp, Addr: h.block, Arg: uint64(stall)})
		}
		lookup += stall
	}
	d.eng.AfterFn(lookup, hopAITReadTable, h)
}

func hopAITReadTable(a any) {
	h := a.(*hop)
	h.d.dramBurst(h.d.tableAddr(h.page), 1, false, hopAITReadLookup, h)
}

// hopAITReadLookup continues aitRead after the translation-table access.
func hopAITReadLookup(a any) {
	h := a.(*hop)
	d := h.d
	lineHit, sectorHit := d.buf.LookupSector(h.page, h.sector)
	if d.o.Active() {
		pos := obs.PosMiss
		if sectorHit {
			pos = obs.PosHit
		}
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageAIT, Pos: pos,
			Comp: d.comp, Addr: h.block})
	}
	if sectorHit {
		d.dramBurst(d.dataAddr(h.page, h.sector), int(d.cfg.RMWBlock/64), false, hopAITFinished, h)
		return
	}
	if !lineHit {
		d.allocateAITLine(h.page)
	}
	// Critical sector from media, following sectors in the background.
	page, sector := h.page, h.sector
	d.mediaAccess(h, false, false, aitSectorFetched)
	if d.cfg.ReadFillLine {
		d.fillLine(page, sector)
	}
}

// aitSectorFetched installs the critical sector a media read returned.
func aitSectorFetched(h *hop) {
	d := h.d
	if h.err == nil {
		d.buf.FillSector(h.page, h.sector)
		// The fetched sector is also written into the DRAM buffer; that
		// write is off the critical path.
		d.dramBurst(d.dataAddr(h.page, h.sector), int(d.cfg.RMWBlock/64), true, nil, nil)
	}
	// A poisoned sector has nothing valid to install or buffer.
	aitFinished(h)
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
		d.writesInFlight++
		w := d.newHop()
		w.block = ev.Page*d.cfg.AITLine + uint64(s)*d.cfg.RMWBlock
		d.mediaAccess(w, true, false, writeRetired)
	}
}

// fillLine fetches the rest of a 4KB AIT line from media in the background
// (critical sector first, the other sectors across the fill ports — the
// whole-line fill LENS's amplification probe observes). Fills shed when the
// backlog saturates.
func (d *DIMM) fillLine(page uint64, except int) {
	for missing := d.buf.MissingSectors(page); missing != 0; missing &= missing - 1 {
		s := bits.TrailingZeros16(missing)
		if s == except {
			continue
		}
		if d.mediaInFlight >= maxFillBacklog {
			return
		}
		f := d.newHop()
		f.page, f.sector = page, s
		f.block = page*d.cfg.AITLine + uint64(s)*d.cfg.RMWBlock
		d.mediaAccess(f, false, true, fillSectorFetched)
	}
}

// fillSectorFetched installs one speculative fill sector. A poisoned fill
// is dropped silently — the sector stays invalid and a later demand read
// surfaces the fault.
func fillSectorFetched(f *hop) {
	d := f.d
	page, sector, err := f.page, f.sector, f.err
	d.putHop(f)
	if err != nil {
		return
	}
	d.buf.FillSector(page, sector)
	d.dramBurst(d.dataAddr(page, sector), int(d.cfg.RMWBlock/64), true, nil, nil)
}

// aitWrite pushes the full 256B block h.block to the AIT: table read, buffer
// update (DRAM write), and — in write-through mode — a media write that
// advances wear. done(h) runs when the block is durable at the media
// (write-through) or buffered (write-back).
func (d *DIMM) aitWrite(h *hop, done func(*hop)) {
	d.aitStage(h, true, done)
	d.eng.AfterFn(d.cyc.aitLookup, hopAITWriteTable, h)
}

func hopAITWriteTable(a any) {
	h := a.(*hop)
	h.d.dramBurst(h.d.tableAddr(h.page), 1, false, hopAITWriteLookup, h)
}

// hopAITWriteLookup continues aitWrite after the translation-table access.
func hopAITWriteLookup(a any) {
	h := a.(*hop)
	d := h.d
	if !d.buf.Resident(h.page) {
		d.allocateAITLine(h.page)
	}
	d.buf.WriteSector(h.page, h.sector, !d.cfg.WriteThrough)
	burst := int(d.cfg.RMWBlock / 64)
	if d.cfg.WriteThrough {
		d.dramBurst(d.dataAddr(h.page, h.sector), burst, true, nil, nil)
		d.mediaAccess(h, true, false, aitFinished)
		return
	}
	d.dramBurst(d.dataAddr(h.page, h.sector), burst, true, hopAITFinished, h)
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
	d.processGroup(g)
	// Pace the next drain decision by the RMW port.
	next := d.rmwFree
	if next <= now {
		next = now + 1
	}
	d.eng.ScheduleFn(next, dimmDrainStep, d)
}

// processGroup applies one combined write group to the RMW buffer. Partial
// groups against absent lines perform the read-modify-write fill first. The
// group retires (writesInFlight, taken by the caller) once it is forwarded.
func (d *DIMM) processGroup(g Group) {
	at := d.rmwSlot()
	h := d.newHop()
	h.block = g.Block
	h.full = g.Complete(d.cfg.RMWBlock)
	d.eng.ScheduleFn(at, hopApplyGroup, h)
}

func hopApplyGroup(a any) {
	h := a.(*hop)
	d := h.d
	// Lazy cache intercept: hot blocks are absorbed by the persistent write
	// cache, skipping AIT/media wear entirely.
	if d.lazy != nil && d.lazy.WriteProbe(h.block) {
		d.eng.AfterFn(d.lazy.writeLat, hopWriteRetired, h)
		return
	}
	if !h.full && !d.rmw.Peek(h.block) {
		// Read-modify-write: fetch the block, then apply. A poisoned fill
		// does not block the write: the store overwrites the unreadable
		// sector (how poison is actually cleared on Optane).
		d.stats.PartialRMW++
		if d.o.Active() {
			d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosMiss,
				Write: true, Comp: d.comp, Addr: h.block})
		}
		d.aitRead(h, groupFilled)
		return
	}
	if d.o.Active() {
		d.o.Emit(obs.Event{Now: d.eng.Now(), Stage: obs.StageRMW, Pos: obs.PosHit,
			Write: true, Comp: d.comp, Addr: h.block})
	}
	groupFilled(h)
}

// groupFilled applies a write group whose block is in the RMW buffer or was
// just fetched, and forwards it according to the write policy.
func groupFilled(h *hop) {
	d := h.d
	d.installRMW(h.block, !d.cfg.WriteThrough)
	if d.cfg.WriteThrough {
		d.aitWrite(h, writeRetired)
		return
	}
	d.rmw.MarkDirty(h.block)
	d.eng.AfterFn(d.cyc.rmwHit, hopWriteRetired, h)
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
		s.D.Read(r.Addr, func(_ any, err error) { r.CompleteErr(s.eng.Now(), err) }, nil)
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
