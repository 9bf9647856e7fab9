package nvdimm

// rmwLine is one 256B line of the SRAM RMW buffer.
type rmwLine struct {
	block   uint64
	dirty   bool
	lastUse uint64
}

// RMWBuffer is the 16KB SRAM read-modify-write buffer: fully associative,
// LRU-replaced, 256B lines. Writes smaller than a full line require the line
// to be present (read-modify-write); the controller fetches absent lines from
// the AIT before applying partial writes.
type RMWBuffer struct {
	lines   map[uint64]*rmwLine
	entries int
	tick    uint64

	hits   uint64
	misses uint64
}

// NewRMWBuffer returns a buffer with the given number of 256B lines.
func NewRMWBuffer(entries int) *RMWBuffer {
	return &RMWBuffer{lines: make(map[uint64]*rmwLine, entries), entries: entries}
}

// Len returns the resident line count.
func (b *RMWBuffer) Len() int { return len(b.lines) }

// Hits and Misses expose lookup statistics.
func (b *RMWBuffer) Hits() uint64   { return b.hits }
func (b *RMWBuffer) Misses() uint64 { return b.misses }

// Lookup probes for block (256B-aligned) and updates LRU state on hit.
func (b *RMWBuffer) Lookup(block uint64) bool {
	if l, ok := b.lines[block]; ok {
		b.tick++
		l.lastUse = b.tick
		b.hits++
		return true
	}
	b.misses++
	return false
}

// Peek probes without touching LRU or statistics.
func (b *RMWBuffer) Peek(block uint64) bool {
	_, ok := b.lines[block]
	return ok
}

// Evicted describes a line displaced by Insert.
type Evicted struct {
	Block uint64
	Dirty bool
}

// Insert installs block, returning the displaced line if any. Inserting a
// resident block only refreshes its LRU position.
func (b *RMWBuffer) Insert(block uint64) (ev Evicted, evicted bool) {
	b.tick++
	if l, ok := b.lines[block]; ok {
		l.lastUse = b.tick
		return Evicted{}, false
	}
	if len(b.lines) >= b.entries {
		var victim *rmwLine
		for _, l := range b.lines {
			if victim == nil || l.lastUse < victim.lastUse {
				victim = l
			}
		}
		ev = Evicted{Block: victim.block, Dirty: victim.dirty}
		evicted = true
		delete(b.lines, victim.block)
	}
	b.lines[block] = &rmwLine{block: block, lastUse: b.tick}
	return ev, evicted
}

// MarkDirty flags a resident block as modified; it reports whether the block
// was present.
func (b *RMWBuffer) MarkDirty(block uint64) bool {
	l, ok := b.lines[block]
	if ok {
		l.dirty = true
	}
	return ok
}
