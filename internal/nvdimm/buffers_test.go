package nvdimm

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRMWLRUEviction(t *testing.T) {
	b := NewRMWBuffer(2)
	b.Insert(0)
	b.Insert(256)
	b.Lookup(0) // make 0 most recent
	ev, evicted := b.Insert(512)
	if !evicted || ev.Block != 256 {
		t.Fatalf("evicted = %+v (%v), want block 256", ev, evicted)
	}
	if !b.Peek(0) || !b.Peek(512) || b.Peek(256) {
		t.Fatal("residency wrong after eviction")
	}
}

func TestRMWDirtyEviction(t *testing.T) {
	b := NewRMWBuffer(1)
	b.Insert(0)
	if !b.MarkDirty(0) {
		t.Fatal("MarkDirty on resident failed")
	}
	ev, evicted := b.Insert(256)
	if !evicted || !ev.Dirty || ev.Block != 0 {
		t.Fatalf("dirty eviction = %+v (%v)", ev, evicted)
	}
	if b.MarkDirty(0) {
		t.Fatal("MarkDirty on absent succeeded")
	}
}

func TestRMWReinsertRefreshes(t *testing.T) {
	b := NewRMWBuffer(2)
	b.Insert(0)
	b.Insert(256)
	// Re-insert 0: refresh, no eviction.
	if _, evicted := b.Insert(0); evicted {
		t.Fatal("reinsert evicted")
	}
	_, evicted := b.Insert(512)
	if !evicted {
		t.Fatal("no eviction at capacity")
	}
	if !b.Peek(0) {
		t.Fatal("refreshed line was evicted")
	}
}

// Property: RMW buffer never exceeds capacity and lookups after insert hit.
func TestRMWCapacityInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		b := NewRMWBuffer(8)
		for i := 0; i < 300; i++ {
			blk := rng.Uint64n(32) * 256
			b.Insert(blk)
			if b.Len() > 8 {
				return false
			}
			if !b.Peek(blk) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAITBufferSectorSemantics(t *testing.T) {
	b := NewAITBuffer(16, 4, 4096, 256)
	lineHit, secHit := b.LookupSector(5, 0)
	if lineHit || secHit {
		t.Fatal("cold lookup hit")
	}
	b.Allocate(5)
	lineHit, secHit = b.LookupSector(5, 0)
	if !lineHit || secHit {
		t.Fatalf("after allocate: lineHit=%v secHit=%v, want true/false", lineHit, secHit)
	}
	b.FillSector(5, 0)
	_, secHit = b.LookupSector(5, 0)
	if !secHit {
		t.Fatal("filled sector not hit")
	}
	if _, other := b.LookupSector(5, 1); other {
		t.Fatal("unfilled sector hit")
	}
}

func TestAITBufferMissingSectors(t *testing.T) {
	b := NewAITBuffer(16, 4, 1024, 256) // 4 sectors per line
	b.Allocate(7)
	b.FillSector(7, 2)
	missing := b.MissingSectors(7)
	if len(missing) != 3 {
		t.Fatalf("missing = %v", missing)
	}
	for _, s := range missing {
		if s == 2 {
			t.Fatal("filled sector listed missing")
		}
	}
	if b.MissingSectors(99) != nil {
		t.Fatal("absent page should report nil")
	}
}

func TestAITBufferEvictionDirty(t *testing.T) {
	// 4 entries, 2 ways -> 2 sets. Pages 0 and 2 share set 0.
	b := NewAITBuffer(4, 2, 1024, 256)
	b.Allocate(0)
	b.WriteSector(0, 1, true) // dirty in write-back mode
	b.Allocate(2)
	ev, evicted := b.Allocate(4) // set 0 full -> evict LRU (page 0)
	if !evicted || ev.Page != 0 || ev.DirtySector != 0b0010 {
		t.Fatalf("eviction = %+v (%v)", ev, evicted)
	}
}

func TestAITBufferWriteThroughNotDirty(t *testing.T) {
	b := NewAITBuffer(4, 2, 1024, 256)
	b.Allocate(0)
	b.WriteSector(0, 0, false)
	if len(b.DirtyPages()) != 0 {
		t.Fatal("write-through marked dirty")
	}
	if _, hit := b.LookupSector(0, 0); !hit {
		t.Fatal("written sector not valid")
	}
}

func TestAITBufferCleanLine(t *testing.T) {
	b := NewAITBuffer(4, 2, 1024, 256)
	b.Allocate(3)
	b.WriteSector(3, 0, true)
	b.CleanLine(3)
	if len(b.DirtyPages()) != 0 {
		t.Fatal("CleanLine did not clear dirty bits")
	}
}

func TestTranslatorIdentityByDefault(t *testing.T) {
	tr := NewTranslator(4096, 1<<20)
	if tr.Translate(5) != 5 || tr.Reverse(5) != 5 {
		t.Fatal("default translation not identity")
	}
	if tr.ToMedia(4096*3+17) != 4096*3+17 {
		t.Fatal("ToMedia not identity")
	}
}

func TestTranslatorSwap(t *testing.T) {
	tr := NewTranslator(4096, 1<<20)
	tr.SwapPages(1, 7)
	if tr.Translate(1) != 7 || tr.Translate(7) != 1 {
		t.Fatal("swap failed")
	}
	if tr.Reverse(7) != 1 || tr.Reverse(1) != 7 {
		t.Fatal("reverse inconsistent")
	}
	// Swapping back restores identity.
	tr.SwapPages(1, 7)
	if tr.Translate(1) != 1 || tr.fwd.mapped() != 0 {
		t.Fatal("swap-back did not restore identity")
	}
}

// Property: under arbitrary swap sequences, the translation remains a
// bijection with Reverse as its inverse.
func TestTranslatorBijectionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		tr := NewTranslator(4096, 1<<22) // 1024 pages
		n := tr.pages()
		for i := 0; i < 200; i++ {
			tr.SwapPages(rng.Uint64n(n), rng.Uint64n(n))
		}
		seen := make(map[uint64]bool)
		for p := uint64(0); p < n; p++ {
			f := tr.Translate(p)
			if f >= n || seen[f] {
				return false
			}
			seen[f] = true
			if tr.Reverse(f) != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
