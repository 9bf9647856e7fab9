package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpRead: "load", OpWrite: "store", OpWriteNT: "store-nt",
		OpClwb: "clwb", OpFence: "mfence", Op(99): "op(99)",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
}

func TestOpIsWrite(t *testing.T) {
	if !OpWrite.IsWrite() || !OpWriteNT.IsWrite() {
		t.Fatal("writes not classified as writes")
	}
	if OpRead.IsWrite() || OpClwb.IsWrite() || OpFence.IsWrite() {
		t.Fatal("non-writes classified as writes")
	}
}

func TestAlign(t *testing.T) {
	if AlignDown(100, 64) != 64 {
		t.Fatal("AlignDown(100,64)")
	}
	if AlignDown(128, 64) != 128 {
		t.Fatal("AlignDown(128,64)")
	}
	if AlignUp(100, 64) != 128 {
		t.Fatal("AlignUp(100,64)")
	}
	if AlignUp(128, 64) != 128 {
		t.Fatal("AlignUp(128,64)")
	}
}

func TestLineSpan(t *testing.T) {
	blocks := LineSpan(60, 8, 64) // crosses 0..63 and 64..127
	if len(blocks) != 2 || blocks[0] != 0 || blocks[1] != 64 {
		t.Fatalf("LineSpan(60,8,64) = %v", blocks)
	}
	blocks = LineSpan(256, 256, 256)
	if len(blocks) != 1 || blocks[0] != 256 {
		t.Fatalf("LineSpan(256,256,256) = %v", blocks)
	}
	if LineSpan(0, 0, 64) != nil {
		t.Fatal("LineSpan zero size should be nil")
	}
}

// Property: LineSpan covers the byte range exactly — every byte of
// [addr, addr+size) falls in exactly one returned block, blocks are aligned,
// strictly increasing, and contiguous.
func TestLineSpanCoversRange(t *testing.T) {
	f := func(addrRaw uint32, sizeRaw uint16, blkSel uint8) bool {
		blockSize := uint64(64) << (blkSel % 4) // 64,128,256,512
		addr := uint64(addrRaw)
		size := uint32(sizeRaw%2048) + 1
		blocks := LineSpan(addr, size, blockSize)
		if len(blocks) == 0 {
			return false
		}
		for i, b := range blocks {
			if b%blockSize != 0 {
				return false
			}
			if i > 0 && b != blocks[i-1]+blockSize {
				return false
			}
		}
		return blocks[0] <= addr && blocks[len(blocks)-1]+blockSize >= addr+uint64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesFormat(t *testing.T) {
	cases := map[uint64]string{
		64: "64", 1024: "1K", 64 << 10: "64K", 4 << 20: "4M",
		256 << 20: "256M", 1 << 30: "1G", 1000: "1000",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
}

// fakeSystem is a minimal System with fixed latency and a bounded front
// queue, used to exercise the drivers.
type fakeSystem struct {
	eng      *sim.Engine
	latency  sim.Cycle
	capacity int
	inflight int
	accepted []*Request
}

func newFakeSystem(latency sim.Cycle, capacity int) *fakeSystem {
	return &fakeSystem{eng: sim.NewEngine(), latency: latency, capacity: capacity}
}

func (f *fakeSystem) Engine() *sim.Engine    { return f.eng }
func (f *fakeSystem) CyclesPerNano() float64 { return 1 }
func (f *fakeSystem) Drained() bool          { return f.inflight == 0 }

func (f *fakeSystem) Submit(r *Request) bool {
	if f.inflight >= f.capacity {
		return false
	}
	f.inflight++
	r.Issued = f.eng.Now()
	f.accepted = append(f.accepted, r)
	f.eng.After(f.latency, func() {
		f.inflight--
		r.Complete(f.eng.Now())
	})
	return true
}

// stuckSystem accepts every request and never completes one.
type stuckSystem struct{ fakeSystem }

func (s *stuckSystem) Submit(*Request) bool { return true }

// TestDriverDeadlockPanics: every driver wait panics instead of spinning when
// the engine runs dry before the awaited condition holds.
func TestDriverDeadlockPanics(t *testing.T) {
	for name, run := range map[string]func(){
		"refused":     func() { NewDriver(newFakeSystem(5, 0)).RunChain([]Access{{Op: OpRead}}) },
		"lost chain":  func() { NewDriver(&stuckSystem{*newFakeSystem(5, 1)}).RunChain([]Access{{Op: OpRead}}) },
		"lost window": func() { NewDriver(&stuckSystem{*newFakeSystem(5, 1)}).RunWindow(make([]Access, 4), 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no deadlock panic", name)
				}
			}()
			run()
		}()
	}
}

func TestDriverRunChainSerializes(t *testing.T) {
	sys := newFakeSystem(10, 4)
	d := NewDriver(sys)
	accs := []Access{{Op: OpRead, Size: 64}, {Op: OpRead, Addr: 64, Size: 64}, {Op: OpRead, Addr: 128, Size: 64}}
	lats := d.RunChain(accs)
	if len(lats) != 3 {
		t.Fatalf("got %d latencies", len(lats))
	}
	for i, l := range lats {
		if l != 10 {
			t.Fatalf("latency[%d] = %d, want 10", i, l)
		}
	}
	// Serialized: total time is 3*10.
	if sys.eng.Now() != 30 {
		t.Fatalf("end = %d, want 30", sys.eng.Now())
	}
}

func TestDriverRunWindowOverlaps(t *testing.T) {
	sys := newFakeSystem(10, 16)
	d := NewDriver(sys)
	accs := make([]Access, 8)
	for i := range accs {
		accs[i] = Access{Op: OpWrite, Addr: uint64(i * 64), Size: 64}
	}
	elapsed := d.RunWindow(accs, 8)
	// All 8 fit in one window and the fake has no bandwidth limit: total
	// time is a single latency.
	if elapsed != 10 {
		t.Fatalf("elapsed = %d, want 10", elapsed)
	}
	elapsed = d.RunWindow(accs, 1)
	if elapsed != 80 {
		t.Fatalf("window=1 elapsed = %d, want 80", elapsed)
	}
}

func TestDriverBackpressure(t *testing.T) {
	sys := newFakeSystem(5, 2)
	d := NewDriver(sys)
	accs := make([]Access, 10)
	for i := range accs {
		accs[i] = Access{Op: OpWrite, Addr: uint64(i * 64), Size: 64}
	}
	elapsed := d.RunWindow(accs, 64) // window larger than system capacity
	// Capacity 2, latency 5: 10 reqs finish in ceil(10/2)*5 = 25 cycles.
	if elapsed != 25 {
		t.Fatalf("elapsed = %d, want 25", elapsed)
	}
}

func TestBandwidthGBs(t *testing.T) {
	sys := newFakeSystem(1, 1) // 1 cycle/ns
	// 1000 bytes in 100 cycles = 100ns -> 10 GB/s.
	if got := BandwidthGBs(sys, 1000, 100); got != 10 {
		t.Fatalf("BandwidthGBs = %v, want 10", got)
	}
	if BandwidthGBs(sys, 1000, 0) != 0 {
		t.Fatal("zero elapsed should give 0")
	}
}

func TestRequestCompleteStampsDone(t *testing.T) {
	var fired int
	r := &Request{OnDone: func(*Request) { fired++ }}
	r.Issued = 5
	r.Complete(25)
	if fired != 1 {
		t.Fatal("OnDone not fired exactly once")
	}
	if r.Latency() != 20 {
		t.Fatalf("Latency = %d, want 20", r.Latency())
	}
}

func TestRequestLine(t *testing.T) {
	r := &Request{Addr: 130}
	if r.Line() != 128 {
		t.Fatalf("Line = %d, want 128", r.Line())
	}
}
