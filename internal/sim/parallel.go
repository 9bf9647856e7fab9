package sim

import (
	"sync"

	"repro/internal/pool"
)

// Intra-simulation parallelism.
//
// A sharded engine partitions its event population by the state each event
// touches: shard 0 ("home") events may touch anything — the driver, the iMC,
// cross-channel bookkeeping — and always execute exclusively; events tagged
// with a nonzero shard (one per channel/DIMM pair in vans) touch only that
// shard's state. Same-cycle events from nonzero shards are therefore
// independent and may execute concurrently between two barriers.
//
// The unit of execution is the round: either one home event, or the maximal
// (at, seq)-ordered prefix of same-cycle nonzero-shard events at the front
// of the queue. Round membership is fixed by popping before anything runs,
// so the round structure is a pure function of the event stream — identical
// whether a round then executes inline on one goroutine or fanned out over
// workers. Within a parallel round every Schedule-family call is buffered in
// a per-shard side buffer (single writer: the worker driving that shard) and
// replayed at the barrier in global (at, seq) order of the issuing events,
// reproducing exactly the seq assignment, queue contents, and fired/peak
// counters of serial execution. That is the whole determinism argument:
// parallelism is an execution strategy, never an ordering.

// shardBuf holds one shard's round-local state: the bucket of round events
// assigned to it, the seq of the event its worker is currently executing,
// and the schedules those events issued (each held as the event to insert,
// with seq temporarily naming the issuing round event). Only that worker
// writes it while a round is in flight; the barrier merge drains it
// afterwards.
type shardBuf struct {
	cur  uint64
	reqs []event
	next int
	idxs []int32 // indexes into parEngine.round
}

// parEngine is the round-execution state hung off a root engine once Shard
// has been called.
type parEngine struct {
	workers int         // configured parallelism; <= 1 executes rounds inline
	gate    func() bool // when non-nil and true, force inline (e.g. tracing)
	handles []*Engine   // memoized shard handles, index = shard id
	bufs    []shardBuf
	round   []event
	order   []int32 // distinct shards of the current round, first-seen order
}

// Shard returns the scheduling handle for shard i. Handles share all state
// with the root engine; the only difference is that events scheduled through
// handle i carry shard tag i, promising their callbacks touch only shard i's
// state. Shard(0) — and any i <= 0 — returns the engine itself: the home
// shard, whose events run exclusively. Events scheduled through a shard
// handle dispatch in rounds (see RunWhile); a handle does not by itself
// enable concurrency — that takes SetParallel.
func (e *Engine) Shard(i int) *Engine {
	r := e.rootEngine()
	if i <= 0 {
		return r
	}
	p := r.ensurePar()
	for len(p.handles) <= i {
		p.handles = append(p.handles, nil)
	}
	if p.handles[i] == nil {
		p.handles[i] = &Engine{root: r, shard: int32(i)}
	}
	return p.handles[i]
}

// SetParallel sets how many goroutines may execute one round, n <= 1 meaning
// fully inline. The actual fan-out per round is additionally capped by the
// number of distinct shards in the round and by the process-wide
// pool budget (pool.TryLease), so sweep-level and intra-simulation
// parallelism never oversubscribe GOMAXPROCS. Results are identical at
// every setting — this knob trades goroutine overhead for wall-clock only.
func (e *Engine) SetParallel(n int) {
	if n < 1 {
		n = 1
	}
	e.rootEngine().ensurePar().workers = n
}

// SetParallelGate installs a predicate checked before each round; while it
// returns true, rounds execute inline. vans points this at obs.Active so
// lifecycle tracing (a shared append-only buffer) is never written
// concurrently — the round structure is unchanged, so neither are results.
func (e *Engine) SetParallelGate(f func() bool) {
	e.rootEngine().ensurePar().gate = f
}

func (e *Engine) ensurePar() *parEngine {
	if e.par == nil {
		e.par = &parEngine{workers: 1}
	}
	return e.par
}

// runRound executes the round led by the shard event lead, already popped
// with the clock advanced to it. The round is lead plus the maximal run of
// same-cycle nonzero-shard events behind it, with membership fixed before
// anything executes (events scheduled during the round — necessarily with
// equal or later timestamps — land in later rounds). It then runs inline
// unless the round spans several shards, parallelism is configured, the gate
// is open, and the pool grants a lease.
func (e *Engine) runRound(lead *event) {
	p := e.par
	p.round = append(p.round[:0], *lead)
	for {
		h, inHeap := e.head()
		if h == nil || h.at != lead.at || h.shard == 0 {
			break
		}
		if inHeap {
			p.round = append(p.round, e.heapPop())
		} else {
			p.round = append(p.round, e.popFIFO())
		}
	}
	extra := 0
	if p.workers > 1 && p.multiShard() && (p.gate == nil || !p.gate()) {
		extra = pool.TryLease(min(p.workers, len(p.round)) - 1)
	}
	if extra == 0 {
		e.runInline()
	} else {
		e.runParallel(extra)
	}
}

// multiShard reports whether the round holds events of more than one shard —
// the precondition for any fan-out.
func (p *parEngine) multiShard() bool {
	s := p.round[0].shard
	for i := 1; i < len(p.round); i++ {
		if p.round[i].shard != s {
			return true
		}
	}
	return false
}

// runInline executes the round in (at, seq) order on this goroutine with
// direct scheduling. groupRemain keeps Pending()/peak accounting identical
// to pure per-event stepping.
func (e *Engine) runInline() {
	p := e.par
	e.inRound = true
	e.groupRemain = len(p.round)
	for i := range p.round {
		e.groupRemain--
		e.fired++
		ev := &p.round[i]
		if ev.fn != nil {
			ev.fn()
		} else {
			ev.afn(ev.arg)
		}
		*ev = event{}
	}
	e.inRound = false
}

// runParallel fans the round out over extra leased workers plus this
// goroutine, then merges the buffered schedules at the barrier.
func (e *Engine) runParallel(extra int) {
	p := e.par
	n := len(p.round)

	// Partition into per-shard buckets in first-appearance order, and hand
	// back any lease beyond one worker per bucket.
	p.order = p.order[:0]
	for i := range p.round {
		s := p.round[i].shard
		for int32(len(p.bufs)) <= s {
			p.bufs = append(p.bufs, shardBuf{})
		}
		b := &p.bufs[s]
		if len(b.idxs) == 0 {
			p.order = append(p.order, s)
		}
		b.idxs = append(b.idxs, int32(i))
	}
	if surplus := extra + 1 - len(p.order); surplus > 0 {
		pool.Release(surplus)
		extra -= surplus
	}

	// Whole buckets are assigned round-robin to extra+1 workers (this
	// goroutine participates). Each worker executes its buckets' events in
	// seq order; schedules divert into the shard's side buffer.
	workers := extra + 1
	var (
		wg    sync.WaitGroup
		panMu sync.Mutex
		pan   any
	)
	e.inRound = true
	e.collecting = true
	runBuckets := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				panMu.Lock()
				if pan == nil {
					pan = r
				}
				panMu.Unlock()
			}
		}()
		for k := w; k < len(p.order); k += workers {
			b := &p.bufs[p.order[k]]
			for _, idx := range b.idxs {
				ev := &p.round[idx]
				b.cur = ev.seq
				if ev.fn != nil {
					ev.fn()
				} else {
					ev.afn(ev.arg)
				}
			}
		}
	}
	wg.Add(extra)
	for w := 1; w <= extra; w++ {
		go func(w int) {
			defer wg.Done()
			runBuckets(w)
		}(w)
	}
	runBuckets(0)
	wg.Wait()
	e.collecting = false
	e.inRound = false
	pool.Release(extra)
	if pan != nil {
		// A panicking worker leaves its buffers mid-write; surface the panic
		// instead of merging garbage (the simulation is dead either way).
		panic(pan)
	}

	// Barrier merge: walk the round in global (at, seq) order; each event's
	// buffered schedules sit next in its shard's buffer (workers execute a
	// shard's events in seq order, one event's calls buffer in issue order),
	// so consuming the consecutive run with matching parent seq replays the
	// exact serial insertion order. pending/peak retrace serial insertion:
	// one decrement per pop, one increment + high-water check per schedule.
	pending := len(e.heap) + len(e.nowq) - e.nowHead + n
	peak := e.peak
	for i := range p.round {
		ev := &p.round[i]
		pending--
		b := &p.bufs[ev.shard]
		for b.next < len(b.reqs) && b.reqs[b.next].seq == ev.seq {
			ne := b.reqs[b.next]
			b.reqs[b.next] = event{} // release callback references
			b.next++
			e.seq++
			ne.seq = e.seq
			if ne.at <= e.now {
				ne.at = e.now
				e.nowq = append(e.nowq, ne)
			} else {
				e.heapPush(ne)
			}
			pending++
			if pending > peak {
				peak = pending
			}
		}
		*ev = event{}
	}
	e.peak = peak
	e.fired += uint64(n)
	for _, s := range p.order {
		b := &p.bufs[s]
		b.reqs = b.reqs[:0]
		b.next = 0
		b.idxs = b.idxs[:0]
	}
}

// buffer records a Schedule-family call issued from inside a parallel round,
// stamping ev.seq with the issuing round event's seq for the barrier merge.
// Only the worker driving shard `caller` appends to that shard's buffer, so
// no locking is needed.
func (p *parEngine) buffer(caller int32, ev event) {
	b := &p.bufs[caller]
	ev.seq = b.cur
	b.reqs = append(b.reqs, ev)
}
