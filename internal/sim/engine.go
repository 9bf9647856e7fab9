// Package sim provides the discrete-event simulation substrate shared by all
// timing models in this repository: a cycle-resolution event engine, bounded
// queues, deterministic random number generation, and statistics collectors.
//
// Every architectural component (memory controller, on-DIMM buffers, DRAM
// banks, CPU core) advances by scheduling callbacks on a single Engine, so a
// whole-system simulation is one totally ordered sequence of cycle-stamped
// events. Determinism is guaranteed: events at the same cycle fire in
// scheduling order.
package sim

// Cycle is a simulation timestamp in clock cycles of the simulated memory
// subsystem. The zero value is the beginning of time.
type Cycle uint64

// Never is a sentinel cycle value meaning "not scheduled / not happening".
const Never = Cycle(1<<63 - 1)

// event is a scheduled callback. seq breaks ties so same-cycle events fire in
// the order they were scheduled, making runs reproducible. Exactly one of
// fn/afn is set; afn is invoked with arg, letting recurring callers schedule
// without allocating a fresh closure per event (see ScheduleFn).
//
// shard is the event's shard (see Shard): shard 0 is the home shard, whose
// events may touch anything and therefore always run exclusively; a nonzero
// shard promises the callback only touches that shard's state, which is what
// lets a round of same-cycle events from distinct shards execute
// concurrently. The record is 56 bytes — heap traffic is the engine's
// hottest path, and every extra word is copied on each push, pop, and sift.
type event struct {
	at    Cycle
	seq   uint64
	shard int32
	fn    func()
	afn   func(any)
	arg   any
}

// before orders events by (at, seq): earliest cycle first, scheduling order
// within a cycle.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event scheduler with cycle resolution.
//
// Internally it keeps two structures: a 4-ary min-heap of event values for
// future events (no interface boxing — scheduling does not allocate beyond
// amortized slice growth) and a FIFO fast path for events scheduled at the
// current cycle, which skip the heap entirely. The (at, seq) total order is
// preserved across both: every event carries a globally increasing sequence
// number, and the dispatcher always takes the least (at, seq) event next.
//
// There is one dispatch path. A home (shard 0) event fires alone; a shard
// event fires as part of a round with the same-cycle shard events behind it
// (see parallel.go). An engine that never hands out shard handles simply
// holds only home events.
//
// The zero value is ready to use. Engine is not safe for concurrent use from
// outside; the simulation model here is single-threaded by design
// (determinism first). The one sanctioned form of concurrency lives inside
// the engine itself: shard-tagged same-cycle events may execute on worker
// goroutines between two deterministic barriers (see Shard, SetParallel, and
// parallel.go), with every observable ordering — (cycle, seq) assignment,
// fired/peak counters, queue contents — identical to serial execution.
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64
	peak  int // high-water mark of Pending(), updated on every schedule

	// inRound is true while the events of a shard round execute; scheduling
	// through the root handle is a funneling bug then and panics. collecting
	// is additionally true while workers may run concurrently, diverting
	// shard-handle schedules into per-shard side buffers. Both sit next to
	// the clock so the insertion path tests them on the same cache line.
	inRound    bool
	collecting bool

	// groupRemain counts round events already popped from the queues but
	// not yet executed, so Pending() and the peak accounting during an
	// inline round match pure per-event stepping exactly.
	groupRemain int

	// heap holds events with at > now (at insertion time), ordered as a
	// 4-ary min-heap by (at, seq).
	heap []event

	// nowq is the same-cycle FIFO: events scheduled at or before the
	// current cycle. Invariant: every live nowq entry has at == now, and
	// the queue drains completely before now can advance (no pending event
	// can be earlier). Entries are in increasing seq order by construction.
	nowq    []event
	nowHead int

	// root is non-nil on shard handles returned by Shard: a handle shares
	// all queue state with its root engine and only contributes its shard
	// tag to events scheduled through it. shard is the handle's tag (0 on
	// a root engine). par holds the round-execution state (parallel.go);
	// Shard creates it, so every engine holding shard events has one.
	root  *Engine
	shard int32
	par   *parEngine
}

// NewEngine returns an engine starting at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// rootEngine resolves a shard handle to the engine owning the state.
func (e *Engine) rootEngine() *Engine {
	if e.root != nil {
		return e.root
	}
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.rootEngine().now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.rootEngine().fired }

// Pending returns the number of scheduled, not yet executed events.
func (e *Engine) Pending() int {
	r := e.rootEngine()
	return len(r.heap) + len(r.nowq) - r.nowHead + r.groupRemain
}

// PeakPending returns the highest Pending() observed across the run — the
// peak queue depth reported in observability digests.
func (e *Engine) PeakPending() int { return e.rootEngine().peak }

// NextAt peeks at the timestamp of the earliest pending event. ok is false
// when no events are scheduled. Used by drivers that must stop the
// simulation at an exact cycle (power-fail cuts) without firing anything
// beyond it.
func (e *Engine) NextAt() (Cycle, bool) {
	if h, _ := e.rootEngine().head(); h != nil {
		return h.at, true
	}
	return 0, false
}

// Schedule runs fn at absolute cycle at. Scheduling in the past (at < Now) is
// treated as "now": the event fires before time advances further.
func (e *Engine) Schedule(at Cycle, fn func()) {
	e.rootEngine().insert(e.shard, &event{at: at, shard: e.shard, fn: fn})
}

// After runs fn delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) { e.Schedule(e.Now()+delay, fn) }

// ScheduleFn runs fn(arg) at absolute cycle at, with the same past-clamping
// semantics as Schedule. fn is typically a package-level function and arg the
// component it operates on, so recurring events (drain engines, pollers,
// retry loops) schedule themselves without allocating a fresh closure per
// event.
func (e *Engine) ScheduleFn(at Cycle, fn func(any), arg any) {
	e.rootEngine().insert(e.shard, &event{at: at, shard: e.shard, afn: fn, arg: arg})
}

// AfterFn runs fn(arg) delay cycles from now (the allocation-free variant of
// After; see ScheduleFn).
func (e *Engine) AfterFn(delay Cycle, fn func(any), arg any) {
	e.ScheduleFn(e.Now()+delay, fn, arg)
}

// ScheduleHome runs fn at absolute cycle at on the home shard (shard 0),
// regardless of which shard handle the call goes through. Home events run
// exclusively, so this is how shard-local code hands a result to cross-shard
// state: a completion that must invoke a driver callback, decrement a
// counter shared across channels, or touch the iMC schedules the touching
// part home instead of doing it in place.
func (e *Engine) ScheduleHome(at Cycle, fn func()) {
	e.rootEngine().insert(e.shard, &event{at: at, fn: fn})
}

// AfterHome runs fn delay cycles from now on the home shard (see
// ScheduleHome).
func (e *Engine) AfterHome(delay Cycle, fn func()) { e.ScheduleHome(e.Now()+delay, fn) }

// DeferHome runs fn on the home shard at the current cycle: after the
// in-flight round completes, before time advances. It is the funnel for
// cross-shard effects that must stay at the same timestamp (fence
// completions, read returns).
func (e *Engine) DeferHome(fn func()) { e.ScheduleHome(e.Now(), fn) }

// insert is the single insertion point behind every Schedule variant. caller
// is the shard whose handle issued the call (0 for the root handle); ev, a
// caller-stack record insert stamps and copies (passing it by pointer
// measured cheaper than by value), carries the target shard. During an executing round, calls from shard
// events are buffered per shard and merged deterministically at the barrier
// (parallel rounds) or inserted directly (inline rounds) — either way the
// resulting (cycle, seq) assignment is the one pure serial execution would
// produce.
func (e *Engine) insert(caller int32, ev *event) {
	if e.inRound {
		if caller == 0 {
			panic("sim: scheduling through the root engine from inside a shard round (funnel via DeferHome/AfterHome)")
		}
		if e.collecting {
			e.par.buffer(caller, *ev)
			return
		}
	}
	e.seq++
	ev.seq = e.seq
	if ev.at <= e.now {
		ev.at = e.now
		e.nowq = append(e.nowq, *ev)
	} else {
		e.heapPush(*ev)
	}
	if p := len(e.heap) + len(e.nowq) - e.nowHead + e.groupRemain; p > e.peak {
		e.peak = p
	}
}

// head returns the earliest pending event (nil when none) and whether it
// sits in the heap rather than the same-cycle FIFO (pop it with heapPop or
// popFIFO accordingly).
func (e *Engine) head() (*event, bool) {
	if e.nowHead < len(e.nowq) {
		f := &e.nowq[e.nowHead]
		// The FIFO head is at the current cycle; the heap top can only tie
		// it on cycle, in which case seq decides.
		if len(e.heap) > 0 && e.heap[0].before(f) {
			return &e.heap[0], true
		}
		return f, false
	}
	if len(e.heap) > 0 {
		return &e.heap[0], true
	}
	return nil, false
}

// popFIFO removes and returns the same-cycle FIFO head.
func (e *Engine) popFIFO() event {
	ev := e.nowq[e.nowHead]
	e.nowq[e.nowHead] = event{} // release callback references
	e.nowHead++
	if e.nowHead == len(e.nowq) {
		e.nowq = e.nowq[:0]
		e.nowHead = 0
	}
	return ev
}

// dispatch is the engine's one dispatch primitive. It pops the earliest
// pending event if its timestamp is <= deadline and advances time to it: a
// home event then fires alone, a shard event as the lead of a round (see
// runRound). It reports false, changing nothing, when no event is due.
func (e *Engine) dispatch(deadline Cycle) bool {
	h, inHeap := e.head()
	if h == nil || h.at > deadline {
		return false
	}
	var ev event
	if inHeap {
		ev = e.heapPop()
	} else {
		ev = e.popFIFO()
	}
	e.now = ev.at
	if ev.shard != 0 {
		e.runRound(&ev)
		return true
	}
	e.fired++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.afn(ev.arg)
	}
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	r := e.rootEngine()
	for r.dispatch(^Cycle(0)) {
	}
}

// RunUntil executes events with timestamp <= deadline, then sets Now to
// deadline if the simulation has not already passed it. Rounds never span
// cycles, so the cut lands exactly at deadline.
func (e *Engine) RunUntil(deadline Cycle) {
	r := e.rootEngine()
	for r.dispatch(deadline) {
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// RunWhile executes events until cond reports false or no events remain.
// cond is checked before each dispatch: a single home event or a whole
// round. Round granularity is intrinsic — it does not vary with
// SetParallel — so pump loops built on RunWhile observe identical progress
// at every parallelism level.
func (e *Engine) RunWhile(cond func() bool) {
	r := e.rootEngine()
	for cond() && r.dispatch(^Cycle(0)) {
	}
}

// ------------------------------------------------------------------- heap

// The heap is 4-ary: children of node i are 4i+1..4i+4. Compared to a binary
// heap this halves the tree depth, trading slightly more comparisons per
// level for far fewer event moves — a win because event values are several
// words wide. Sift operations move the displaced element through a hole
// instead of swapping, so each level costs one copy.

func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release callback references
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}
