package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refScheduler is a deliberately naive reference implementation: an
// unordered pending list scanned linearly for the (at, seq) minimum,
// with eager cancellation. It defines the semantics the optimized
// value-heap scheduler must reproduce exactly.
type refScheduler struct {
	now       Time
	seq       uint64
	pending   []refEvent
	processed uint64
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

func (r *refScheduler) schedule(d time.Duration, fn func()) uint64 {
	if d < 0 {
		d = 0
	}
	r.seq++
	r.pending = append(r.pending, refEvent{at: r.now + d, seq: r.seq, fn: fn})
	return r.seq
}

func (r *refScheduler) cancel(seq uint64) bool {
	for i, e := range r.pending {
		if e.seq == seq {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

// next returns the index of the earliest pending event in (at, seq)
// order, or -1 when nothing is pending.
func (r *refScheduler) next() int {
	m := -1
	for i, e := range r.pending {
		if m < 0 || e.at < r.pending[m].at || (e.at == r.pending[m].at && e.seq < r.pending[m].seq) {
			m = i
		}
	}
	return m
}

func (r *refScheduler) step() bool {
	m := r.next()
	if m < 0 {
		return false
	}
	e := r.pending[m]
	r.pending = append(r.pending[:m], r.pending[m+1:]...)
	r.now = e.at
	r.processed++
	e.fn()
	return true
}

func (r *refScheduler) runUntil(deadline Time) {
	for m := r.next(); m >= 0 && r.pending[m].at <= deadline; m = r.next() {
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// TestSchedulerEquivalence drives the real scheduler and the reference
// with an identical random script of operations and asserts identical
// execution order, clock, pending count, and processed count
// throughout. Colliding timestamps are frequent by construction (50
// distinct delays across hundreds of events) so the (time, seq)
// tie-break is exercised hard; the reset op (cancel + reschedule, one
// sequence number on each side) mirrors Timer.Reset's churn, the
// workload that generates cancelled debris.
func TestSchedulerEquivalence(t *testing.T) {
	for _, arm := range equivalenceArms {
		t.Run(arm.name, func(t *testing.T) {
			var cov runCoverage
			for trial := 0; trial < 25; trial++ {
				rng := rand.New(rand.NewSource(arm.seed + 1000 + int64(trial)))
				sc := newEquivalenceScript(rng, 50)
				sc.spawn = arm.spawn
				sc.run(t, 300+rng.Intn(300), arm.mix)
				for _, ph := range arm.then {
					sc.run(t, ph.ops, ph.mix)
				}
				sc.drainAndCompare(t)
				cov.add(sc.cov)
			}
			if arm.spawn {
				t.Logf("run coverage: %+v", cov)
				cov.require(t)
			}
		})
	}
}

// equivalenceArms splits the random equivalence scripts into two
// subtests drawing from disjoint seed ranges. "heap" schedules one
// event at a time, so nearly every heap entry holds a single event.
// "runs" adds the shapes that put several events under one heap entry:
// bursts of back-to-back schedules for one instant (Channel.start's
// fan-out), delay-0 children scheduled from inside callbacks, RunUntil,
// and a cancel-heavy phase that compacts the queue while runs are in it.
var equivalenceArms = []struct {
	name  string
	seed  int64
	mix   opMix
	spawn bool    // executed events schedule delay-0 children
	then  []phase // phases after the main one
}{
	{name: "heap", seed: 0, mix: opMix{schedule: 6, cancel: 2, reset: 2, step: 2}},
	{name: "runs", seed: 100000, spawn: true,
		mix: opMix{schedule: 3, burst: 2, cancel: 2, reset: 2, step: 2, runUntil: 1},
		then: []phase{
			{80, opMix{schedule: 1, burst: 3, step: 1}}, // queue hundreds of burst events
			{3000, opMix{cancel: 8, reset: 1, step: 1}}, // cancel until compaction
		}},
}

// phase is a run of ops random operations drawn from mix.
type phase struct {
	ops int
	mix opMix
}

// runCoverage counts the run shapes a script reached, so the "runs"
// arm can show that it exercises what it exists for.
type runCoverage struct {
	// cancels and resets count hits on the head, a middle member and
	// the last member of a run of two or more events.
	cancels, resets [3]int
	rootAppends     int // delay-0 schedules that extend the run at the heap root
	compactedRuns   int // compactions of a queue holding a run of two or more events
}

func (c *runCoverage) add(o runCoverage) {
	for i := range c.cancels {
		c.cancels[i] += o.cancels[i]
		c.resets[i] += o.resets[i]
	}
	c.rootAppends += o.rootAppends
	c.compactedRuns += o.compactedRuns
}

func (c runCoverage) require(t *testing.T) {
	t.Helper()
	for i, pos := range []string{"head", "middle", "tail"} {
		if c.cancels[i] == 0 || c.resets[i] == 0 {
			t.Errorf("no cancel or no reset hit a run's %s (cancels %v, resets %v)", pos, c.cancels, c.resets)
		}
	}
	if c.rootAppends == 0 {
		t.Error("no delay-0 schedule extended the run at the heap root")
	}
	if c.compactedRuns == 0 {
		t.Error("no compaction ran while the queue held a run")
	}
}

// TestSchedulerEquivalenceLargePending holds the heap to the reference
// on a pending set larger than any benchmark run reaches (the 20k-node
// grid peaks at about 4,550 live events). A schedule-heavy phase grows
// the live set past 5,000 with cancels and resets burying debris deep
// in the heap; a cancel-heavy phase then piles up enough debris to
// compact a queue of more than 5,000 events.
func TestSchedulerEquivalenceLargePending(t *testing.T) {
	for trial := 0; trial < 2; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		sc := newEquivalenceScript(rng, 500)
		sc.run(t, 18000, opMix{schedule: 6, cancel: 2, reset: 2, step: 1})
		if sc.peakPending <= 5000 {
			t.Fatalf("trial %d: pending set peaked at %d, want > 5000", trial, sc.peakPending)
		}
		sc.run(t, 8000, opMix{schedule: 1, cancel: 6, reset: 2, step: 1})
		if sc.peakCompacted <= 5000 {
			t.Fatalf("trial %d: largest compacted queue held %d events, want > 5000", trial, sc.peakCompacted)
		}
		sc.drainAndCompare(t)
	}
}

// opMix weights the script operations.
type opMix struct{ schedule, cancel, reset, step, burst, runUntil int }

// equivalenceScript applies one op sequence to a scheduler and a
// reference side by side. Script slot i names the i-th scheduled event
// on both sides; a reset keeps its slot. The ops take their arguments
// explicitly, so the random scripts (run) and a fuzzer can both feed them.
type equivalenceScript struct {
	rng    *rand.Rand // draws run's ops
	delays int        // run's events land 0..delays-1 ms from now
	spawn  bool       // executed events schedule delay-0 children
	s      *Scheduler
	ref    *refScheduler
	simIDs []EventID
	refIDs []uint64

	gotLog, wantLog        []int
	simSpawned, refSpawned int // children labelled so far on each side
	checked                int // log entries already compared

	peakPending   int // largest Pending() seen after an op
	peakCompacted int // largest queue, in events, a compaction has filtered
	cov           runCoverage
}

func newEquivalenceScript(rng *rand.Rand, delays int) *equivalenceScript {
	return &equivalenceScript{rng: rng, delays: delays, s: NewScheduler(1), ref: &refScheduler{}}
}

// spawnDepth bounds how many generations of children a script event
// can start.
const spawnDepth = 2

// children returns how many delay-0 children an executed event with
// this label schedules: a third of the labels fan out to one to four.
func (sc *equivalenceScript) children(label, depth int) int {
	if !sc.spawn || depth == 0 || label%3 != 0 {
		return 0
	}
	if label < 0 {
		label = -label
	}
	return 1 + label%4
}

// simEvent and refEvent build the two sides' callbacks for one label.
// Children are labelled -1, -2, ... in the order each side schedules
// them, so the labels agree only if the execution orders do.
func (sc *equivalenceScript) simEvent(label, depth int) func() {
	return func() {
		sc.gotLog = append(sc.gotLog, label)
		for range sc.children(label, depth) {
			if sc.s.tail != 0 && sc.s.tailAt == sc.s.now && inRootRun(sc.s, sc.s.tail-1) {
				sc.cov.rootAppends++
			}
			sc.simSpawned++
			sc.s.After(0, sc.simEvent(-sc.simSpawned, depth-1))
		}
	}
}

func (sc *equivalenceScript) refEvent(label, depth int) func() {
	return func() {
		sc.wantLog = append(sc.wantLog, label)
		for range sc.children(label, depth) {
			sc.refSpawned++
			sc.ref.schedule(0, sc.refEvent(-sc.refSpawned, depth-1))
		}
	}
}

// inRootRun reports whether slot idx is a member of the run at the
// heap root.
func inRootRun(s *Scheduler, idx uint32) bool {
	if len(s.queue) == 0 || s.slots[s.queue[0].slot].seq != s.queue[0].seq {
		return false
	}
	for i := s.queue[0].slot + 1; i != 0; i = s.slots[i-1].next {
		if i-1 == idx {
			return true
		}
	}
	return false
}

func (sc *equivalenceScript) schedule(slot int, d time.Duration) (EventID, uint64) {
	return sc.s.After(d, sc.simEvent(slot, spawnDepth)), sc.ref.schedule(d, sc.refEvent(slot, spawnDepth))
}

// add schedules a new script slot d from now on both sides.
func (sc *equivalenceScript) add(d time.Duration) {
	id, rid := sc.schedule(len(sc.simIDs), d)
	sc.simIDs = append(sc.simIDs, id)
	sc.refIDs = append(sc.refIDs, rid)
}

// burst schedules k new script slots back to back for one instant,
// the shape of one radio fan-out.
func (sc *equivalenceScript) burst(k int, d time.Duration) {
	for range k {
		sc.add(d)
	}
}

// runPosition classifies the event a handle names within its run:
// 0 head, 1 middle, 2 last member, or -1 when it is not a queued
// member of a run of two or more events.
func runPosition(s *Scheduler, id EventID) int {
	idx := uint32(id & 0xffffffff)
	if idx == 0 || int(idx) > len(s.slots) {
		return -1
	}
	sl := s.slots[idx-1]
	switch {
	case sl.seq == 0 || sl.gen != uint32(id>>32):
		return -1
	case sl.head && sl.next != 0:
		return 0
	case sl.head:
		return -1
	case sl.next != 0:
		return 1
	default:
		return 2
	}
}

// cancel cancels script slot i (possibly already dead) on both sides
// and reports whether it was pending; hits counts where it sat in its
// run.
func (sc *equivalenceScript) cancel(t *testing.T, op, i int, hits *[3]int) bool {
	t.Helper()
	if pos := runPosition(sc.s, sc.simIDs[i]); pos >= 0 {
		hits[pos]++
	}
	events, entries, dead := sc.s.live+sc.s.dead, len(sc.s.queue), sc.s.dead
	g := sc.s.Cancel(sc.simIDs[i])
	w := sc.ref.cancel(sc.refIDs[i])
	if g != w {
		t.Fatalf("op %d: Cancel(slot %d) = %v, reference says %v", op, i, g, w)
	}
	if g && sc.s.dead < dead {
		sc.peakCompacted = max(sc.peakCompacted, events)
		if events > entries {
			sc.cov.compactedRuns++
		}
	}
	return g
}

// reset cancels script slot i and, if it was pending, reschedules it
// d() from now, as Timer.Reset does. d is called only then, so a random
// script draws a delay only for a cancel that succeeded.
func (sc *equivalenceScript) reset(t *testing.T, op, i int, d func() time.Duration) {
	t.Helper()
	if sc.cancel(t, op, i, &sc.cov.resets) {
		sc.simIDs[i], sc.refIDs[i] = sc.schedule(i, d())
	}
}

func (sc *equivalenceScript) step(t *testing.T, op int) {
	t.Helper()
	if g, w := sc.s.Step(), sc.ref.step(); g != w {
		t.Fatalf("op %d: Step() = %v, reference says %v", op, g, w)
	}
}

func (sc *equivalenceScript) runUntil(d time.Duration) {
	sc.s.RunUntil(sc.s.Now() + d)
	sc.ref.runUntil(sc.ref.now + d)
}

// check compares the two sides after an op: pending and processed
// counts, clocks, and the log entries executed since the last check.
func (sc *equivalenceScript) check(t *testing.T, op int) {
	t.Helper()
	if sc.s.Pending() != len(sc.ref.pending) {
		t.Fatalf("op %d: Pending() = %d, reference has %d", op, sc.s.Pending(), len(sc.ref.pending))
	}
	if sc.s.Processed != sc.ref.processed || sc.s.Now() != sc.ref.now {
		t.Fatalf("op %d: clock/processed (%v, %d) vs reference (%v, %d)",
			op, sc.s.Now(), sc.s.Processed, sc.ref.now, sc.ref.processed)
	}
	for ; sc.checked < len(sc.wantLog); sc.checked++ {
		if g, w := sc.gotLog[sc.checked], sc.wantLog[sc.checked]; g != w {
			t.Fatalf("op %d: execution order diverges at index %d: got %d, want %d", op, sc.checked, g, w)
		}
	}
	sc.peakPending = max(sc.peakPending, sc.s.Pending())
}

// run applies ops random operations drawn from mix, checking both
// sides against each other after each.
func (sc *equivalenceScript) run(t *testing.T, ops int, mix opMix) {
	t.Helper()
	delay := func() time.Duration { return time.Duration(sc.rng.Intn(sc.delays)) * time.Millisecond }
	total := mix.schedule + mix.cancel + mix.reset + mix.step + mix.burst + mix.runUntil
	for op := 0; op < ops; op++ {
		k := sc.rng.Intn(total)
		switch {
		case k < mix.schedule:
			sc.add(delay())
		case k < mix.schedule+mix.burst:
			sc.burst(2+sc.rng.Intn(39), delay())
		case k < mix.schedule+mix.burst+mix.runUntil:
			sc.runUntil(delay())
		case len(sc.simIDs) == 0:
		case k < mix.schedule+mix.burst+mix.runUntil+mix.cancel:
			sc.cancel(t, op, sc.rng.Intn(len(sc.simIDs)), &sc.cov.cancels)
		case k < mix.schedule+mix.burst+mix.runUntil+mix.cancel+mix.reset:
			sc.reset(t, op, sc.rng.Intn(len(sc.simIDs)), delay)
		default:
			sc.step(t, op)
		}
		sc.check(t, op)
	}
}

// drainAndCompare runs both sides dry and compares their execution
// logs, clocks and processed counts.
func (sc *equivalenceScript) drainAndCompare(t *testing.T) {
	t.Helper()
	for sc.s.Step() {
	}
	for sc.ref.step() {
	}
	if len(sc.gotLog) != len(sc.wantLog) {
		t.Fatalf("executed %d events, reference %d", len(sc.gotLog), len(sc.wantLog))
	}
	sc.check(t, -1)
}

// TestSchedulerEquivalenceNested repeats the exercise with reentrancy:
// every executed event whose label is divisible by three schedules a
// child (with a label derived deterministically from its own), and
// labels divisible by five cancel the child they scheduled one beat
// earlier. On the "runs" arm such an event schedules one to four
// children back to back for one instant instead, and cancels the
// middle one. Both sides derive children independently, so any
// divergence in execution order cascades into a visible log mismatch.
func TestSchedulerEquivalenceNested(t *testing.T) {
	for _, arm := range equivalenceArms {
		t.Run(arm.name, func(t *testing.T) { testEquivalenceNested(t, arm.seed, arm.spawn) })
	}
}

func testEquivalenceNested(t *testing.T, seed int64, fan bool) {
	fanOut := func(l int) int {
		if fan {
			return 1 + l%4
		}
		return 1
	}
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(seed + 7000 + int64(trial)))
		s := NewScheduler(1)
		ref := &refScheduler{}
		var gotLog, wantLog []int

		var simFn func(l, depth int) func()
		simFn = func(l, depth int) func() {
			return func() {
				gotLog = append(gotLog, l)
				if depth > 0 && l%3 == 0 {
					d := time.Duration(l%11) * time.Millisecond
					n := fanOut(l)
					for j := range n {
						id := s.After(d, simFn(l*5+1+j, depth-1))
						if l%5 == 0 && j == n/2 {
							s.Cancel(id)
						}
					}
				}
			}
		}
		var refFn func(l, depth int) func()
		refFn = func(l, depth int) func() {
			return func() {
				wantLog = append(wantLog, l)
				if depth > 0 && l%3 == 0 {
					d := time.Duration(l%11) * time.Millisecond
					n := fanOut(l)
					for j := range n {
						id := ref.schedule(d, refFn(l*5+1+j, depth-1))
						if l%5 == 0 && j == n/2 {
							ref.cancel(id)
						}
					}
				}
			}
		}

		for i := 0; i < 120; i++ {
			l := rng.Intn(1000)
			d := time.Duration(rng.Intn(30)) * time.Millisecond
			s.After(d, simFn(l, 4))
			ref.schedule(d, refFn(l, 4))
		}
		s.Run()
		for ref.step() {
		}

		if len(gotLog) != len(wantLog) {
			t.Fatalf("trial %d: executed %d events, reference %d", trial, len(gotLog), len(wantLog))
		}
		for i := range wantLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("trial %d: execution order diverges at index %d: got %d, want %d",
					trial, i, gotLog[i], wantLog[i])
			}
		}
		if s.Now() != ref.now || s.Processed != ref.processed {
			t.Fatalf("trial %d: clock/processed (%v, %d) vs reference (%v, %d)",
				trial, s.Now(), s.Processed, ref.now, ref.processed)
		}
	}
}
