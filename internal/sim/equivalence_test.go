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

func (r *refScheduler) step() bool {
	if len(r.pending) == 0 {
		return false
	}
	m := 0
	for i, e := range r.pending {
		if e.at < r.pending[m].at || (e.at == r.pending[m].at && e.seq < r.pending[m].seq) {
			m = i
		}
	}
	e := r.pending[m]
	r.pending = append(r.pending[:m], r.pending[m+1:]...)
	r.now = e.at
	r.processed++
	e.fn()
	return true
}

// TestSchedulerEquivalence drives the real scheduler and the reference
// with an identical random script of Schedule/Cancel/Reset/Step ops and
// asserts identical execution order, clock, pending count, and processed
// count throughout. Colliding timestamps are frequent by construction
// (50 distinct delays across hundreds of events) so the (time, seq)
// tie-break is exercised hard; the reset op (cancel + reschedule, one
// sequence number on each side) mirrors Timer.Reset's churn, the
// workload that generates cancelled debris.
func TestSchedulerEquivalence(t *testing.T) {
	for _, arm := range equivalenceArms {
		t.Run(arm.name, func(t *testing.T) {
			for trial := 0; trial < 25; trial++ {
				rng := rand.New(rand.NewSource(arm.seed + 1000 + int64(trial)))
				sc := newEquivalenceScript(rng, 50)
				sc.run(t, 300+rng.Intn(300), opMix{schedule: 6, cancel: 2, reset: 2, step: 2})
				sc.drainAndCompare(t)
			}
		})
	}
}

// equivalenceArms splits the random equivalence scripts into two
// subtests drawing from disjoint seed ranges. Both run on the scheduler
// NewScheduler builds: "heap" names its backend, and "auto" names it as
// the default every simulation gets, which is the same heap, so the
// second arm widens the random coverage rather than testing another
// backend.
var equivalenceArms = []struct {
	name string
	seed int64
}{
	{"heap", 0},
	{"auto", 100000},
}

// TestSchedulerEquivalenceLargePending holds the heap to the reference
// on a pending set larger than any benchmark run reaches (the 20k-node
// grid peaks at about 4,550 live events). A schedule-heavy phase grows
// the live set past 5,000 with cancels and resets burying debris deep
// in the heap; a cancel-heavy phase then piles up enough debris to
// compact the heap while it still holds more than 5,000 entries.
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
			t.Fatalf("trial %d: largest compacted heap held %d entries, want > 5000", trial, sc.peakCompacted)
		}
		sc.drainAndCompare(t)
	}
}

// opMix weights the four script operations.
type opMix struct{ schedule, cancel, reset, step int }

// equivalenceScript applies one random op sequence to a scheduler and
// a reference side by side. Script slot i names the i-th scheduled
// event on both sides; a reset keeps its slot.
type equivalenceScript struct {
	rng    *rand.Rand
	delays int // events land 0..delays-1 ms from now
	s      *Scheduler
	ref    *refScheduler
	simIDs []EventID
	refIDs []uint64

	gotLog, wantLog []int

	peakPending   int // largest Pending() seen after an op
	peakCompacted int // largest heap a compaction has filtered
}

func newEquivalenceScript(rng *rand.Rand, delays int) *equivalenceScript {
	return &equivalenceScript{rng: rng, delays: delays, s: NewScheduler(1), ref: &refScheduler{}}
}

func (sc *equivalenceScript) schedule(slot int) (EventID, uint64) {
	d := time.Duration(sc.rng.Intn(sc.delays)) * time.Millisecond
	return sc.s.After(d, func() { sc.gotLog = append(sc.gotLog, slot) }),
		sc.ref.schedule(d, func() { sc.wantLog = append(sc.wantLog, slot) })
}

// cancel cancels a random script slot (possibly already dead) on both
// sides and returns the slot and whether it was pending.
func (sc *equivalenceScript) cancel(t *testing.T, op int) (int, bool) {
	t.Helper()
	i := sc.rng.Intn(len(sc.simIDs))
	queued, dead := len(sc.s.queue), sc.s.dead
	g := sc.s.Cancel(sc.simIDs[i])
	w := sc.ref.cancel(sc.refIDs[i])
	if g != w {
		t.Fatalf("op %d: Cancel(slot %d) = %v, reference says %v", op, i, g, w)
	}
	if g && sc.s.dead < dead {
		sc.peakCompacted = max(sc.peakCompacted, queued)
	}
	return i, g
}

// run applies ops random operations drawn from mix, checking Pending()
// against the reference after each.
func (sc *equivalenceScript) run(t *testing.T, ops int, mix opMix) {
	t.Helper()
	for op := 0; op < ops; op++ {
		k := sc.rng.Intn(mix.schedule + mix.cancel + mix.reset + mix.step)
		switch {
		case k < mix.schedule:
			id, rid := sc.schedule(len(sc.simIDs))
			sc.simIDs = append(sc.simIDs, id)
			sc.refIDs = append(sc.refIDs, rid)
		case len(sc.simIDs) == 0:
		case k < mix.schedule+mix.cancel:
			sc.cancel(t, op)
		case k < mix.schedule+mix.cancel+mix.reset:
			if i, ok := sc.cancel(t, op); ok {
				sc.simIDs[i], sc.refIDs[i] = sc.schedule(i)
			}
		default:
			if g, w := sc.s.Step(), sc.ref.step(); g != w {
				t.Fatalf("op %d: Step() = %v, reference says %v", op, g, w)
			}
		}
		if sc.s.Pending() != len(sc.ref.pending) {
			t.Fatalf("op %d: Pending() = %d, reference has %d", op, sc.s.Pending(), len(sc.ref.pending))
		}
		sc.peakPending = max(sc.peakPending, sc.s.Pending())
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
	for i := range sc.wantLog {
		if sc.gotLog[i] != sc.wantLog[i] {
			t.Fatalf("execution order diverges at index %d: got %d, want %d", i, sc.gotLog[i], sc.wantLog[i])
		}
	}
	if sc.s.Now() != sc.ref.now {
		t.Fatalf("clock %v, reference %v", sc.s.Now(), sc.ref.now)
	}
	if sc.s.Processed != sc.ref.processed {
		t.Fatalf("Processed %d, reference %d", sc.s.Processed, sc.ref.processed)
	}
}

// TestSchedulerEquivalenceNested repeats the exercise with reentrancy:
// every executed event whose label is divisible by three schedules a
// child (with a label derived deterministically from its own), and
// labels divisible by five cancel the child they scheduled one beat
// earlier. Both sides derive children independently, so any divergence
// in execution order cascades into a visible log mismatch.
func TestSchedulerEquivalenceNested(t *testing.T) {
	for _, arm := range equivalenceArms {
		t.Run(arm.name, func(t *testing.T) { testEquivalenceNested(t, arm.seed) })
	}
}

func testEquivalenceNested(t *testing.T, seed int64) {
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
					id := s.After(d, simFn(l*5+1, depth-1))
					if l%5 == 0 {
						s.Cancel(id)
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
					id := ref.schedule(d, refFn(l*5+1, depth-1))
					if l%5 == 0 {
						ref.cancel(id)
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
