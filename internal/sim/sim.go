// Package sim implements the discrete-event simulation engine that
// underlies every experiment in this repository.
//
// The engine is deliberately small: a virtual clock, a priority queue of
// timestamped events and a deterministic random source. Determinism is a
// hard requirement — the paper reports averages over 20 seeded runs with
// confidence intervals, so a given seed must always produce the same
// trajectory. Ties between events scheduled for the same instant are
// broken by scheduling order (a monotone sequence number).
//
// # Design
//
// The hot path is engineered to be allocation-free:
//
//   - Events live in a value-typed 4-ary heap ordered by (time, seq).
//     Value entries avoid the per-event pointer allocation of a
//     []*event heap, and the 4-ary layout halves the tree depth,
//     trading a few extra comparisons per level for far fewer
//     cache-missing swaps.
//   - One heap entry holds a run: a maximal sequence of events
//     scheduled back to back for one instant, such as a radio frame's
//     arrival ends at every in-range receiver followed by the sender's
//     tx end. Schedule links a new event onto the previous one when
//     that one was scheduled for the same instant and its run is still
//     queued, and pushes a new entry otherwise. A run's members got
//     consecutive sequence numbers, so no other entry's (time, seq)
//     key falls between two of them: Step advances the root to the
//     run's next member in place, with no sift, and pops the entry only
//     when the run ends. The executed order is exactly that of one
//     entry per event.
//   - Callbacks live in a free-list-backed slot table. An EventID is a
//     handle packing the slot index and a per-slot generation counter,
//     so Cancel validates in O(1) without a map.
//   - Cancellation is lazy: Cancel bumps the slot's generation, so the
//     EventID goes stale at once, and leaves the queue alone. A
//     cancelled run of one retires its slot at once; its heap entry is
//     recognised as debris when it surfaces at the root, because the
//     slot's sequence number no longer matches (the 64-bit sequence
//     never wraps, so the check is exact). A cancelled member of a
//     longer run stays linked, marked dead, and its slot is retired when
//     the run walks past it.
//   - When cancelled events outnumber live ones, the queue is compacted
//     in place: stale entries are dropped, every run is relinked from
//     its live members, and the heap is re-heapified in O(n). This
//     bounds memory for workloads that cancel almost everything they
//     schedule, such as protocol timers that are reset on every frame.
//
// The naive reference scheduler in the package tests is the oracle
// the heap is held to: randomized and fuzzed scripts of schedules,
// same-instant bursts, cancels, resets, steps and RunUntil calls,
// including pending sets of several thousand events, must produce the
// same execution order on both.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured as an offset from the start of the
// simulation. It reuses time.Duration so that arithmetic and formatting
// come for free.
type Time = time.Duration

// EventID is a handle to a scheduled event, usable with Cancel. It packs
// a slot-table index (low 32 bits, offset by one) and the slot's
// generation at issue time (high 32 bits). The zero EventID is never
// issued. A handle stays valid until its event runs or is cancelled;
// after that, Cancel on it reports false. (A stale handle could only
// alias a later event after 2^32 reuses of one slot — unreachable in
// any simulation this engine hosts.)
type EventID uint64

// ErrPastEvent is returned when an event is scheduled before the current
// virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// event is one value-typed heap entry. It stands for a run: events
// scheduled back to back for one instant, linked through their slots'
// next fields. at is the run's instant; seq and slot name the run's
// current head. The callback is not stored here — heap swaps move 24
// bytes, and the entry stays valid even after its slot has been
// retired (lazy cancellation).
type event struct {
	at   Time
	seq  uint64
	slot uint32
}

// eventSlot holds the callback, liveness state and run link for one
// handle. A slot lives from Schedule until its event runs or is
// cancelled, except that a cancelled member of a run of two or more
// events keeps its slot, marked dead, until the run walks past it or
// compaction unlinks it.
type eventSlot struct {
	fn   func()
	seq  uint64 // sequence of the occupying event; 0 when free
	gen  uint32 // bumped on every cancel and retire; validates EventIDs
	next uint32 // slot index+1 of the next run member; 0 at the run's end
	head bool   // first remaining member of its run, named by its heap entry
	dead bool   // cancelled, still linked into its run
}

// before reports whether a runs before b in the deterministic
// (time, seq) order.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// compactMinDead is the minimum number of cancelled events in the queue
// before compaction is considered; below it the O(n) sweep costs more
// than it saves. The trigger counts events, not heap entries, which
// count runs.
const compactMinDead = 64

// Scheduler owns the virtual clock and the pending event set.
// It is not safe for concurrent use; simulations are single-goroutine by
// design (determinism).
type Scheduler struct {
	now     Time
	queue   []event     // 4-ary min-heap of runs on (at, head seq)
	slots   []eventSlot // handle table
	free    []uint32    // retired slot indices, reused LIFO
	live    int         // scheduled and not yet run or cancelled
	dead    int         // cancelled events whose entry or slot is still queued
	tail    uint32      // slot index+1 of the last scheduled event while its run is queued; 0 otherwise
	tailAt  Time        // timestamp of the tail's run
	nextSeq uint64
	rng     *rand.Rand
	stopped bool

	// Processed counts events executed since construction; useful for
	// benchmarks and run diagnostics. Cancelled events never count.
	Processed uint64
}

// NewScheduler returns a scheduler starting at virtual time zero with a
// deterministic random source derived from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Schedule registers fn to run at virtual time at. It returns an EventID
// usable with Cancel, or an error if at precedes the current time.
func (s *Scheduler) Schedule(at Time, fn func()) (EventID, error) {
	if at < s.now {
		return 0, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	s.nextSeq++
	seq := s.nextSeq
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, eventSlot{})
		idx = uint32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.fn = fn
	sl.seq = seq
	if s.tail != 0 && s.tailAt == at {
		// The tail was scheduled just before, for the same instant, and
		// its run is queued: nothing can sort between the two.
		s.slots[s.tail-1].next = idx + 1
		sl.head = false
	} else {
		s.push(event{at: at, seq: seq, slot: idx})
		sl.head = true
	}
	s.tail, s.tailAt = idx+1, at
	s.live++
	return EventID(uint64(sl.gen)<<32 | uint64(idx+1)), nil
}

// After schedules fn to run d from now. Negative d is clamped to now, so
// protocol code can express "immediately" with zero.
func (s *Scheduler) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	id, err := s.Schedule(s.now+d, fn)
	if err != nil {
		// Unreachable: s.now+d >= s.now for d >= 0. Guard anyway.
		return 0
	}
	return id
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already ran, was cancelled, or never existed).
// Removal from the queue is lazy, so Cancel itself is O(1): a run of
// one retires its slot and leaves the heap entry to be skipped when it
// reaches the root; a member of a longer run stays linked as a dead
// member until the run walks past it.
func (s *Scheduler) Cancel(id EventID) bool {
	idx := uint32(id & 0xffffffff)
	if idx == 0 || int(idx) > len(s.slots) {
		return false
	}
	sl := &s.slots[idx-1]
	if sl.seq == 0 || sl.gen != uint32(id>>32) {
		return false
	}
	if sl.head && sl.next == 0 {
		if s.tail == idx {
			s.tail = 0
		}
		s.retire(idx - 1)
	} else {
		sl.fn = nil
		sl.gen++
		sl.dead = true
	}
	s.live--
	s.dead++
	if s.dead >= compactMinDead && s.dead > s.live {
		s.compact()
	}
	return true
}

// retire frees a slot: the callback is released, the occupying sequence
// cleared (so a heap entry naming it stops matching) and the generation
// bumped (so outstanding EventIDs stop matching).
func (s *Scheduler) retire(idx uint32) {
	sl := &s.slots[idx]
	sl.fn = nil
	sl.seq = 0
	sl.gen++
	sl.next = 0
	sl.dead = false
	s.free = append(s.free, idx)
}

// Pending returns the number of events waiting to run. Cancelled events
// are never counted, even while their heap entries or run slots await
// lazy discard, and compaction leaves the count unchanged.
func (s *Scheduler) Pending() int { return s.live }

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	for len(s.queue) > 0 {
		e := s.queue[0]
		sl := &s.slots[e.slot]
		if sl.seq != e.seq {
			s.pop() // a cancelled run of one
			s.dead--
			continue
		}
		fn, dead := sl.fn, sl.dead
		s.consumeHead()
		if dead {
			s.dead--
			continue
		}
		s.live--
		s.now = e.at
		s.Processed++
		fn()
		return true
	}
	return false
}

// consumeHead retires the head of the root run and moves the root to
// the run's next member in place, or pops the run when it ends. No sift
// is needed: the members' sequence numbers were consecutive when they
// were scheduled, so no other entry's (at, seq) key falls between them.
func (s *Scheduler) consumeHead() {
	idx := s.queue[0].slot
	next := s.slots[idx].next
	if s.tail == idx+1 {
		s.tail = 0
	}
	s.retire(idx)
	if next == 0 {
		s.pop()
		return
	}
	n := &s.slots[next-1]
	n.head = true
	s.queue[0].seq, s.queue[0].slot = n.seq, next-1
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, leaving later
// events pending, and advances the clock to deadline if the simulation
// did not already pass it. It stops early if Stop is called.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		at, ok := s.peek()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// peek returns the timestamp of the earliest live event, discarding any
// cancelled events that have surfaced at the heap root: stale entries
// of cancelled runs of one, and dead heads of longer runs.
func (s *Scheduler) peek() (Time, bool) {
	for len(s.queue) > 0 {
		e := s.queue[0]
		sl := &s.slots[e.slot]
		switch {
		case sl.seq != e.seq:
			s.pop()
		case sl.dead:
			s.consumeHead()
		default:
			return e.at, true
		}
		s.dead--
	}
	return 0, false
}

// 4-ary heap primitives. Children of i sit at 4i+1..4i+4.

func (s *Scheduler) push(e event) {
	s.queue = append(s.queue, e)
	i := len(s.queue) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(s.queue[p]) {
			break
		}
		s.queue[i] = s.queue[p]
		i = p
	}
	s.queue[i] = e
}

func (s *Scheduler) pop() {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue = s.queue[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
}

// siftDown places e at index i and restores the heap below it.
func (s *Scheduler) siftDown(i int, e event) {
	q := s.queue
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(e) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = e
}

// compact drops every cancelled event from the queue in place and
// re-heapifies: stale entries are filtered out, and each run is
// relinked from its live members, retiring its dead ones; a run with
// none left is dropped. A rebuilt run keeps its instant and its
// members' sequence numbers, so sift-downs, which only reorder by
// (at, seq) comparisons, leave the surviving execution order
// unchanged. The tail is cleared, since its slot may be gone.
func (s *Scheduler) compact() {
	kept := s.queue[:0]
	for _, e := range s.queue {
		if s.slots[e.slot].seq != e.seq {
			continue
		}
		var first, last uint32 // slot index+1
		for i := e.slot + 1; i != 0; {
			m := &s.slots[i-1]
			next := m.next
			switch {
			case m.dead:
				s.retire(i - 1)
			case first == 0:
				first, last = i, i
			default:
				s.slots[last-1].next = i
				last = i
			}
			i = next
		}
		if first == 0 {
			continue
		}
		s.slots[last-1].next = 0
		h := &s.slots[first-1]
		h.head = true
		kept = append(kept, event{at: e.at, seq: h.seq, slot: first - 1})
	}
	s.queue = kept
	s.dead = 0
	s.tail = 0
	if len(kept) < 2 {
		return
	}
	for i := (len(kept) - 2) / 4; i >= 0; i-- {
		s.siftDown(i, kept[i])
	}
}
