package sim

import (
	"testing"
	"time"
)

// Bounds that keep one fuzz input fast against the naive reference.
const (
	fuzzMaxOps     = 1024
	fuzzMaxPending = 1000
)

// FuzzSchedulerEquivalence decodes its input into a script of
// schedule, burst, cancel, reset, step and RunUntil operations, runs it
// against the scheduler and the reference side by side, and compares
// execution order, clock, Pending() and Processed after every
// operation. Executed events schedule delay-0 children as on the
// "runs" equivalence arm, so callbacks extend the run at the root.
//
// Each operation takes two bytes, an opcode byte c and an argument
// byte a. c%6 picks the operation; delays are a%8 ms, so timestamps
// collide constantly; a burst has 2+(c/6)%39 members; cancel and reset
// target script slot ((c/6)<<8|a) modulo the slots scheduled so far,
// and a reset reschedules (c/6)%8 ms from now. The reference costs
// O(pending) per operation, so inputs are cut at fuzzMaxOps operations
// and schedule and burst do nothing while fuzzMaxPending events wait.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := &equivalenceScript{s: NewScheduler(1), ref: &refScheduler{}, spawn: true}
		for op := 0; op < fuzzMaxOps && len(data) >= 2; op++ {
			c, a := int(data[0]), int(data[1])
			data = data[2:]
			d := time.Duration(a%8) * time.Millisecond
			target := func() int { return (c/6<<8 | a) % len(sc.simIDs) }
			full := sc.s.Pending() >= fuzzMaxPending
			switch c % 6 {
			case 0:
				if !full {
					sc.add(d)
				}
			case 1:
				if !full {
					sc.burst(2+(c/6)%39, d)
				}
			case 2:
				if len(sc.simIDs) > 0 {
					sc.cancel(t, op, target(), &sc.cov.cancels)
				}
			case 3:
				if len(sc.simIDs) > 0 {
					sc.reset(t, op, target(), func() time.Duration { return time.Duration(c/6%8) * time.Millisecond })
				}
			case 4:
				sc.step(t, op)
			case 5:
				sc.runUntil(d)
			}
			sc.check(t, op)
		}
		sc.drainAndCompare(t)
	})
}
