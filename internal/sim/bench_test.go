package sim_test

import (
	"fmt"
	"testing"

	"bulktx/internal/bench"
)

// The bodies live in internal/bench so cmd/bcp-bench's committed JSON
// baselines measure exactly these workloads.

// BenchmarkScheduleRun measures raw event throughput: schedule + execute.
func BenchmarkScheduleRun(b *testing.B) { bench.ScheduleRun(b) }

// BenchmarkScheduleCancel measures the cancel path (lazy handle retire).
func BenchmarkScheduleCancel(b *testing.B) { bench.ScheduleCancel(b) }

// BenchmarkTimerReset measures the protocol-timer rearm pattern.
func BenchmarkTimerReset(b *testing.B) { bench.TimerReset(b) }

// BenchmarkFanOut measures one same-instant fan-out of k events: k=4
// is the grid-20k shape, k=35 a full 36-node broadcast.
func BenchmarkFanOut(b *testing.B) {
	for _, k := range []int{4, 35} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) { bench.FanOut(b, k) })
	}
}
