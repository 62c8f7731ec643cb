// Package bench hosts the repository's core benchmark bodies in one
// place, so the in-tree `go test -bench` benchmarks, the cmd/bcp-bench
// baseline emitter (BENCH_PR*.json) and CI's bench smoke all measure
// the identical workloads — a baseline cannot silently drift from what
// the test benchmarks run.
package bench

import (
	"testing"
	"time"

	"bulktx"
	"bulktx/internal/sim"
)

// ScheduleRun measures raw event throughput: schedule + execute.
func ScheduleRun(b *testing.B) {
	s := sim.NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

// ScheduleCancel measures the cancel path (lazy handle retire).
func ScheduleCancel(b *testing.B) {
	s := sim.NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := s.After(time.Duration(i%1000)*time.Microsecond, func() {})
		s.Cancel(id)
	}
}

// TimerReset measures the protocol-timer rearm pattern.
func TimerReset(b *testing.B) {
	s := sim.NewScheduler(1)
	tm := sim.NewTimer(s, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Millisecond)
	}
	tm.Stop()
}

// FanOut measures one radio fan-out: k events scheduled back to back
// for one instant (k-1 receivers' arrival ends and the sender's tx
// end, as Channel.start schedules them) and then executed, beside 128
// pending events far in the future so the heap has depth. One op is
// one fan-out of k events.
func FanOut(b *testing.B, k int) {
	s := sim.NewScheduler(1)
	fn := func() {}
	for i := range 128 {
		s.After(time.Duration(1000+i)*time.Hour, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := s.Now() + time.Millisecond
		for range k {
			if _, err := s.Schedule(at, fn); err != nil {
				b.Fatal(err)
			}
		}
		s.RunUntil(at)
	}
}

// SimulationThroughput measures raw simulator speed: events per second
// on one dual-radio run (15 senders, burst 100, 2 Kbps).
func SimulationThroughput(b *testing.B) {
	cfg := bulktx.NewSimConfig(bulktx.ModelDual, 15, 100, 1)
	cfg.Duration = 60 * time.Second
	cfg.Rate = 2 * bulktx.Kbps
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := bulktx.RunSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
