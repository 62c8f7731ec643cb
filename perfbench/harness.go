package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"bulktx/internal/netsim"
)

// heapSampleEvery is how often the heap sampler reads the live heap
// while a repetition runs.
const heapSampleEvery = time.Millisecond

// rep is one measured repetition of a workload's body.
type rep struct {
	wall       float64 // seconds
	cpu        float64 // process CPU seconds, user and system
	allocBytes float64 // bytes allocated during the repetition
	heapPeak   float64 // highest sampled heap-object bytes
	work       counts  // what the repetition's jobs did
}

// cpuSeconds returns the CPU time the process has used, all threads,
// user and system. A Linux guest built with
// CONFIG_PARAVIRT_TIME_ACCOUNTING leaves out the time the hypervisor
// stole, so on a shared virtual machine it tracks the work done where
// wall time does not.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// phase is a run of repetitions measured back to back.
type phase struct {
	reps     []rep
	gcCycles float64
	gcCPU    float64 // GC CPU time over available CPU time (GOMAXPROCS x wall)
}

func (p phase) values(f func(rep) float64) []float64 {
	xs := make([]float64, len(p.reps))
	for i, r := range p.reps {
		xs[i] = f(r)
	}
	return xs
}

func (p phase) walls() []float64 { return p.values(func(r rep) float64 { return r.wall }) }

func (p phase) total(f func(rep) float64) float64 {
	var sum float64
	for _, r := range p.reps {
		sum += f(r)
	}
	return sum
}

// runtimeCounters are the runtime/metrics values a phase reports as
// deltas.
var runtimeCounters = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters() []float64 {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// sampleHeap reads the heap-object bytes every heapSampleEvery until
// stop is closed, then sends the highest reading on the returned
// channel.
func sampleHeap(stop <-chan struct{}) <-chan float64 {
	peak := make(chan float64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var hi uint64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			hi = max(hi, s[0].Value.Uint64())
			select {
			case <-stop:
				peak <- float64(hi)
				return
			case <-tick.C:
			}
		}
	}()
	return peak
}

// collect runs two garbage collections: the first moves sync.Pool
// contents to the victim cache and the second frees them. Timed work
// that starts after it finds a collected heap and empty pools, as in a
// fresh process, so its heap peak, allocation and GC work do not
// depend on what earlier work left behind or on which processor
// pooled it.
func collect() {
	runtime.GC()
	runtime.GC()
}

// measure runs body repeatedly, at least once, until d has elapsed,
// and records each repetition's wall time, CPU time, allocation, heap
// peak and the work t counted during it. Each repetition starts after
// collect. The runtime counters cover the repetitions only, not the
// collections between them.
func measure(d time.Duration, t *tally, body func()) phase {
	start := time.Now()
	var p phase
	var gcCPU, availCPU float64 // runtime/metrics CPU classes
	for len(p.reps) == 0 || time.Since(start) < d {
		collect()
		before, work0 := readCounters(), t.counts()
		stop := make(chan struct{})
		peak := sampleHeap(stop)
		cpu0, t0 := cpuSeconds(), time.Now()
		body()
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
		close(stop)
		after, work := readCounters(), t.counts()
		p.reps = append(p.reps, rep{
			wall: wall, cpu: cpu, allocBytes: after[0] - before[0], heapPeak: <-peak,
			work: counts{work.jobs - work0.jobs, work.cells - work0.cells, work.events - work0.events},
		})
		p.gcCycles += after[1] - before[1]
		gcCPU += after[2] - before[2]
		availCPU += after[3] - before[3]
	}
	if availCPU > 0 {
		p.gcCPU = gcCPU / availCPU
	}
	return p
}

// timeSetup returns set-up cost in process CPU seconds per call. It
// calls fn in batches of perBatch calls and returns each batch's CPU
// time per call, garbage collection included. Each batch starts after
// collect and keeps the calling goroutine on one OS thread; the
// cleanups fn returns run after the batch, untimed. Set-up calls are
// short, so their wall time is dominated by how soon the hypervisor
// runs an idle virtual CPU that a goroutine wakes; CPU time does not
// wait on that, and a batch spreads the collections its allocation
// causes over many calls.
func timeSetup(batches, perBatch int, fn func() (cleanup func() error, err error)) ([]float64, error) {
	out := make([]float64, 0, batches)
	for range batches {
		collect()
		runtime.LockOSThread()
		var cleanups []func() error
		var err error
		cpu0 := cpuSeconds()
		for range perBatch {
			cleanup, ferr := fn()
			if ferr != nil {
				err = ferr
				break
			}
			if cleanup != nil {
				cleanups = append(cleanups, cleanup)
			}
		}
		cpu := cpuSeconds() - cpu0
		runtime.UnlockOSThread()
		for _, cleanup := range cleanups {
			err = errors.Join(err, cleanup())
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out = append(out, cpu/float64(perBatch))
	}
	return out, nil
}

// traceRun is the measurement of a --trace 1 run: half of c.seconds
// untraced, for the wall-clock view and the tracing overhead, then half
// under a CPU profile with tr recording spans. It writes the profile
// and the spans under c.outDir and returns the per-layer metrics every
// workload shares, with the tail note of the untraced half.
func traceRun(c config, workload string, setup []float64, t *tally, tr *tracer, body func(*tracer) func()) (map[string]float64, string, error) {
	untraced := measure(c.seconds/2, t, body(nil))
	m, note := endToEndMetrics(setup, untraced, t)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, "", fmt.Errorf("cpu profile: %w", err)
	}
	traced := measure(c.seconds/2, t, body(tr))
	pprof.StopCPUProfile()
	stem := filepath.Join(c.outDir, fmt.Sprintf("%s-seed%d", workload, c.seed))
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, "", err
	}
	if err := os.WriteFile(stem+".cpu.pprof", buf.Bytes(), 0o644); err != nil {
		return nil, "", err
	}
	if err := tr.write(stem + ".spans.json"); err != nil {
		return nil, "", err
	}
	shares, samples, err := cpuShares(stem + ".cpu.pprof")
	if err != nil {
		return nil, "", err
	}
	m["runtime.gc_cpu_frac"] = traced.gcCPU
	m["runtime.gc_cycles"] = traced.gcCycles / float64(len(traced.reps))
	m["trace.overhead_frac"] = median(traced.walls())/median(untraced.walls()) - 1
	var covered float64
	for _, mod := range profiledModules {
		m[cpuFracName(mod)] = shares[mod]
		covered += shares[mod]
	}
	m["profile.samples"] = float64(samples)
	m["profile.covered_frac"] = covered
	return m, note, nil
}

// mib is the byte count of the MiB unit memory metrics report in.
const mib = 1 << 20

// tally counts what a workload's repetitions did. Its methods may be
// called from several goroutines.
type tally struct {
	mu        sync.Mutex
	latencies []float64 // per job, seconds
	cells     int
	events    uint64
	attempted int
	failed    int
}

// job records one finished job: its latency in seconds, the cells it
// resolved, the simulated events it took, and whether it was correct.
func (t *tally) job(latency float64, cells int, events uint64, ok bool) {
	t.mu.Lock()
	t.latencies = append(t.latencies, latency)
	t.cells += cells
	t.events += events
	t.mu.Unlock()
	t.op(ok)
}

// op records one checked operation.
func (t *tally) op(ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
	}
}

// counts is the work a tally has counted.
type counts struct {
	jobs, cells int
	events      uint64
}

func (t *tally) counts() counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return counts{len(t.latencies), t.cells, t.events}
}

// addEvents adds simulated events not attributable to a single job.
func (t *tally) addEvents(n uint64) {
	t.mu.Lock()
	t.events += n
	t.mu.Unlock()
}

// endToEndMetrics derives the end-to-end metrics from the set-up times
// and an untraced phase, together with the wall-clock view of the same
// phase that traced runs report per layer. It returns a note stating
// the tail's percentile and sample count.
//
// Every repetition of a run does the same work, and contention from
// other tenants of the host only ever adds CPU time to it, so the CPU
// metrics come from the repetition that took the least CPU time.
func endToEndMetrics(setup []float64, p phase, t *tally) (map[string]float64, string) {
	best := p.reps[0]
	for _, r := range p.reps[1:] {
		if r.cpu < best.cpu {
			best = r
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	wall := p.total(func(r rep) float64 { return r.wall })
	jobs := float64(len(t.latencies))
	tailV, pct := tail(t.latencies)
	m := map[string]float64{
		"setup_s":          median(setup),
		"cpu_s":            best.cpu,
		"events_per_cpu_s": float64(best.work.events) / best.cpu,
		"cells_per_cpu_s":  float64(best.work.cells) / best.cpu,
		"jobs_per_cpu_s":   float64(best.work.jobs) / best.cpu,
		"alloc_mb":         median(p.values(func(r rep) float64 { return r.allocBytes })) / mib,
		"heap_peak_mb":     median(p.values(func(r rep) float64 { return r.heapPeak })) / mib,

		"bench.wall_s":              median(p.walls()),
		"bench.events_per_s":        float64(t.events) / wall,
		"bench.cells_per_s":         float64(t.cells) / wall,
		"bench.jobs_per_s":          jobs / wall,
		"bench.job_latency_p50_ms":  percentile(t.latencies, 50) * 1e3,
		"bench.job_latency_tail_ms": tailV * 1e3,
	}
	note := fmt.Sprintf("bench.job_latency_tail_ms is the nearest-rank p%d of %d jobs; %d repetitions, %d set-up batches",
		pct, len(t.latencies), len(p.reps), len(setup))
	return m, note
}

// addRunCounts sums the exact counters of one repetition's simulation
// results into per-layer metrics.
func addRunCounts(m map[string]float64, results ...netsim.Result) {
	for _, r := range results {
		m["sim.events"] += float64(r.Events)
		m["radio.sensor_tx"] += float64(r.SensorStats.Transmissions)
		m["radio.sensor_collisions"] += float64(r.SensorStats.Collisions)
		m["radio.wifi_tx"] += float64(r.WifiStats.Transmissions)
		m["core.handshakes"] += float64(r.AgentStats.Handshakes)
		m["core.bursts_sent"] += float64(r.AgentStats.BurstsSent)
		m["core.frames_sent"] += float64(r.AgentStats.FramesSent)
		m["workload.generated_bits"] += float64(r.GeneratedBits)
		m["workload.delivered_bits"] += float64(r.DeliveredBits)
	}
}
