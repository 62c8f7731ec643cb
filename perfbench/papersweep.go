package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"bulktx/internal/netsim"
	"bulktx/internal/params"
	"bulktx/internal/sweep"
)

// sweepSize shapes the paper-sweep workload: a figure-shaped grid on
// the paper's 36-node single-hop deployment at 2 Kbps.
type sweepSize struct {
	senders, bursts []int
	runs            int
	duration        time.Duration
}

// sweepFull is the benchmark's size: every model over the paper's
// sender and burst ranges, 2 seeds, 300 s simulated. It compiles to 40
// cells, the cost of reproducing one figure.
var sweepFull = sweepSize{
	senders:  []int{5, 15, 25, 35},
	bursts:   []int{10, 100, 1000},
	runs:     2,
	duration: 300 * time.Second,
}

const (
	// sweepWorkers is the pool size; the benchmark host has two CPUs.
	sweepWorkers = 2
	// Set-up is timed over sweepSetupBatches batches of
	// sweepSetupPerBatch spec compilations.
	sweepSetupBatches  = 9
	sweepSetupPerBatch = 1000
)

func sweepSpec(s sweepSize, seed int64) sweep.Spec {
	base := netsim.DefaultConfig(netsim.ModelDual, s.senders[0], s.bursts[0], seed)
	base.Rate = params.HighRate
	base.Duration = s.duration
	return sweep.Spec{
		Base:     base,
		Models:   []netsim.Model{netsim.ModelSensor, netsim.ModelWifi, netsim.ModelDual},
		Senders:  s.senders,
		Bursts:   s.bursts,
		Runs:     s.runs,
		BaseSeed: seed,
	}
}

// runSweep compiles the spec (set-up) and runs it repeatedly through a
// two-worker pool, each time with a fresh in-memory cache, so every
// cell is simulated and the cache only takes writes. A repetition is
// one job: the sweep and its results.json export.
func runSweep(c config, s sweepSize, golden string) (*result, error) {
	spec := sweepSpec(s, c.seed)
	var jobs []sweep.Job
	setup, err := timeSetup(sweepSetupBatches, sweepSetupPerBatch, func() (func() error, error) {
		var err error
		jobs, err = spec.Jobs()
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	t := &tally{}
	var mu sync.Mutex
	var cellSeconds []float64
	var firstHash string
	var firstResults []netsim.Result
	var firstErr error
	body := func(tr *tracer) func() {
		return func() {
			pool := &sweep.Pool{Workers: sweepWorkers, Cache: sweep.NewCache()}
			root := tr.start("sweep.Pool.RunJobsProgress", 0)
			t0 := time.Now()
			out, err := pool.RunJobsProgress(jobs, func(u sweep.JobUpdate) {
				if tr != nil {
					mu.Lock()
					cellSeconds = append(cellSeconds, u.Duration.Seconds())
					mu.Unlock()
				}
			})
			tr.end(root)
			var buf bytes.Buffer
			if err == nil {
				id := tr.start("sweep.WriteJSON", 0)
				err = sweep.WriteJSON(&buf, out)
				tr.end(id)
			}
			lat := time.Since(t0).Seconds()
			var events uint64
			if err == nil {
				sum := sha256.Sum256(buf.Bytes())
				err = checkSweep(out, hex.EncodeToString(sum[:]), golden, firstHash, len(jobs))
				for _, r := range out.Results {
					events += r.Events
				}
				if err == nil && firstHash == "" {
					firstHash, firstResults = hex.EncodeToString(sum[:]), out.Results
				}
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			t.job(lat, len(jobs), events, err == nil)
		}
	}
	res := &result{}
	if !c.trace {
		p := measure(c.seconds, t, body(nil))
		m, note := endToEndMetrics(setup, p, t)
		res.metrics, res.notes = m, []string{note}
	} else {
		tr := newTracer()
		m, note, err := traceRun(c, "paper-sweep", setup, t, tr, body)
		if err != nil {
			return nil, err
		}
		var busy, wall float64
		for _, d := range cellSeconds {
			busy += d
		}
		for _, d := range tr.durations("sweep.Pool.RunJobsProgress") {
			wall += d
		}
		tailV, _ := tail(cellSeconds)
		m["sweep.cell_p50_s"] = percentile(cellSeconds, 50)
		m["sweep.cell_tail_s"] = tailV
		m["sweep.worker_busy_frac"] = busyFrac(busy, wall, sweepWorkers)
		m["sweep.cells_simulated"] = float64(len(jobs))
		addRunCounts(m, firstResults...)
		res.metrics, res.notes = m, []string{note}
	}
	res.attempted, res.failed = t.attempted, t.failed
	res.observed = firstHash
	if firstErr != nil {
		res.notes = append(res.notes, "check failed: "+firstErr.Error())
	}
	return res, nil
}

// checkSweep accepts a repetition whose every cell succeeded and whose
// export hash matches the golden when there is one, and otherwise the
// first repetition's: with a fresh cache and two workers finishing
// cells in varying order, the export must not change.
func checkSweep(out *sweep.Outcome, hash, golden, first string, cells int) error {
	switch {
	case len(out.Errors) > 0:
		return fmt.Errorf("%d cells failed, first: %v", len(out.Errors), out.Errors[0].Err)
	case len(out.Results) != cells || out.Cached != 0:
		return fmt.Errorf("%d results with %d cached, want %d simulated", len(out.Results), out.Cached, cells)
	case golden != "" && hash != golden:
		return fmt.Errorf("results.json sha256 %s, golden %s", hash, golden)
	case first != "" && hash != first:
		return fmt.Errorf("results.json sha256 %s differs from the first repetition's %s", hash, first)
	}
	return nil
}
