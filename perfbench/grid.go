package main

import (
	"fmt"
	"math"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/netsim"
	"bulktx/internal/params"
	"bulktx/internal/radio"
	"bulktx/internal/topo"
	"bulktx/internal/units"
)

// gridSize shapes the grid-20k workload: one sensor-model run on the
// geometry of netsim.NewScalingScenario (a square grid at the sensor
// radio's 40 m spacing, near-center sink) with CBR senders at the
// paper's 0.2 Kbps.
type gridSize struct {
	nodes, senders int
	duration       time.Duration
}

// gridFull is the benchmark's size. It is sized so that the pending
// event set outgrows sim.CalendarThreshold, making this the one workload
// on the calendar queue, with a per-node working set far beyond L2;
// 3,000 senders over 2 s keep one run near ten seconds.
var gridFull = gridSize{nodes: 20000, senders: 3000, duration: 2 * time.Second}

// Set-up is timed over gridSetupBatches batches of gridSetupPerBatch
// scenario builds.
const (
	gridSetupBatches  = 9
	gridSetupPerBatch = 6
)

// gridOutput is what the grid-20k golden pins exactly.
type gridOutput struct {
	Events        uint64      `json:"events"`
	GeneratedBits int64       `json:"generated_bits"`
	DeliveredBits int64       `json:"delivered_bits"`
	TotalEnergyJ  float64     `json:"total_energy_j"`
	SensorStats   radio.Stats `json:"sensor_stats"`
	WifiStats     radio.Stats `json:"wifi_stats"`
}

func gridOutputOf(r netsim.Result) gridOutput {
	return gridOutput{
		Events:        r.Events,
		GeneratedBits: r.GeneratedBits,
		DeliveredBits: r.DeliveredBits,
		TotalEnergyJ:  r.TotalEnergy.Joules(),
		SensorStats:   r.SensorStats,
		WifiStats:     r.WifiStats,
	}
}

// check compares a run against the golden when there is one, and
// otherwise against the first run of the invocation and the sensor
// model's invariants.
func (o gridOutput) check(golden, first *gridOutput) error {
	switch {
	case golden != nil && o != *golden:
		return fmt.Errorf("grid output %+v, golden %+v", o, *golden)
	case first != nil && o != *first:
		return fmt.Errorf("grid output %+v differs from the first run's %+v", o, *first)
	case o.Events == 0 || o.TotalEnergyJ <= 0 || o.SensorStats.Transmissions == 0:
		return fmt.Errorf("grid run did no work: %+v", o)
	case o.DeliveredBits <= 0 || o.DeliveredBits > o.GeneratedBits:
		return fmt.Errorf("grid run delivered %d of %d bits", o.DeliveredBits, o.GeneratedBits)
	case o.WifiStats != radio.Stats{}:
		return fmt.Errorf("sensor-model run used the wifi channel: %+v", o.WifiStats)
	}
	return nil
}

func gridField(nodes int) units.Meters {
	side := int(math.Ceil(math.Sqrt(float64(nodes))))
	return units.Meters(float64(side-1)) * energy.Micaz().Range
}

func gridScenario(g gridSize, seed int64) (*netsim.Scenario, error) {
	return netsim.NewScenario(
		netsim.WithModel(netsim.ModelSensor),
		netsim.WithTopology(netsim.GridTopology(g.nodes, gridField(g.nodes))),
		netsim.WithSenders(g.senders),
		netsim.WithWorkload(netsim.CBRWorkload(params.LowRate)),
		netsim.WithDuration(g.duration),
		netsim.WithSeed(seed),
	)
}

// runGrid builds the scenario (set-up) and runs it repeatedly. It
// bypasses core, sweep and service.
func runGrid(c config, g gridSize, golden *gridOutput) (*result, error) {
	var sc *netsim.Scenario
	setup, err := timeSetup(gridSetupBatches, gridSetupPerBatch, func() (func() error, error) {
		var err error
		sc, err = gridScenario(g, c.seed)
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	t := &tally{}
	var first *gridOutput
	var firstRes netsim.Result
	var firstErr error
	body := func(tr *tracer) func() {
		return func() {
			id := tr.start("netsim.RunScenario", 0)
			t0 := time.Now()
			r, err := netsim.RunScenario(sc)
			lat := time.Since(t0).Seconds()
			tr.end(id)
			out := gridOutputOf(r)
			if err == nil {
				err = out.check(golden, first)
			}
			if first == nil && err == nil {
				first, firstRes = &out, r
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			t.job(lat, 1, r.Events, err == nil)
		}
	}
	res := &result{}
	if !c.trace {
		p := measure(c.seconds, t, body(nil))
		m, note := endToEndMetrics(setup, p, t)
		res.metrics, res.notes = m, []string{note}
	} else {
		m, note, err := traceGrid(c, g, sc.Sink(), setup, t, body)
		if err != nil {
			return nil, err
		}
		addRunCounts(m, firstRes)
		res.metrics, res.notes = m, []string{note}
	}
	res.attempted, res.failed = t.attempted, t.failed
	if first != nil {
		res.observed = *first
	}
	if firstErr != nil {
		res.notes = append(res.notes, "check failed: "+firstErr.Error())
	}
	return res, nil
}

// traceGrid times the set-up layers under spans, then runs traceRun.
func traceGrid(c config, g gridSize, sink int, setup []float64, t *tally, body func(*tracer) func()) (map[string]float64, string, error) {
	tr := newTracer()
	for range gridSetupBatches {
		id := tr.start("topo.Grid", 0)
		layout, err := topo.Grid(g.nodes, gridField(g.nodes))
		tr.end(id)
		if err != nil {
			return nil, "", err
		}
		id = tr.start("topo.Layout.Connected", 0)
		ok := layout.Connected(sink, energy.Micaz().Range)
		tr.end(id)
		if !ok {
			return nil, "", fmt.Errorf("grid layout is not connected")
		}
		id = tr.start("netsim.NewScenario", 0)
		_, err = gridScenario(g, c.seed)
		tr.end(id)
		if err != nil {
			return nil, "", err
		}
	}
	m, note, err := traceRun(c, "grid-20k", setup, t, tr, body)
	if err != nil {
		return nil, "", err
	}
	m["topo.layout_s"] = median(tr.durations("topo.Grid"))
	m["topo.connected_s"] = median(tr.durations("topo.Layout.Connected"))
	m["netsim.build_s"] = median(tr.durations("netsim.NewScenario"))
	m["netsim.run_s"] = median(tr.durations("netsim.RunScenario"))
	return m, note, nil
}
