package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// Tiny sizes for smoke runs: each workload's full path in well under a
// second.
var (
	gridTiny  = gridSize{nodes: 400, senders: 40, duration: 2 * time.Second}
	sweepTiny = sweepSize{senders: []int{5, 15}, bursts: []int{10}, runs: 1, duration: 20 * time.Second}
	serveTiny = serveSize{runs: 4, resubmits: 3, sweeps: 5, durationS: 5}
)

func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 3, seconds: 50 * time.Millisecond, trace: trace, outDir: t.TempDir()}
}

// checkResult fails unless every metric of the mode is present and
// the run was correct.
func checkResult(t *testing.T, res *result, trace bool) {
	t.Helper()
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("attempted %d, failed %d; notes %q", res.attempted, res.failed, res.notes)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		switch {
		case d.name == "bench.failed_frac":
			// report fills it in.
		case !ok && !trace:
			t.Errorf("missing %s", d.name)
		case !trace && v <= 0:
			t.Errorf("end-to-end %s = %g, want > 0", d.name, v)
		}
	}
}

func TestGridSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res, err := runGrid(tinyConfig(t, trace), gridTiny, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, trace)
		if trace {
			if res.metrics["sim.events"] == 0 || res.metrics["radio.sensor_tx"] == 0 || res.metrics["netsim.build_s"] == 0 {
				t.Errorf("traced grid run lacks counts: %v", res.metrics)
			}
			if res.metrics["core.cpu_frac"] != 0 || res.metrics["core.handshakes"] != 0 {
				t.Errorf("sensor-model run touched core: %v", res.metrics)
			}
		}
	}
}

func TestGridGoldenMismatchFails(t *testing.T) {
	bad := &gridOutput{Events: 1}
	res, err := runGrid(tinyConfig(t, false), gridTiny, bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.failed != res.attempted {
		t.Errorf("wrong golden: attempted %d, failed %d", res.attempted, res.failed)
	}
}

func TestSweepSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res, err := runSweep(tinyConfig(t, trace), sweepTiny, "")
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, trace)
		if trace && (res.metrics["core.handshakes"] == 0 || res.metrics["sweep.cells_simulated"] != 6 || res.metrics["runtime.gc_cpu_frac"] <= 0) {
			t.Errorf("traced sweep: %v", res.metrics)
		}
	}
}

func TestSweepGoldenMismatchFails(t *testing.T) {
	res, err := runSweep(tinyConfig(t, false), sweepTiny, "0000")
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Errorf("wrong golden accepted: attempted %d", res.attempted)
	}
}

func TestServeSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res, err := runServe(tinyConfig(t, trace), serveTiny, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, trace)
		if trace {
			obs := res.observed.(serveOutput)
			if got := res.metrics["service.deduped"]; got != float64(obs.Counts.Deduped) {
				t.Errorf("service.deduped = %g, schedule predicts %d", got, obs.Counts.Deduped)
			}
			if res.metrics["service.submit_p50_ms"] <= 0 || res.metrics["service.execution_p50_s"] <= 0 {
				t.Errorf("traced serve run lacks stage timings: %v", res.metrics)
			}
		}
	}
}

func TestServeGoldenMismatchFails(t *testing.T) {
	res, err := runServe(tinyConfig(t, false), serveTiny, &serveOutput{Schedule: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Errorf("wrong golden accepted: attempted %d", res.attempted)
	}
}

func TestServeScheduleIsDeterministic(t *testing.T) {
	a, err := serveSchedule(5, serveFull)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serveSchedule(5, serveFull)
	if err != nil {
		t.Fatal(err)
	}
	c, err := serveSchedule(6, serveFull)
	if err != nil {
		t.Fatal(err)
	}
	if scheduleHash(a) != scheduleHash(b) {
		t.Error("one seed lowered to two schedules")
	}
	if scheduleHash(a) == scheduleHash(c) {
		t.Error("two seeds lowered to one schedule")
	}
	rc := predictCounts(a)
	if rc.Deduped == 0 || rc.Simulated == 0 || rc.Cached <= rc.Simulated {
		t.Errorf("schedule mix %+v: want dedupes, and more cache reads than fresh cells", rc)
	}
	// Clients never share a run seed, so their cells never coincide.
	seedsOf := func(reqs []request) map[int64]bool {
		m := map[int64]bool{}
		for _, r := range reqs {
			m[r.doc.Seed] = true
		}
		return m
	}
	s0 := seedsOf(a[0])
	for sd := range seedsOf(a[1]) {
		if s0[sd] {
			t.Errorf("both clients use run seed %d", sd)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "grid-20k", "--seconds", "0"},
		{"--workload", "grid-20k", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q", args, code, out.String())
		}
	}
}

func TestReportPrintsEveryMetricLast(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res := &result{metrics: map[string]float64{"wall_s": 1.5}, attempted: 2, notes: []string{"note"}}
		var out bytes.Buffer
		if err := report(&out, res, trace, true); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(got.Metrics) != len(defs) || !got.Correct || got.Attempted != 2 {
			t.Errorf("result line %s", lines[len(lines)-1])
		}
		for _, d := range defs {
			if m, ok := got.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// in step with what the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
