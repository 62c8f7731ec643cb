// Command perfbench is the repository's benchmark. It runs one of
// three seeded workloads against the simulator's public entry points,
// checks every output against goldens or a direct recomputation, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	perfbench --workload grid-20k|paper-sweep|serve-mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it measures half the time untraced and
// half under a CPU profile and span tracer, and reports the per-layer
// metrics; the profile and spans are written under --out.
//
// It exits non-zero when an output is wrong, and without printing a
// result when it cannot run at all. perfbench/run.sh builds and runs
// it from the root of a checkout.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run; every workload reports
// each of them. The cost of a repetition is process CPU time: on the
// shared virtual machine the benchmark was built on, the hypervisor
// steals CPU in episodes minutes long that doubled wall times, and the
// guest kernel leaves stolen time out of a process's CPU time. Set-up
// is timed the same way (see timeSetup). A "job" is one unit
// a user submits and waits for: a simulation run on grid-20k, a whole
// sweep on paper-sweep, and one HTTP submission followed to its
// artifact on serve-mixed. The wall-clock figures, job latencies among
// them, are the per-layer bench.* metrics, which carry no bound: a
// change that adds waiting without adding CPU work fails no bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"events_per_cpu_s", "1/s"},
	{"cells_per_cpu_s", "1/s"},
	{"jobs_per_cpu_s", "1/s"},
	{"alloc_mb", "MiB"},
	{"heap_peak_mb", "MiB"},
}

// profiledModules are the modules whose share of CPU profile samples
// a traced run reports as <module>.cpu_frac.
var profiledModules = []string{
	"sim", "energy", modMap, "radio", "mac", "routing", "core", "workload",
	"netsim", "topo", "sweep", "service", "json", modGC,
}

// perLayer are the metrics of a --trace 1 run; every workload reports
// each of them, as 0 where it does not use the layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.wall_s", "s"},
		{"bench.events_per_s", "1/s"},
		{"bench.cells_per_s", "1/s"},
		{"bench.jobs_per_s", "1/s"},
		{"bench.job_latency_p50_ms", "ms"},
		{"bench.job_latency_tail_ms", "ms"},
		{"topo.layout_s", "s"},
		{"topo.connected_s", "s"},
		{"netsim.build_s", "s"},
		{"netsim.run_s", "s"},
		{"sim.events", "count"},
	}
	for _, m := range profiledModules {
		defs = append(defs, metricDef{cpuFracName(m), "fraction"})
	}
	return append(defs, []metricDef{
		{"profile.samples", "count"},
		{"profile.covered_frac", "fraction"},
		{"radio.sensor_tx", "count"},
		{"radio.sensor_collisions", "count"},
		{"radio.wifi_tx", "count"},
		{"core.handshakes", "count"},
		{"core.bursts_sent", "count"},
		{"core.frames_sent", "count"},
		{"workload.generated_bits", "bit"},
		{"workload.delivered_bits", "bit"},
		{"runtime.gc_cpu_frac", "fraction"},
		{"runtime.gc_cycles", "count"},
		{"sweep.cell_p50_s", "s"},
		{"sweep.cell_tail_s", "s"},
		{"sweep.worker_busy_frac", "fraction"},
		{"sweep.cells_cached", "count"},
		{"sweep.cells_simulated", "count"},
		{"service.submit_p50_ms", "ms"},
		{"service.sse_wait_p50_ms", "ms"},
		{"service.artifact_p50_ms", "ms"},
		{"service.queue_wait_p50_s", "s"},
		{"service.execution_p50_s", "s"},
		{"service.deduped", "count"},
		{"trace.overhead_frac", "fraction"},
		{"bench.failed_frac", "fraction"},
	}...)
}()

// cpuFracName is the metric name of a module's profile share
// ("runtime.map" reports as runtime.map_cpu_frac).
func cpuFracName(module string) string {
	if module == modMap {
		return "runtime.map_cpu_frac"
	}
	return module + ".cpu_frac"
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
}

// result is what a workload reports.
type result struct {
	metrics           map[string]float64
	attempted, failed int
	// notes are human-readable lines printed before the result object,
	// such as sample counts and the serve-mixed schedule hash.
	notes []string
	// observed is the output the workload's golden pins, printed to
	// standard error so a golden can be recorded from it.
	observed any
}

// workloads maps each workload name to its full-size run.
var workloads = map[string]func(config, *goldenSet) (*result, error){
	"grid-20k": func(c config, g *goldenSet) (*result, error) {
		return runGrid(c, gridFull, g.grid(c.seed))
	},
	"paper-sweep": func(c config, g *goldenSet) (*result, error) {
		return runSweep(c, sweepFull, g.sweep(c.seed))
	},
	"serve-mixed": func(c config, g *goldenSet) (*result, error) {
		return runServe(c, serveFull, g.serve(c.seed))
	},
}

//go:embed goldens.json
var goldensJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "grid-20k, paper-sweep or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	traced := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for a traced run's CPU profile and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload grid-20k|paper-sweep|serve-mixed, --seconds > 0, --trace 0|1\n")
		return 2
	}
	var g goldenSet
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		fmt.Fprintf(stderr, "perfbench: goldens: %v\n", err)
		return 1
	}
	c := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		outDir:  *out,
	}
	res, err := w(c, &g)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if obs, err := json.Marshal(res.observed); err == nil {
		fmt.Fprintf(stderr, "observed %s seed %d: %s\n", *name, *seed, obs)
	}
	correct := res.failed == 0 && res.attempted > 0
	if err := report(stdout, res, c.trace, correct); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// report prints the notes, one "name value unit" line per metric, and
// the result object as the last line.
func report(w io.Writer, res *result, traced, correct bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
		res.metrics["bench.failed_frac"] = failedFrac(res.failed, res.attempted)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.failed, map[string]value{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		out.Metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "%-26s %s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// goldenSet holds, per workload, the pinned outputs keyed by seed.
type goldenSet struct {
	Grid  map[string]gridOutput  `json:"grid-20k"`
	Sweep map[string]string      `json:"paper-sweep"`
	Serve map[string]serveOutput `json:"serve-mixed"`
}

func (g *goldenSet) grid(seed int64) *gridOutput {
	if v, ok := g.Grid[strconv.FormatInt(seed, 10)]; ok {
		return &v
	}
	return nil
}

func (g *goldenSet) sweep(seed int64) string { return g.Sweep[strconv.FormatInt(seed, 10)] }

func (g *goldenSet) serve(seed int64) *serveOutput {
	if v, ok := g.Serve[strconv.FormatInt(seed, 10)]; ok {
		return &v
	}
	return nil
}
