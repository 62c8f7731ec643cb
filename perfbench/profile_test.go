package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"bulktx/internal/netsim"
)

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"bulktx/internal/radio.(*Transceiver).arrive.getArrival.func1":              "bulktx/internal/radio",
		"bulktx/internal/sim.(*heap[go.shape.struct { bulktx/internal/x.y }]).push": "bulktx/internal/sim",
		"encoding/json.(*encodeState).marshal":                                      "encoding/json",
		"internal/runtime/maps.(*Map).getWithKeySmall":                              "internal/runtime/maps",
		"runtime.mallocgc": "runtime",
		"slices.SortFunc[go.shape.[]float64,go.shape.float64]": "slices",
		"main.main": "main",
	}
	for fn, want := range cases {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttribute pins the package-to-module table. Stacks run from the
// leaf frame to the root.
func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"bulktx/internal/sim.(*Scheduler).Run"}, "sim"},
		{[]string{"bulktx/internal/radio.(*Transceiver).arrive.getArrival.func1", "bulktx/internal/sim.(*Scheduler).Run"}, "radio"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "bulktx/internal/energy.(*Meter).settle"}, "energy"},
		{[]string{"runtime.memhash64", "runtime.mapaccess2_fast64", "bulktx/internal/energy.(*Meter).settle"}, modMap},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "bulktx/internal/energy.(*Meter).settle"}, modMap},
		{[]string{"runtime.mapassign_fast64", "bulktx/internal/mac.(*MAC).send"}, modMap},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, modGC},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "bulktx/internal/radio.newFrame"}, modGC},
		{[]string{"runtime.(*sweepLocked).sweep", "runtime.(*mcentral).cacheSpan", "runtime.mallocgc", "bulktx/internal/core.(*Agent).flush"}, modGC},
		{[]string{"strconv.AppendFloat", "encoding/json.floatEncoder.encode", "bulktx/internal/service.writeJSON"}, "json"},
		{[]string{"bulktx/internal/service.(*Server).submit", "net/http.HandlerFunc.ServeHTTP"}, "service"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*conn).serve"}, modOther},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, modOther},
		{[]string{"main.run"}, modOther},
		{nil, modOther},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestParseTraces reads a pprof -traces report: counts sit before the
// leaf frame, inlined frames are marked, and generic symbol names may
// hold spaces.
func TestParseTraces(t *testing.T) {
	report := `File: perfbench
Type: samples
Duration: 1s, Total samples = 6
-----------+-------------------------------------------------------
         3   bulktx/internal/sim.(*heap[go.shape.struct { bulktx/internal/sim.at time.Duration }]).push (inline)
             bulktx/internal/sim.(*Scheduler).Run
-----------+-------------------------------------------------------
         2   runtime.mapaccess2_fast64
             bulktx/internal/energy.(*Meter).settle
-----------+-------------------------------------------------------
         1   runtime.futex
             runtime.schedule
-----------+-------------------------------------------------------
`
	shares, samples, err := parseTraces([]byte(report))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.5, modMap: 2.0 / 6, modOther: 1.0 / 6}
	if samples != 6 || len(shares) != len(want) {
		t.Fatalf("got %d samples, shares %v; want 6, %v", samples, shares, want)
	}
	for mod, w := range want {
		if math.Abs(shares[mod]-w) > 1e-12 {
			t.Errorf("share of %s = %g, want %g", mod, shares[mod], w)
		}
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	for _, report := range []string{
		"",
		"File: x\nType: samples\n",
		"-----------+----\n      lots   runtime.futex\n-----------+----\n",
	} {
		if _, _, err := parseTraces([]byte(report)); err == nil {
			t.Errorf("parseTraces(%q) succeeded", report)
		}
	}
}

// TestCPUSharesOfRealProfile attributes a profile the runtime wrote
// while simulating, and checks the simulator's modules receive its
// samples.
func TestCPUSharesOfRealProfile(t *testing.T) {
	sc, err := gridScenario(gridSize{nodes: 400, senders: 40, duration: 2 * time.Second}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := netsim.RunScenario(sc); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	shares, samples, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples", samples)
	}
	var sum, sim float64
	for mod, s := range shares {
		sum += s
		if mod == "sim" || mod == "radio" || mod == "energy" || mod == "mac" || mod == modMap {
			sim += s
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %g", sum)
	}
	// The race detector's runtime takes many samples no module claims,
	// so a race build only has to attribute most of the rest.
	attributed := sum - shares[modOther]
	switch {
	case sim == 0:
		t.Errorf("no sample attributed to the simulator's modules: %v", shares)
	case raceEnabled && sim < attributed/2:
		t.Errorf("simulator modules hold %g of %g attributed samples: %v", sim, attributed, shares)
	case !raceEnabled && sim < 0.5:
		t.Errorf("simulator modules hold %g of the samples: %v", sim, shares)
	}
	if shares["core"] != 0 {
		t.Errorf("sensor-model run attributed %g to core", shares["core"])
	}
}
