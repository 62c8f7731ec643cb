package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// Module buckets that are not a bulktx/internal package.
const (
	modMap   = "runtime.map" // runtime map code
	modGC    = "gc"          // garbage collection and sweeping
	modOther = "other"       // everything no module claims
)

// gcFrames are runtime functions that only run on behalf of the
// collector; a sample with one of them on its stack is GC work, even
// when a mutator goroutine does it as an allocation assist.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":                            true,
	"runtime.gcAssistAlloc":                             true,
	"runtime.gcAssistAlloc1":                            true,
	"runtime.bgsweep":                                   true,
	"runtime.bgscavenge":                                true,
	"runtime.(*sweepLocked).sweep":                      true,
	"runtime.gcMarkTermination":                         true,
	"runtime.gcStart":                                   true,
	"runtime.markroot":                                  true,
	"runtime.gcDrain":                                   true,
	"runtime.(*mheap).reclaim":                          true,
	"runtime.(*gcControllerState).findRunnableGCWorker": true,
}

// funcPackage returns the import path of the package that defines a
// function, given its symbol name ("bulktx/internal/radio.(*Transceiver).arrive.func1"
// gives "bulktx/internal/radio"). Type arguments are cut first, since
// they may contain other import paths.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// moduleOf names the module a function counts toward, or "" for
// runtime and library code that counts toward its caller.
func moduleOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, "bulktx/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "bulktx/internal/"), "/")
		return mod
	case pkg == "encoding/json":
		return "json"
	}
	return ""
}

// isMapFrame reports runtime map code.
func isMapFrame(fn string) bool {
	return funcPackage(fn) == "internal/runtime/maps" ||
		strings.HasPrefix(fn, "runtime.map") || strings.HasPrefix(fn, "runtime.makemap")
}

// attribute names the module one CPU sample counts toward, given its
// stack from the leaf frame to the root. GC work wins wherever it sits
// on the stack; otherwise the sample goes to runtime map code if the
// frames above the innermost module frame are map code, else to that
// innermost module, so runtime helpers such as allocation count toward
// the module that called them and closures toward the package that
// encloses them.
func attribute(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return modGC
		}
	}
	for _, fn := range stack {
		if mod := moduleOf(fn); mod != "" {
			return mod
		}
		if isMapFrame(fn) {
			return modMap
		}
	}
	return modOther
}

// cpuShares attributes the samples of a CPU profile file to modules
// and returns each module's share of the samples and the sample count.
// It reads each sample's stack from the report of `go tool pprof
// -traces`, so the toolchain that builds the benchmark also decodes
// its profiles.
func cpuShares(path string) (map[string]float64, int64, error) {
	report, err := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", "-symbolize=none", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(report)
}

// parseTraces reads a pprof -traces report: a header, then one block
// per distinct stack, each opening with a dashed line. A block's first
// line holds the sample count and the leaf frame; each further line
// holds the next frame toward the root. Inlined frames carry an
// " (inline)" suffix.
func parseTraces(report []byte) (map[string]float64, int64, error) {
	counts := map[string]int64{}
	var total, n int64
	var stack []string
	inBlock := false
	flush := func() {
		if inBlock {
			counts[attribute(stack)] += n
			total += n
		}
		n, stack, inBlock = 0, stack[:0], false
	}
	body := false
	for _, line := range strings.Split(string(report), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			body = true
			continue
		}
		frame := strings.TrimSpace(line)
		if !body || frame == "" {
			continue
		}
		if !inBlock {
			count, rest, ok := strings.Cut(frame, " ")
			v, err := strconv.ParseInt(count, 10, 64)
			if !ok || err != nil || v < 0 {
				return nil, 0, fmt.Errorf("profile: bad trace line %q", line)
			}
			n, frame, inBlock = v, strings.TrimSpace(rest), true
		}
		stack = append(stack, strings.TrimSuffix(frame, " (inline)"))
	}
	flush()
	if !body {
		return nil, 0, fmt.Errorf("profile: no traces in pprof report")
	}
	shares := map[string]float64{}
	for mod, c := range counts {
		shares[mod] = float64(c) / float64(max(total, 1))
	}
	return shares, total, nil
}
