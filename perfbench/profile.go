package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// buckets are the layers a CPU profile's self time is split into: the
// program's own packages by name, the garbage collector, and everything
// else (the rest of the runtime, the standard library, the benchmark).
var buckets = []string{
	"cache", "mem", "sim", "nic", "testbed", "netmodel", "probe", "chase",
	"covert", "fingerprint", "perfsim", "stats", "experiments", "runner",
	"service", "search", "runtime.gc", "other",
}

// profSample is one CPU profile sample reduced to what bucketing needs:
// its call stack as function names, innermost first, and its CPU time.
type profSample struct {
	stack []string
	nanos int64
}

// bucketOf names the layer a sample's self time belongs to. A sample is
// garbage-collector time when any frame is a collector entry point;
// otherwise it belongs to the package of its innermost frame.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime.gc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	pkg := funcPackage(stack[0])
	if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, b := range buckets {
			if b == name {
				return b
			}
		}
	}
	return "other"
}

func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.sweepone", "runtime.scanobject":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/cache.(*Cache).access".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucketSeconds sums the samples' CPU time per bucket, in seconds.
func bucketSeconds(samples []profSample) map[string]float64 {
	out := make(map[string]float64, len(buckets))
	for _, b := range buckets {
		out[b] = 0
	}
	for _, s := range samples {
		out[bucketOf(s.stack)] += float64(s.nanos) / 1e9
	}
	return out
}

// readProfile returns the samples of a CPU profile file as the Go
// toolchain's pprof prints them with -traces.
func readProfile(path string) ([]profSample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces reads the output of `go tool pprof -traces -unit=ns`:
// after a header, each sample is a block that a "-----------+" line
// opens. Its first line is the sample's CPU time and innermost frame,
// and every further line one caller, outermost last.
func parseTraces(text string) ([]profSample, error) {
	var out []profSample
	inSample := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inSample = false
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if inSample {
			out[len(out)-1].stack = append(out[len(out)-1].stack, fields[0])
			continue
		}
		v, ok := strings.CutSuffix(fields[0], "ns")
		if !ok || len(fields) < 2 {
			continue // a header line
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pprof traces: sample time %q: %w", fields[0], err)
		}
		out = append(out, profSample{stack: []string{fields[1]}, nanos: n})
		inSample = true
	}
	if len(out) == 0 {
		return nil, errors.New("pprof traces: no samples")
	}
	return out, nil
}
