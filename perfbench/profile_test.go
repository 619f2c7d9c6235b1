package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// fixedTraces is `go tool pprof -traces -unit=ns` output for nine
// samples totalling 10 s of CPU time.
const fixedTraces = `File: perfbench
Type: cpu
Duration: 10.52s, Total samples = 10000000000ns (95.06%)
-----------+-------------------------------------------------------
4000000000ns   repro/internal/cache.(*Cache).access
             repro/internal/testbed.(*Testbed).Run
             main.main
-----------+-------------------------------------------------------
1000000000ns   repro/internal/sim.(*RNG).Float64 (inline)
             repro/internal/probe.(*Spy).Probe
-----------+-------------------------------------------------------
2000000000ns   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
500000000ns   runtime.memmove
             runtime.gcAssistAlloc
             repro/internal/mem.NewAllocator
-----------+-------------------------------------------------------
500000000ns   runtime.mallocgc
             repro/internal/mem.NewAllocator
-----------+-------------------------------------------------------
500000000ns   encoding/json.Marshal
             repro/internal/runner.(*Report).WriteJSON
-----------+-------------------------------------------------------
250000000ns   repro/internal/scenario.Baseline
             repro/internal/experiments.Fig6
-----------+-------------------------------------------------------
250000000ns   repro/internal/experiments.Fig6.func1[...]
             repro/internal/runner.runTrial
-----------+-------------------------------------------------------
1000000000ns   repro/internal/cache.(*Cache).access
             repro/internal/probe.(*Spy).Probe
-----------+-------------------------------------------------------
`

func TestBucketSharesOfFixedProfile(t *testing.T) {
	samples, err := parseTraces(fixedTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 9 {
		t.Fatalf("parsed %d samples, want 9", len(samples))
	}
	if got := samples[2].stack; len(got) != 3 || got[0] != "runtime.scanobject" || got[2] != "runtime.gcBgMarkWorker" {
		t.Errorf("sample 2 stack = %q, want innermost first", got)
	}
	got := bucketSeconds(samples)
	want := map[string]float64{
		"cache":       5,   // self time of the innermost frame, two samples
		"sim":         1,   // not its caller's package (probe)
		"runtime.gc":  2.5, // a collector frame anywhere in the stack
		"other":       1.25,
		"experiments": 0.25,
	}
	total := 0.0
	for _, b := range buckets {
		total += got[b]
		if math.Abs(got[b]-want[b]) > 1e-9 {
			t.Errorf("bucket %s = %v s, want %v s", b, got[b], want[b])
		}
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("buckets sum to %v s, want all 10 s of samples", total)
	}
	if len(got) != len(buckets) {
		t.Errorf("%d buckets reported, want %d", len(got), len(buckets))
	}
}

func TestParseTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := parseTraces("File: perfbench\nType: cpu\n"); err == nil {
		t.Error("a profile without samples parsed without error")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cache.(*Cache).access": "repro/internal/cache",
		"repro/internal/sim.DeriveSeed":        "repro/internal/sim",
		"runtime.mallocgc":                     "runtime",
		"encoding/json.(*encodeState).marshal": "encoding/json",
		"main.main":                            "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestReadRuntimeProfile checks readProfile against a profile the Go
// runtime itself wrote, read back through the toolchain's pprof.
func TestReadRuntimeProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for i := 0; i < 30_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	pprof.StopCPUProfile()
	f.Close()
	sink = x
	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if len(s.stack) == 0 || s.nanos <= 0 {
			t.Fatalf("sample without stack or time: %+v", s)
		}
	}
}

var sink float64
