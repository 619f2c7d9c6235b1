// Command perfbench is the repository's end-to-end benchmark. It drives
// the program in-process through the entry points the commands use —
// runner.New(Config).Run/RunSweep, search.Run, and service.Open with
// Service.Handler served on loopback — on one simulation worker, checks
// every output, and prints the metrics as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the gated end-to-end ones; with
// --trace 1 a separate traced round reports the per-layer ones. Run it
// from the repository root through perfbench/run.sh; README.md in this
// directory documents the workloads, the metrics and the layer map.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupProbes is how many fresh processes measure set-up per run.
const setupProbes = 41

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: suite, search or daemon")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 runs the traced round and prints per-layer metrics")
	probeFlag := flag.Bool("setup-probe", false, "run set-up only and print when the first unit was dispatched (used by the benchmark itself)")
	flag.Parse()

	work, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", *name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	w, err := newWorkload(*name, *seed, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *probeFlag {
		err := w.probe(func(at time.Time) {
			os.RemoveAll(work)
			fmt.Printf("dispatch %d\n", at.UnixNano())
			os.Exit(0)
		})
		fmt.Fprintln(os.Stderr, "perfbench: set-up probe:", err)
		return 1
	}

	var res *result
	if *traceFlag == 1 {
		res, err = traced(w, *name, *seed)
	} else {
		res, err = gated(w, *name, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		// The failure replaces the numbers: correct is false and no
		// metric is reported.
		fail := result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
		if res != nil {
			fail.Attempted, fail.Failed = max(1, res.Attempted), max(1, res.Failed)
		}
		b, _ := json.Marshal(fail)
		fmt.Println(string(b))
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func newWorkload(name string, seed int64, dir string) (workload, error) {
	bind := func(f func(int64, *tracer, int, *trialSink) (*roundOut, error)) workload {
		return inProcess(func(tr *tracer, parent int, sink *trialSink) (*roundOut, error) {
			return f(seed, tr, parent, sink)
		})
	}
	switch name {
	case "suite":
		return bind(suite), nil
	case "search":
		return bind(frontier), nil
	case "daemon":
		return newDaemon(seed, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite, search or daemon)", name)
}

// timedRound is one round with its wall time, CPU time and peak
// resident set.
type timedRound struct {
	out     *roundOut
	wall    time.Duration
	cpu     time.Duration
	rssMB   float64
	resetOK bool
}

// measureRound runs one round of w and measures it.
func measureRound(w workload, tr *tracer, parent int) (timedRound, error) {
	// Start every round from a collected heap returned to the kernel, so
	// its peak does not depend on what earlier rounds left behind.
	debug.FreeOSMemory()
	ok := resetPeakRSS()
	cpu0, t0 := cpuTime(), time.Now()
	out, err := w.round(tr, parent)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return timedRound{}, err
	}
	return timedRound{out: out, wall: wall, cpu: cpu, rssMB: peakRSSMB(), resetOK: ok}, nil
}

// checkRounds verifies every report of every round and that all rounds,
// which ran the same input, produced the same bytes.
func checkRounds(w workload, rounds []timedRound) (attempted, failed int, err error) {
	outs := make([]*roundOut, len(rounds))
	for i, r := range rounds {
		outs[i] = r.out
		attempted += r.out.attempted
		failed += r.out.failed
	}
	for i, r := range rounds {
		if len(r.out.reports) != len(rounds[0].out.reports) {
			return attempted, failed, fmt.Errorf("round %d: %d reports, round 0 had %d", i, len(r.out.reports), len(rounds[0].out.reports))
		}
		for k, rep := range r.out.reports {
			if err := checkReport(rep); err != nil {
				return attempted, failed, fmt.Errorf("round %d: %w", i, err)
			}
			if !bytes.Equal(rep.bytes, rounds[0].out.reports[k].bytes) {
				return attempted, failed, fmt.Errorf("round %d: %s differs from round 0", i, rep.name)
			}
		}
	}
	if failed > 0 {
		return attempted, failed, fmt.Errorf("%d of %d units failed", failed, attempted)
	}
	return attempted, failed, w.check(outs)
}

// gated measures the end-to-end metrics: set-up in fresh processes,
// then rounds of the fixed input until the time is spent.
func gated(w workload, name string, seed int64, seconds float64) (*result, error) {
	setups, err := probeSetup(name, seed)
	if err != nil {
		return nil, err
	}
	if err := w.prime(); err != nil {
		return nil, err
	}
	var rounds []timedRound
	start := time.Now()
	for {
		r, err := measureRound(w, nil, 0)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		// Start another round only if it would end within half a round
		// of the measuring time.
		half := median(secondsOf(rounds, func(r timedRound) time.Duration { return r.wall })) / 2
		if time.Since(start).Seconds()+half > seconds {
			break
		}
	}
	attempted, failed, err := checkRounds(w, rounds)
	res := &result{Attempted: attempted, Failed: failed}
	if err != nil {
		return res, err
	}

	walls := secondsOf(rounds, func(r timedRound) time.Duration { return r.wall })
	cpus := secondsOf(rounds, func(r timedRound) time.Duration { return r.cpu })
	var rss, lat []float64
	for _, r := range rounds {
		rss = append(rss, r.rssMB)
		lat = append(lat, r.out.latencies...)
	}
	if !rounds[0].resetOK {
		// Without a resettable peak every round reads the process's
		// lifetime peak; the last round's is the honest one.
		rss = rss[len(rss)-1:]
	}
	tailQ := tailQuantile(len(rounds[0].out.latencies))
	res.Correct = true
	res.Metrics = map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"job_p50_s":   {median(lat), "s"},
		"job_tail_s":  {quantile(lat, tailQ), "s"},
	}
	fmt.Printf("workload %s  seed %d  rounds %d\n", name, seed, len(rounds))
	fmt.Printf("  error_rate   %g ratio   %d of %d units failed\n", float64(failed)/float64(attempted), failed, attempted)
	fmt.Printf("  setup_s      %.4f s   median of %d fresh processes (IQR/median %.1f%%)\n", median(setups), len(setups), 100*spread(setups))
	fmt.Printf("  wall_s       %.4f s   median of %d rounds (IQR/median %.1f%%)\n", median(walls), len(walls), 100*spread(walls))
	fmt.Printf("  cpu_s        %.4f s   median of %d rounds\n", median(cpus), len(cpus))
	fmt.Printf("  peak_rss_mb  %.1f MB\n", median(rss))
	fmt.Printf("  job_p50_s    %.4f s   p50 of %d jobs\n", median(lat), len(lat))
	fmt.Printf("  job_tail_s   %.4f s   p%.2f of %d jobs (%d per round)\n",
		quantile(lat, tailQ), 100*tailQ, len(lat), len(rounds[0].out.latencies))
	return res, nil
}

func secondsOf(rounds []timedRound, f func(timedRound) time.Duration) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r).Seconds()
	}
	return out
}

// probeSetup starts the benchmark setupProbes times as a fresh process
// that stops at its first dispatched unit, and returns each one's time
// from process start to that dispatch.
func probeSetup(name string, seed int64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "--setup-probe", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		var at int64
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "dispatch "); ok {
				at, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		if at == 0 {
			return nil, errors.New("set-up probe printed no dispatch time")
		}
		out = append(out, time.Unix(0, at).Sub(start).Seconds())
	}
	return out, nil
}

// traced runs one untraced and one traced round of the same input,
// checks that their reports are byte-identical, and derives the
// per-layer metrics from the traced round's spans, CPU profile and
// runtime counters.
func traced(w workload, name string, seed int64) (*result, error) {
	if err := w.prime(); err != nil {
		return nil, err
	}
	plain, err := measureRound(w, nil, 0)
	if err != nil {
		return nil, err
	}

	tr := newTracer(fmt.Sprintf("%s/seed=%d", name, seed))
	// Collect now, so the collection measureRound starts with does not
	// land in the profile or the runtime counters.
	debug.FreeOSMemory()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	root := tr.begin("round", name, 0)
	tracedRound, err := measureRound(w, tr, root)
	tr.end(root)
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}

	rounds := []timedRound{plain, tracedRound}
	attempted, failed, err := checkRounds(w, rounds)
	res := &result{Attempted: attempted, Failed: failed}
	if err != nil {
		return res, fmt.Errorf("traced round against untraced: %w", err)
	}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := tr.writeFile(base + ".spans.json"); err != nil {
		return res, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return res, err
	}
	samples, err := readProfile(base + ".cpu.pprof")
	if err != nil {
		return res, err
	}

	m := layerMetrics(tr.snapshot(), tracedRound.out, bucketSeconds(samples), rt0, rt1)
	overhead := tracedRound.wall - plain.wall
	m["trace.overhead_s"] = metric{overhead.Seconds(), "s"}
	res.Correct, res.Metrics = true, m

	fmt.Printf("workload %s  seed %d  traced  attempted %d  failed %d\n", name, seed, attempted, failed)
	fmt.Printf("  untraced wall %.4f s, traced wall %.4f s: tracing overhead %+.4f s\n",
		plain.wall.Seconds(), tracedRound.wall.Seconds(), overhead.Seconds())
	fmt.Printf("  spans and CPU profile: %s.{spans.json,cpu.pprof}\n", base)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return res, nil
}
