package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/search"
)

// searchBudget is the frontier search's candidate evaluations, sized so
// a round takes a few seconds at demo scale on one simulation worker.
// See README.md for why each workload exists.
const searchBudget = 14

// workload is one benchmark workload bound to its seed.
type workload interface {
	// prime does untimed preparation before the first round.
	prime() error
	// round runs the workload's fixed input once. With a tracer it
	// records spans under parent.
	round(tr *tracer, parent int) (*roundOut, error)
	// probe runs the workload's set-up in a fresh process until its
	// first unit is dispatched, and passes mark that moment.
	probe(mark func(time.Time)) error
	// check verifies the rounds' outputs beyond what checkReport does
	// for each report.
	check(rounds []*roundOut) error
}

// roundOut is what one round of a workload yields.
type roundOut struct {
	reports   []report
	attempted int // units: experiments, candidates or jobs
	failed    int
	// latencies holds each job's latency in seconds: for the daemon,
	// submit to report fetched; in-process, the round's one program
	// call through its encoded report.
	latencies []float64
	trialsMS  []float64 // every executed trial's wall time
	store     storeCounts
	// candidates is the frontier search's evaluated count.
	candidates int
	jobs       []jobObs // daemon only
}

// report is one program output and what it must look like.
type report struct {
	name   string
	schema string
	units  int // expected experiments, cells or candidates; 0 = any
	bytes  []byte
}

type storeCounts struct{ builds, diskLoads, evictions int }

func countsOf(s *experiments.ArtifactStore) storeCounts {
	return storeCounts{s.Builds(), s.DiskLoads(), s.Evictions()}
}

// checkReport verifies that a report carries its schema, the expected
// number of units, and no failed unit.
func checkReport(r report) error {
	var doc struct {
		Schema      string `json:"schema"`
		Experiments []struct {
			OK bool `json:"ok"`
		} `json:"experiments"`
		Cells []struct {
			OK bool `json:"ok"`
		} `json:"cells"`
		Candidates []struct {
			OK bool `json:"ok"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(r.bytes, &doc); err != nil {
		return fmt.Errorf("%s: report is not JSON: %w", r.name, err)
	}
	if doc.Schema != r.schema {
		return fmt.Errorf("%s: schema %q, want %q", r.name, doc.Schema, r.schema)
	}
	units := append(append(doc.Experiments, doc.Cells...), doc.Candidates...)
	if len(units) == 0 || (r.units > 0 && len(units) != r.units) {
		return fmt.Errorf("%s: %d units, want %d", r.name, len(units), r.units)
	}
	for i, u := range units {
		if !u.OK {
			return fmt.Errorf("%s: unit %d failed", r.name, i)
		}
	}
	return nil
}

func jsonBytes(w interface{ WriteJSON(io.Writer) error }) ([]byte, error) {
	var buf bytes.Buffer
	err := w.WriteJSON(&buf)
	return buf.Bytes(), err
}

// trialSink observes the runner's outcome stream: trial walls for the
// latency metrics, and trial spans when tracing.
type trialSink struct {
	tr     *tracer
	parent int
	walls  []float64
	first  func(time.Time) // probe mode: called with the first trial's start
}

func (s *trialSink) Put(o runner.TrialOutcome) error {
	end := time.Now()
	if s.first != nil {
		s.first(end.Add(-o.Wall))
	}
	s.walls = append(s.walls, o.Wall.Seconds())
	s.tr.add("runner.trial", o.Unit, s.parent, end.Add(-o.Wall), end)
	return nil
}

func (s *trialSink) ms() []float64 {
	out := make([]float64, len(s.walls))
	for i, w := range s.walls {
		out[i] = w * 1000
	}
	return out
}

// oneWorker is the execution environment of every in-process workload:
// one simulation worker, warm artifact reuse in a store the benchmark
// can read counters from, and the benchmark's sink.
func oneWorker(store *experiments.ArtifactStore, sink *trialSink) runner.Config {
	return runner.Config{Parallel: 1, Warm: true, Store: store, Sinks: []runner.CellSink{sink}}
}

// traceExperiment returns e with its Prepare, Measure and Run recording
// spans. The wrapped experiment computes exactly what e computes.
func traceExperiment(tr *tracer, parent int, e experiments.Experiment) experiments.Experiment {
	if tr == nil {
		return e
	}
	prep, meas, run := e.Prepare, e.Measure, e.Run
	if prep != nil && meas != nil {
		e.Prepare = func(ctx experiments.PrepareCtx) (*experiments.Artifact, error) {
			id := tr.begin("experiments.prepare", e.ID, parent)
			defer tr.end(id)
			return prep(ctx)
		}
		e.Measure = func(ctx experiments.MeasureCtx, art *experiments.Artifact) (experiments.Result, error) {
			id := tr.begin("experiments.measure", e.ID, parent)
			defer tr.end(id)
			return meas(ctx, art)
		}
	} else if run != nil {
		e.Run = func(scale experiments.Scale, seed int64) (experiments.Result, error) {
			id := tr.begin("experiments.run", e.ID, parent)
			defer tr.end(id)
			return run(scale, seed)
		}
	}
	return e
}

func demoJob(seed int64, trials int) runner.Job {
	return runner.Job{Scale: experiments.Demo, Seed: seed, Trials: trials}
}

// inProcess adapts a round function that drives the program in-process
// to the workload interface: it needs no priming and no check beyond
// checkReport, and its set-up ends at the first trial the sink sees.
type inProcess func(tr *tracer, parent int, sink *trialSink) (*roundOut, error)

func (inProcess) prime() error { return nil }

func (f inProcess) round(tr *tracer, parent int) (*roundOut, error) {
	return f(tr, parent, &trialSink{})
}

func (f inProcess) probe(mark func(time.Time)) error {
	_, err := f(nil, 0, &trialSink{first: mark})
	return err
}

func (inProcess) check([]*roundOut) error { return nil }

// suite runs the paper reproduction: every registry experiment, one
// trial each, as `cmd/experiments -exp all -parallel 1` runs them.
func suite(seed int64, tr *tracer, parent int, sink *trialSink) (*roundOut, error) {
	store := experiments.NewArtifactStore()
	id := tr.begin("runner.Run", "", parent)
	sink.tr, sink.parent = tr, id
	sel := experiments.All()
	for i := range sel {
		sel[i] = traceExperiment(tr, id, sel[i])
	}
	t0 := time.Now()
	rep, err := runner.New(oneWorker(store, sink)).Run(sel, demoJob(seed, 1))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	b, err := jsonBytes(rep)
	if err != nil {
		return nil, err
	}
	latency := time.Since(t0).Seconds()
	return &roundOut{
		reports:   []report{{name: "suite", schema: runner.SchemaVersion, units: len(sel), bytes: b}},
		attempted: len(rep.Experiments),
		failed:    rep.Failed(),
		latencies: []float64{latency},
		trialsMS:  sink.ms(),
		store:     countsOf(store),
	}, nil
}

// frontier runs the defense frontier search at a reduced budget.
func frontier(seed int64, tr *tracer, parent int, sink *trialSink) (*roundOut, error) {
	store := experiments.NewArtifactStore()
	id := tr.begin("search.Run", "", parent)
	sink.tr, sink.parent = tr, id
	t0 := time.Now()
	rep, err := search.Run(search.Options{
		Scale:  experiments.Demo,
		Seed:   seed,
		Budget: searchBudget,
		Runner: oneWorker(store, sink),
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	b, err := jsonBytes(rep)
	if err != nil {
		return nil, err
	}
	latency := time.Since(t0).Seconds()
	return &roundOut{
		reports:    []report{{name: "search", schema: search.SchemaVersion, units: rep.Evaluated, bytes: b}},
		attempted:  rep.Evaluated,
		failed:     rep.Failed(),
		latencies:  []float64{latency},
		trialsMS:   sink.ms(),
		store:      countsOf(store),
		candidates: rep.Evaluated,
	}, nil
}
