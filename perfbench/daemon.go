package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/service"
)

// daemonClients is the number of closed-loop clients: each submits a
// job, follows its event stream to the end, fetches the report, and
// only then submits its next job.
const daemonClients = 2

// daemonTemplates are the jobs of the daemon mix before seeds and trial
// counts are applied: cheap experiment selections and small sweeps, so
// the service, journal and store layers carry a visible share of the
// time.
var daemonTemplates = []service.JobSpec{
	{Kind: service.KindExperiments, Experiments: []string{"fig7", "fig10"}},
	{Kind: service.KindExperiments, Experiments: []string{"fig11", "fig13"}},
	{Kind: service.KindExperiments, Experiments: []string{"fig5", "table2"}},
	{Kind: service.KindExperiments, Experiments: []string{"fig12cd"}},
	{Kind: service.KindSweep, Sweep: "sens_chase_noise"},
	{Kind: service.KindSweep, Sweep: "sens_ring_detect"},
	{Kind: service.KindSweep, Sweep: "sens_chase_traffic"},
	{Kind: service.KindSweep, Sweep: "sens_covert_timer"},
}

// daemonVariants give every template several distinct job IDs. Jobs
// that differ only in their trial count reuse one machine shape, so the
// disk store serves them; a seed offset asks for a new shape.
var daemonVariants = []struct {
	seedOffset int64
	trials     int
}{{0, 1}, {0, 2}, {1, 1}, {1, 2}}

// daemon is experimentd in-process: the service with its disk artifact
// store and checkpoint journals, served over loopback HTTP to closed-
// loop clients.
type daemon struct {
	dir   string // state directory; artifacts persist across rounds
	specs []service.JobSpec
	solo  [][]byte // solo runner report of each spec
}

// newDaemon builds the job mix for seed. The submission order is the
// same for every seed, variant by variant, so the pattern of jobs that
// share the pool does not change with the seed.
func newDaemon(seed int64, dir string) *daemon {
	var specs []service.JobSpec
	for _, v := range daemonVariants {
		for _, t := range daemonTemplates {
			s := t
			sd := seed + v.seedOffset
			s.Seed, s.Trials = &sd, v.trials
			specs = append(specs, s)
		}
	}
	return &daemon{dir: dir, specs: specs}
}

// prime runs every spec of the mix through the runner in-process. The
// reports are the service==solo reference, and the runs fill the disk
// artifact store the service opens, so every timed round sees the same
// warm store.
func (d *daemon) prime() error {
	art := filepath.Join(d.dir, "artifacts")
	d.solo = make([][]byte, len(d.specs))
	for i, spec := range d.specs {
		b, err := soloReport(spec, art)
		if err != nil {
			return fmt.Errorf("solo run of job %d: %w", i, err)
		}
		d.solo[i] = b
	}
	return nil
}

// soloReport is the report a one-worker cmd/experiments run of spec
// writes.
func soloReport(spec service.JobSpec, artifactDir string) ([]byte, error) {
	rn := runner.New(runner.Config{Parallel: 1, Warm: true, ArtifactDir: artifactDir})
	job := demoJob(*spec.Seed, spec.Trials)
	if spec.Kind == service.KindSweep {
		ent, ok := experiments.Lookup(spec.Sweep)
		if !ok || ent.Kind != experiments.KindSweep {
			return nil, fmt.Errorf("no sweep %q", spec.Sweep)
		}
		rep, err := rn.RunSweep(ent.Sweep, job)
		if err != nil {
			return nil, err
		}
		return jsonBytes(rep)
	}
	var sel []experiments.Experiment
	for _, id := range spec.Experiments {
		ent, ok := experiments.Lookup(id)
		if !ok || ent.Kind != experiments.KindExperiment {
			return nil, fmt.Errorf("no experiment %q", id)
		}
		sel = append(sel, ent.Experiment)
	}
	rep, err := rn.Run(sel, job)
	if err != nil {
		return nil, err
	}
	return jsonBytes(rep)
}

// server is one service instance served on a loopback port.
type server struct {
	svc  *service.Service
	srv  *http.Server
	base string
	done chan struct{}
}

// startServer opens the service on stateDir with one simulation worker
// and serves it until stop.
func startServer(stateDir string) (*server, error) {
	svc, err := service.Open(service.Config{StateDir: stateDir, Parallel: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // always ErrServerClosed once stop shuts it down
	}()
	return s, nil
}

// stop shuts the HTTP server down, waits for its goroutine, and drains
// the service.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	s.svc.Close()
	return err
}

func (d *daemon) probe(mark func(time.Time)) error {
	dir, err := os.MkdirTemp(d.dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := startServer(dir)
	if err != nil {
		return err
	}
	resp, err := http.Get(s.base + "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	at := time.Now()
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	mark(at)
	return nil
}

// jobObs is what a client observed of one job.
type jobObs struct {
	spec      int // index into the mix
	latency   time.Duration
	submit    time.Duration // POST /v1/jobs
	first     time.Duration // submit answered -> first event received
	queueWait time.Duration // "queued" -> "running" event received
	fetch     time.Duration // GET report
	trialsMS  []float64
	report    []byte
	status    service.JobStatus
	err       error
}

func (d *daemon) round(tr *tracer, parent int) (*roundOut, error) {
	// Each round is a fresh service over the same artifact store: the
	// job records and journals of the previous round are dropped, so
	// job IDs may repeat across rounds but never within one.
	for _, sub := range []string{"jobs", "checkpoints"} {
		if err := os.RemoveAll(filepath.Join(d.dir, sub)); err != nil {
			return nil, err
		}
	}
	before, err := artifactTimes(d.dir)
	if err != nil {
		return nil, err
	}
	s, err := startServer(d.dir)
	if err != nil {
		return nil, err
	}
	tp := &http.Transport{MaxIdleConnsPerHost: daemonClients * 2}
	hc := &http.Client{Transport: tp}
	jobs := make([]jobObs, len(d.specs))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(d.specs) {
					return
				}
				jobs[i] = runJob(hc, s.base, d.specs[i], tr, parent)
				jobs[i].spec = i
			}
		}()
	}
	wg.Wait()
	tp.CloseIdleConnections()
	if err := s.stop(); err != nil {
		return nil, err
	}
	after, err := artifactTimes(d.dir)
	if err != nil {
		return nil, err
	}

	out := &roundOut{jobs: jobs}
	for path, t := range after {
		switch old, ok := before[path]; {
		case !ok:
			out.store.builds++
		case !t.Equal(old):
			out.store.diskLoads++ // a load stamps the entry's time
		}
	}
	for path := range before {
		if _, ok := after[path]; !ok {
			out.store.evictions++
		}
	}
	for i, j := range jobs {
		out.attempted++
		if j.err != nil || j.status.State != service.StateDone || j.status.FailedTrials > 0 || j.status.FailedUnits > 0 {
			out.failed++
		}
		out.latencies = append(out.latencies, j.latency.Seconds())
		out.trialsMS = append(out.trialsMS, j.trialsMS...)
		out.reports = append(out.reports, report{
			name:   fmt.Sprintf("job %d", i),
			schema: schemaOf(d.specs[i]),
			bytes:  j.report,
		})
	}
	return out, nil
}

func schemaOf(spec service.JobSpec) string {
	if spec.Kind == service.KindSweep {
		return runner.SweepSchemaVersion
	}
	return runner.SchemaVersion
}

// artifactTimes maps each disk artifact to its modification time.
func artifactTimes(stateDir string) (map[string]time.Time, error) {
	ents, err := os.ReadDir(filepath.Join(stateDir, "artifacts"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]time.Time, len(ents))
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".rig.gob") {
			continue
		}
		if fi, err := e.Info(); err == nil {
			out[e.Name()] = fi.ModTime()
		}
	}
	return out, nil
}

// runJob submits one job, follows its event stream to the terminal
// state, and fetches its report and status.
func runJob(hc *http.Client, base string, spec service.JobSpec, tr *tracer, parent int) jobObs {
	var o jobObs
	start := time.Now()
	jid := tr.begin("service.job", spec.Kind, parent)
	defer tr.end(jid)

	sid := tr.begin("service.submit", "", jid)
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	var sub struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	code, err := call(hc, http.MethodPost, base+"/v1/jobs", body, &sub)
	tr.end(sid)
	o.submit = time.Since(start)
	if err == nil && (code != http.StatusCreated || !sub.Created) {
		// A refused submission, or one that named an existing job.
		err = fmt.Errorf("submit: HTTP %d, created=%v", code, sub.Created)
	}
	if err != nil {
		o.err = err
		return o
	}
	submitted := time.Now()

	eid := tr.begin("service.events", sub.ID, jid)
	state, err := follow(hc, base+"/v1/jobs/"+sub.ID+"/events", submitted, &o, tr, parent)
	tr.end(eid)
	if err == nil && state != service.StateDone {
		err = fmt.Errorf("job %s ended %s", sub.ID, state)
	}
	if err != nil {
		o.err = err
		return o
	}

	rid := tr.begin("service.report", sub.ID, jid)
	fetchStart := time.Now()
	resp, err := hc.Get(base + "/v1/jobs/" + sub.ID + "/report")
	if err == nil {
		o.report, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("report: HTTP %d", resp.StatusCode)
		}
	}
	o.fetch = time.Since(fetchStart)
	tr.end(rid)
	o.latency = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	_, o.err = call(hc, http.MethodGet, base+"/v1/jobs/"+sub.ID, nil, &o.status)
	return o
}

// follow reads a job's server-sent event stream until its terminal
// state event and returns that state.
func follow(hc *http.Client, url string, submitted time.Time, o *jobObs, tr *tracer, parent int) (service.JobState, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var queued time.Time
	seen := false
	for sc.Scan() {
		payload, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		if !seen {
			o.first, seen = now.Sub(submitted), true
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		switch {
		case ev.Type == service.EventTrial && !ev.Resumed:
			o.trialsMS = append(o.trialsMS, ev.WallMS)
			wall := time.Duration(ev.WallMS * float64(time.Millisecond))
			tr.add("runner.trial", ev.Unit, parent, now.Add(-wall), now)
		case ev.Type == service.EventState && ev.State == service.StateQueued:
			queued = now
		case ev.Type == service.EventState && ev.State == service.StateRunning:
			if !queued.IsZero() {
				o.queueWait = now.Sub(queued)
			}
		case ev.Type == service.EventState && (ev.State == service.StateDone || ev.State == service.StateFailed):
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	return "", errors.New("events: stream ended before a terminal state")
}

// call makes one JSON request and decodes the JSON answer into out.
func call(hc *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// check holds the service==solo contract: every job's report bytes
// equal the solo runner's for the same spec.
func (d *daemon) check(rounds []*roundOut) error {
	for r, out := range rounds {
		for _, j := range out.jobs {
			if j.err == nil && !bytes.Equal(j.report, d.solo[j.spec]) {
				return fmt.Errorf("round %d: job %d report differs from the solo runner's", r, j.spec)
			}
		}
	}
	return nil
}
