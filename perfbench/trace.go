package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Parent is the ID of the span that caused it (0 for a root);
// Run names the benchmark run every span of one trace belongs to.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Unit   string        `json:"unit,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Run    string        `json:"run"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds run the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span and returns its ID, which end closes and children
// name as their parent.
func (t *tracer) begin(name, unit string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Unit: unit,
		Start: now.Sub(t.t0), End: now.Sub(t.t0), Run: t.run,
	})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now.Sub(t.t0)
}

// add records a span that has already finished, such as a trial whose
// duration the runner reports once it completes.
func (t *tracer) add(name, unit string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Run: t.run,
	})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile stores the spans as JSON.
func (t *tracer) writeFile(path string) error {
	b, err := json.MarshalIndent(t.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children are counted once, and the parts
// of a child outside the parent are ignored.
func selfTime(parent span, children []span) time.Duration {
	var ivs [][2]time.Duration
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var covered, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curHi {
			curHi = max(curHi, iv[1])
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = iv[0], iv[1], true
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// childrenOf returns the spans whose parent is id.
func childrenOf(spans []span, id int) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}
