package main

import (
	"testing"
	"time"
)

func sp(start, end time.Duration) span { return span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := sp(0, 100*ms)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint children subtracted", []span{sp(10*ms, 20*ms), sp(50*ms, 80*ms)}, 60 * ms},
		{"overlap counted once", []span{sp(10*ms, 40*ms), sp(30*ms, 60*ms), sp(35*ms, 45*ms)}, 50 * ms},
		{"touching children", []span{sp(10*ms, 20*ms), sp(20*ms, 30*ms)}, 80 * ms},
		{"child outside parent clipped", []span{sp(90*ms, 150*ms), sp(-20*ms, 5*ms)}, 85 * ms},
		{"child fully outside ignored", []span{sp(200*ms, 300*ms)}, 100 * ms},
		{"children cover parent", []span{sp(0, 60*ms), sp(50*ms, 100*ms)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTracerParentsAndNil(t *testing.T) {
	var off *tracer
	if id := off.begin("x", "", 0); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	off.end(0)
	off.add("x", "", 0, time.Now(), time.Now())

	tr := newTracer("test")
	root := tr.begin("round", "", 0)
	child := tr.begin("runner.Run", "", root)
	now := time.Now()
	tr.add("runner.trial", "fig5", child, now.Add(-time.Millisecond), now)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if kids := childrenOf(spans, root); len(kids) != 1 || kids[0].Name != "runner.Run" {
		t.Errorf("children of root = %+v", kids)
	}
	if kids := childrenOf(spans, child); len(kids) != 1 || kids[0].Unit != "fig5" {
		t.Errorf("children of runner.Run = %+v", kids)
	}
	for _, s := range spans {
		if s.End < s.Start || s.Run != "test" {
			t.Errorf("bad span %+v", s)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	if got := quantile([]float64{0, 10}, 0.25); got != 2.5 {
		t.Errorf("p25 of {0,10} = %v, want 2.5", got)
	}
	for n, want := range map[int]float64{17: 0.5, 20: 0.5, 40: 0.75, 96: 1 - 10.0/96} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}
