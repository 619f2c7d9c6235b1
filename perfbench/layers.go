package main

import (
	"repro/internal/experiments"
)

// programCalls are the spans of the benchmark's calls into the program
// whose self time, once their trials are subtracted, is the runner's
// own overhead: aggregation, journals, sinks and, for the daemon, the
// service around the trials.
var programCalls = map[string]bool{
	"runner.Run": true, "search.Run": true, "round": true,
}

// layerMetrics derives the per-layer metrics of a traced round. Every
// metric is reported on every workload; one a workload does not
// exercise reads 0.
func layerMetrics(spans []span, out *roundOut, cpuSec map[string]float64, rt0, rt1 runtimeCounters) map[string]metric {
	m := map[string]metric{}

	var submit, first, queue, fetch []float64
	for _, j := range out.jobs {
		submit = append(submit, float64(j.submit.Microseconds())/1000)
		first = append(first, float64(j.first.Microseconds())/1000)
		queue = append(queue, j.queueWait.Seconds())
		fetch = append(fetch, float64(j.fetch.Microseconds())/1000)
	}
	m["service.submit_ms"] = metric{median(submit), "ms"}
	m["service.first_event_ms"] = metric{median(first), "ms"}
	m["service.queue_wait_s"] = metric{median(queue), "s"}
	m["service.report_ms"] = metric{median(fetch), "ms"}

	m["runner.trials"] = metric{float64(len(out.trialsMS)), "count"}
	m["runner.trial_p50_ms"] = metric{quantile(out.trialsMS, 0.5), "ms"}
	m["runner.trial_p90_ms"] = metric{quantile(out.trialsMS, 0.9), "ms"}

	var overhead, prepare, measure, searchSec float64
	unit := map[string]float64{}
	for _, s := range spans {
		switch s.Name {
		case "experiments.prepare":
			prepare += s.dur().Seconds()
			unit[s.Unit] += s.dur().Seconds()
		case "experiments.measure", "experiments.run":
			measure += s.dur().Seconds()
			unit[s.Unit] += s.dur().Seconds()
		case "search.Run":
			searchSec += s.dur().Seconds()
		}
		// A program call's overhead is its span minus its trials. The
		// daemon's round span holds the trials its clients saw; the
		// in-process rounds' trials hang off their runner calls.
		if programCalls[s.Name] {
			var trials []span
			for _, c := range childrenOf(spans, s.ID) {
				if c.Name == "runner.trial" {
					trials = append(trials, c)
				}
			}
			if len(trials) > 0 {
				overhead += selfTime(s, trials).Seconds()
			}
		}
	}
	m["runner.overhead_s"] = metric{overhead, "s"}
	m["experiments.prepare_s"] = metric{prepare, "s"}
	m["experiments.measure_s"] = metric{measure, "s"}
	for _, e := range experiments.All() {
		m["experiments.unit_s."+e.ID] = metric{unit[e.ID], "s"}
	}

	m["store.builds"] = metric{float64(out.store.builds), "count"}
	m["store.disk_loads"] = metric{float64(out.store.diskLoads), "count"}
	m["store.evictions"] = metric{float64(out.store.evictions), "count"}

	m["search.candidates"] = metric{float64(out.candidates), "count"}
	perSec := 0.0
	if searchSec > 0 {
		perSec = float64(out.candidates) / searchSec
	}
	m["search.candidates_per_s"] = metric{perSec, "1/s"}

	var total float64
	for _, v := range cpuSec {
		total += v
	}
	for _, b := range buckets {
		share := 0.0
		if total > 0 {
			share = cpuSec[b] / total
		}
		m["cpu_s."+b] = metric{cpuSec[b], "s"}
		m["cpu_share."+b] = metric{share, "ratio"}
	}

	m["runtime.alloc_mb"] = metric{float64(rt1.allocBytes-rt0.allocBytes) / (1 << 20), "MB"}
	m["runtime.gc_cycles"] = metric{float64(rt1.gcCycles - rt0.gcCycles), "count"}
	m["runtime.gc_cpu_s"] = metric{rt1.gcCPU - rt0.gcCPU, "s"}
	return m
}
