package main

import (
	"fmt"
	"runtime"
	"time"
)

// report is the detail line printed before the result: the stamp, the
// sample count behind every metric, the tail latencies, and the output
// checks.
type report struct {
	Workload string              `json:"workload"`
	Stamp    stamp               `json:"stamp"`
	Samples  map[string]int      `json:"samples"`
	Tails    map[string]tailStat `json:"tails"`
	Checks   []check             `json:"checks"`
}

// outcome is what one run measured.
type outcome struct {
	metrics   map[string]float64
	samples   map[string]int
	tails     map[string]tailStat
	attempted int
	failed    int
}

// tailStat is an open-loop latency tail: the highest percentile with at
// least minTail samples beyond it.
type tailStat struct {
	Percentile float64 `json:"percentile"`
	MS         float64 `json:"ms"`
	Samples    int     `json:"samples"`
}

// latencies returns the median of each open-loop class in milliseconds,
// keyed <class>_p50_ms, and its tail. The release median is each release
// kind's median, averaged with the mix's weights: the kinds' latencies lie
// far apart, so the median of them pooled would sit in the tail of the
// fastest kind and move with it.
func latencies(rec *recorder, mix [clRead + 1]float64) (map[string]float64, map[string]tailStat, error) {
	p50s, tails := map[string]float64{}, map[string]tailStat{}
	for _, p := range openLatencies(rec) {
		sorted := sortDurations(append([]time.Duration(nil), p.samples...))
		med, err := percentile(sorted, 0.5)
		if err != nil {
			return nil, nil, fmt.Errorf("%s latency: %w", p.name, err)
		}
		q, v, err := tail(sorted)
		if err != nil {
			return nil, nil, fmt.Errorf("%s latency: %w", p.name, err)
		}
		p50s[p.name+"_p50_ms"] = ms(med)
		tails[p.name] = tailStat{Percentile: q * 100, MS: ms(v), Samples: len(sorted)}
	}
	var sum, weight float64
	for c := clRange; c <= clCumulative; c++ {
		if mix[c] == 0 {
			continue
		}
		med, err := percentile(sortDurations(append([]time.Duration(nil), rec.lat[c]...)), 0.5)
		if err != nil {
			return nil, nil, fmt.Errorf("release kind %d latency: %w", c, err)
		}
		sum += mix[c] * ms(med)
		weight += mix[c]
	}
	p50s["release_p50_ms"] = sum / weight
	return p50s, tails, nil
}

type namedSamples struct {
	name    string
	samples []time.Duration
}

// openLatencies are the open-loop latency samples a run reports.
func openLatencies(rec *recorder) []namedSamples {
	return []namedSamples{
		{"release", rec.releases()},
		{"ingest", rec.lat[clIngest]},
		{"epoch_close", rec.lat[clEpoch]},
	}
}

// setupTarget sets up the run's target and starts the tallies from its
// state.
func (b *bench) setupTarget(traced bool) (*target, float64, error) {
	t, d, err := b.setup(traced, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	b.resetTallies()
	return t, d.Seconds(), nil
}

// measure is the untraced run: set-up, then rounds of the open loop, the
// two closed-loop slices, recovery and a throwaway set-up, then the output
// checks.
func (b *bench) measure() (*outcome, error) {
	t, setupS, err := b.setupTarget(false)
	if err != nil {
		return nil, err
	}
	defer func() { t.close() }()
	setups := []float64{setupS}
	n := rounds(b.seconds)
	open, closedRel, closedIng := b.w.phases(b.seconds)
	open, closedRel, closedIng = open/time.Duration(n), closedRel/time.Duration(n), closedIng/time.Duration(n)
	var sched0 [][]op
	var openRecs, recs []*recorder
	var relRates, relCPU, ingRates, recovery []float64
	var heapMiB float64
	for r := 0; r < n; r++ {
		sched, err := b.schedule(t, open, r)
		if err != nil {
			return nil, err
		}
		if r == 0 {
			sched0 = sched
		}
		openRecs = append(openRecs, b.runOpen(t, sched))
		if r == 0 {
			heapMiB = retainedHeap()
		}
		rates, cpu, rec, err := b.closedReleases(t, closedRel, r)
		if err != nil {
			return nil, err
		}
		relRates, relCPU, recs = append(relRates, rates...), append(relCPU, cpu...), append(recs, rec)
		rates, rec, err = b.closedIngest(t, closedIng, r)
		if err != nil {
			return nil, err
		}
		ingRates, recs = append(ingRates, rates...), append(recs, rec)
		var times []float64
		if b.w.durable {
			t, times, _, err = b.recoverDurable(t, false, recoveryReps)
		} else {
			times, err = b.restartMemory(recoveryReps)
		}
		if err != nil {
			return nil, err
		}
		recovery = append(recovery, times...)
		// One more set-up per round, thrown away, samples set-up time
		// across the run.
		tg, d, err := b.setup(false, r+1)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tg.close()
		setups = append(setups, d.Seconds())
	}

	b.checkTallies(t.inner, t, "after drain", true)
	b.checkAccuracy(t)
	b.checkDigest(t, sched0)

	rec := mergeAll(openRecs)
	all := mergeAll(append(recs, rec))
	attempted, failedOps := all.totals()
	p50s, tails, err := latencies(rec, b.w.mix)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: p50s, samples: map[string]int{}, tails: tails, attempted: attempted, failed: failedOps}
	m := out.metrics
	for name, ts := range tails {
		out.samples[name+"_p50_ms"] = ts.Samples
	}
	m["setup_s"] = median(setups)
	m["release_max_rps"] = median(relRates)
	m["ingest_max_events_s"] = median(ingRates)
	m["recovery_s"] = median(recovery)
	m["ok_ratio"] = float64(all.completed()) / float64(attempted)
	m["cpu_ms_per_op"] = median(relCPU)
	m["heap_live_mb"] = heapMiB
	out.samples["setup_s"] = len(setups)
	out.samples["release_max_rps"] = len(relRates)
	out.samples["ingest_max_events_s"] = len(ingRates)
	out.samples["recovery_s"] = len(recovery)
	out.samples["ok_ratio"] = attempted
	out.samples["cpu_ms_per_op"] = len(relCPU)
	return out, nil
}
