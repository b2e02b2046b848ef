package main

import (
	"fmt"
	"runtime"
	"time"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

var (
	spanKinds   = []string{"histogram", "range", "cumulative", "ingest", "epoch_close"}
	spanClasses = []int{clHistogram, clRange, clCumulative, clIngest, clEpoch}
	engineKinds = []string{"histogram", "range", "cumulative"}
	ladderRungs = []string{"engine", "table", "core", "router1", "router4", "http"}
	ladderOps   = []string{"histogram", "range", "cumulative", "ingest_batch", "epoch_close"}
	serverKinds = spanKinds[:4]
)

// layerMetrics lists every per-layer metric in output order.
func layerMetrics() []layerMetric {
	var out []layerMetric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit})
		}
	}
	for _, k := range serverKinds {
		add("us", "server.self_us_p50."+k)
	}
	add("KiB", "server.resp_kb_per_release")
	for _, k := range spanKinds {
		add("us", "service.span_us_p50."+k, "service.span_us_tail."+k, "service.self_us_p50."+k)
	}
	for _, k := range engineKinds {
		add("us", "engine.release_us_mean."+k)
	}
	add("count", "engine.noise_draws_per_release")
	add("us", "stream.apply_us_mean")
	add("count", "stream.queue_depth_max")
	add("ratio", "stream.queue_full_ratio")
	add("ms", "stream.epoch_lag_ms_max")
	for _, o := range lockOwners {
		add("ms/s", "wait."+o+"_ms_per_s")
	}
	add("us", "shard.route_us")
	add("ratio", "shard.skew")
	add("1/s", "wal.fsyncs_per_s")
	add("ms", "wal.fsync_ms_mean")
	add("B", "wal.bytes_per_op")
	add("count", "wal.appends_per_op")
	add("ms", "snapshot.ms_mean")
	add("count", "snapshot.count", "wal.tail_records_at_restart")
	for _, r := range ladderRungs {
		for _, o := range ladderOps {
			add("us", "ladder."+r+"."+o+"_us")
		}
	}
	add("ns", "ladder.codec.decode_ns_per_event")
	add("KiB", "process.alloc_kb_per_op")
	add("count", "process.gc_cycles_per_kop")
	add("ms", "tail.release_ms", "tail.ingest_ms", "tail.epoch_close_ms")
	add("ms", "gen.late_ms_p99")
	add("%", "trace.overhead_pct", "trace.residual_pct")
	return out
}

// layerPct is a percentile of a per-layer sample in microseconds, or 0
// when the sample is too small for the percentile rule.
func layerPct(samples []time.Duration, q float64) float64 {
	v, err := percentile(sortDurations(append([]time.Duration(nil), samples...)), q)
	if err != nil {
		return 0
	}
	return us(v)
}

// layerTail is the highest tail percentile the sample supports, in
// microseconds, or 0 when it supports none.
func layerTail(samples []time.Duration) float64 {
	_, v, err := tail(sortDurations(append([]time.Duration(nil), samples...)))
	if err != nil {
		return 0
	}
	return us(v)
}

// diffs returns a[i]-b[i], per request.
func diffs(a, b []time.Duration) []time.Duration {
	out := make([]time.Duration, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// minus returns a[i]-c, per request.
func minus(a []time.Duration, c time.Duration) []time.Duration {
	out := make([]time.Duration, len(a))
	for i := range a {
		out[i] = a[i] - c
	}
	return out
}

// measureTraced is the traced run: an untraced open-loop phase, the same
// schedule again with spans, /metrics deltas and the mutex profile on,
// then the layer ladder, the output checks and recovery.
func (b *bench) measureTraced() (*outcome, error) {
	t, _, err := b.setupTarget(true)
	if err != nil {
		return nil, err
	}
	defer func() { t.close() }()
	open, _, _ := b.w.phases(b.seconds)
	sched0, err := b.schedule(t, open, 0)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	rec0 := b.runOpen(t, sched0)
	rt1 := readRuntime()

	sched1, err := b.schedule(t, open, 1)
	if err != nil {
		return nil, err
	}
	metricsHandler := t.front.MetricsHandler()
	before, err := scrape(metricsHandler)
	if err != nil {
		return nil, err
	}
	sampler := startSampler(metricsHandler, 100*time.Millisecond)
	runtime.SetMutexProfileFraction(1)
	t.tracer.on.Store(true)
	tracedStart := time.Now()
	rec1 := b.runOpen(t, sched1)
	tracedSecs := time.Since(tracedStart).Seconds()
	t.tracer.on.Store(false)
	runtime.SetMutexProfileFraction(0)
	queueMax, lagMax, err := sampler.finish()
	if err != nil {
		return nil, err
	}
	after, err := scrape(metricsHandler)
	if err != nil {
		return nil, err
	}
	prof, err := mutexProfile()
	if err != nil {
		return nil, err
	}
	waits, err := attributeMutex(prof)
	if err != nil {
		return nil, err
	}

	ladder, err := b.ladder()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	b.checkTallies(t.inner, t, "after drain", true)
	b.checkAccuracy(t)
	b.checkDigest(t, sched0)
	tail := 0
	if b.w.durable {
		t, _, tail, err = b.recoverDurable(t, true, recoveryReps)
	} else {
		_, err = b.restartMemory(recoveryReps)
	}
	if err != nil {
		return nil, err
	}

	d := promDelta{before, after}
	m := map[string]float64{}
	for k, v := range ladder {
		m[k] = v
	}
	for _, k := range engineKinds {
		m["engine.release_us_mean."+k] = d.mean("blowfish_release_seconds", map[string]string{"kind": k}) * 1e6
	}
	m["stream.apply_us_mean"] = d.mean("blowfish_ingest_apply_seconds", nil) * 1e6
	// A request's engine time is not observable from outside the service,
	// so service self time subtracts the engine rung's uncontended median
	// for the same op.
	engineTime := map[int]time.Duration{}
	for i, op := range ladderOps {
		engineTime[spanClasses[i]] = time.Duration(ladder["ladder.engine."+op+"_us"] * float64(time.Microsecond))
	}

	var relRTT, relServer, relService, relEngine []time.Duration
	for i, c := range spanClasses {
		k := spanKinds[i]
		m["service.span_us_p50."+k] = layerPct(rec1.span[c], 0.5)
		m["service.span_us_tail."+k] = layerTail(rec1.span[c])
		m["service.self_us_p50."+k] = layerPct(minus(rec1.span[c], engineTime[c]), 0.5)
		if i < len(serverKinds) {
			m["server.self_us_p50."+k] = layerPct(diffs(rec1.rtt[c], rec1.span[c]), 0.5)
		}
		if isRelease(c) {
			relRTT = append(relRTT, rec1.rtt[c]...)
			relServer = append(relServer, diffs(rec1.rtt[c], rec1.span[c])...)
			relService = append(relService, minus(rec1.span[c], engineTime[c])...)
			for range rec1.span[c] {
				relEngine = append(relEngine, engineTime[c])
			}
		}
	}
	releases := 0
	for _, c := range []int{clHistogram, clRange, clCumulative} {
		releases += rec1.attempted[c] - rec1.failed[c]
	}
	if releases > 0 {
		m["server.resp_kb_per_release"] = float64(rec1.respBytes) / float64(releases) / 1024
	}
	if rel := d.sum("blowfish_releases_total", nil); rel > 0 {
		m["engine.noise_draws_per_release"] = d.sum("blowfish_noise_draws_total", nil) / rel
	}
	m["stream.queue_depth_max"] = queueMax
	if n := rec1.attempted[clIngest]; n > 0 {
		m["stream.queue_full_ratio"] = float64(rec1.queueFull) / float64(n+rec1.queueFull)
	}
	m["stream.epoch_lag_ms_max"] = lagMax * 1e3
	for _, o := range lockOwners {
		m["wait."+o+"_ms_per_s"] = waits[o] * 1e3 / tracedSecs
	}
	m["shard.route_us"] = (ladder["ladder.router1.histogram_us"] - ladder["ladder.core.histogram_us"] +
		ladder["ladder.router1.range_us"] - ladder["ladder.core.range_us"] +
		ladder["ladder.router1.cumulative_us"] - ladder["ladder.core.cumulative_us"]) / 3
	m["shard.skew"] = skew(d)
	completed1 := float64(rec1.completed())
	m["wal.fsyncs_per_s"] = d.sum("blowfish_wal_fsync_seconds_count", nil) / tracedSecs
	m["wal.fsync_ms_mean"] = d.mean("blowfish_wal_fsync_seconds", nil) * 1e3
	m["wal.bytes_per_op"] = d.sum("blowfish_wal_bytes_total", nil) / completed1
	m["wal.appends_per_op"] = d.sum("blowfish_wal_appends_total", nil) / completed1
	m["snapshot.ms_mean"] = d.mean("blowfish_snapshot_seconds", nil) * 1e3
	m["snapshot.count"] = d.sum("blowfish_checkpoints_total", nil)
	m["wal.tail_records_at_restart"] = float64(tail)
	completed0 := float64(rec0.completed())
	m["process.alloc_kb_per_op"] = (rt1.allocBytes - rt0.allocBytes) / completed0 / 1024
	m["process.gc_cycles_per_kop"] = (rt1.gcCycles - rt0.gcCycles) / completed0 * 1000
	m["gen.late_ms_p99"] = layerPct(rec0.late, 0.99) / 1e3
	_, tails, err := latencies(rec0, b.w.mix)
	if err != nil {
		return nil, err
	}
	for name, ts := range tails {
		m["tail."+name+"_ms"] = ts.MS
	}

	untraced, traced := layerPct(rec0.releases(), 0.5), layerPct(rec1.releases(), 0.5)
	if untraced > 0 {
		m["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
	}
	if client := layerPct(relRTT, 0.5); client > 0 {
		covered := layerPct(relServer, 0.5) + layerPct(relService, 0.5) + layerPct(relEngine, 0.5)
		m["trace.residual_pct"] = 100 * (client - covered) / client
	}

	all := mergeAll([]*recorder{rec0, rec1})
	attempted, failedOps := all.totals()
	out := &outcome{metrics: map[string]float64{}, samples: map[string]int{}, tails: tails, attempted: attempted, failed: failedOps}
	for _, lm := range layerMetrics() {
		out.metrics[lm.name] = m[lm.name]
	}
	for i, c := range spanClasses {
		out.samples["service.span."+spanKinds[i]] = len(rec1.span[c])
	}
	out.samples["gen.late"] = len(rec0.late)
	out.samples["ladder.reps"] = b.w.ladderReps
	return out, nil
}

// skew is the busiest shard's share of release and ingest work over the
// mean shard's; 1 for a single core.
func skew(d promDelta) float64 {
	per := map[string]float64{}
	for _, name := range []string{"blowfish_releases_total", "blowfish_ingest_batches_total"} {
		for shard, v := range d.after.by(name, "shard") {
			per[shard] += v - d.before.by(name, "shard")[shard]
		}
	}
	var sum, top float64
	for _, v := range per {
		sum += v
		top = max(top, v)
	}
	if sum == 0 {
		return 1
	}
	return top / (sum / float64(len(per)))
}
