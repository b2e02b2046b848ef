package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// splitmix is the benchmark's generator of synthetic values (operands,
// schedule phases, appended rows). It is seeded from --seed only, so the
// same seed gives the same inputs, and it keeps math/rand out of the tree.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix64 folds v into the running hash h; the digest of a release stream.
func mix64(h, v uint64) uint64 {
	r := splitmix{s: h ^ v}
	return r.next()
}

// failed marks a sample of an operation that failed or was refused: it
// sorts above every real latency, so it counts as missing any limit.
const failed = time.Duration(math.MaxInt64)

// minTail is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minTail = 10

// percentile returns the nearest-rank q-quantile of sorted samples, or an
// error when fewer than minTail samples lie beyond it.
func percentile(sorted []time.Duration, q float64) (time.Duration, error) {
	n := len(sorted)
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, the rule needs %d", q*100, n, n-rank, minTail)
	}
	return sorted[rank-1], nil
}

// tailQuantiles are the tail percentiles a timing may be reported at.
var tailQuantiles = []float64{0.999, 0.99, 0.98, 0.95, 0.9}

// tail returns the highest of tailQuantiles that has at least minTail
// sorted samples beyond it, with its value.
func tail(sorted []time.Duration) (float64, time.Duration, error) {
	for _, q := range tailQuantiles {
		if v, err := percentile(sorted, q); err == nil {
			return q, v, nil
		}
	}
	return 0, 0, fmt.Errorf("%d samples are too few for a tail percentile", len(sorted))
}

// sortDurations sorts in place and returns its argument.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// Operation classes. The three release kinds together are "releases".
const (
	clRange = iota
	clHistogram
	clCumulative
	clRead
	clIngest
	clEpoch
	clPoll
	numClasses
)

func isRelease(c int) bool { return c <= clCumulative }

// recorder holds one load worker's measurements. Each worker owns one, so
// recording takes no lock; merge combines them after the workers finish.
type recorder struct {
	lat       [numClasses][]time.Duration // latency, see account
	late      []time.Duration             // send time minus due time
	attempted [numClasses]int
	failed    [numClasses]int
	queueFull int   // 429 answers to ingest batches (each retried)
	respBytes int64 // release response bodies

	// Traced runs: per request, client round trip and the service span.
	rtt  [numClasses][]time.Duration
	span [numClasses][]time.Duration
}

func (r *recorder) merge(o *recorder) {
	for c := 0; c < numClasses; c++ {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
		r.rtt[c] = append(r.rtt[c], o.rtt[c]...)
		r.span[c] = append(r.span[c], o.span[c]...)
		r.attempted[c] += o.attempted[c]
		r.failed[c] += o.failed[c]
	}
	r.late = append(r.late, o.late...)
	r.queueFull += o.queueFull
	r.respBytes += o.respBytes
}

// releases returns the pooled latencies of the three release kinds.
func (r *recorder) releases() []time.Duration {
	var all []time.Duration
	for c := 0; c < numClasses; c++ {
		if isRelease(c) {
			all = append(all, r.lat[c]...)
		}
	}
	return all
}

func (r *recorder) totals() (attempted, failedOps int) {
	for c := 0; c < numClasses; c++ {
		attempted += r.attempted[c]
		failedOps += r.failed[c]
	}
	return attempted, failedOps
}

func (r *recorder) completed() int {
	a, f := r.totals()
	return a - f
}

func mergeAll(rs []*recorder) *recorder {
	out := &recorder{}
	for _, r := range rs {
		out.merge(r)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
