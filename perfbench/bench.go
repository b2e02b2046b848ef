package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"sync"
	"time"

	"blowfish/internal/codec"
	"blowfish/internal/server"
)

// bench is one run of one workload: its generated inputs and the tallies
// of everything the server acknowledged, which the output checks compare
// against the server's own state.
type bench struct {
	w           *workload
	seed        uint64
	seconds     int
	workers     int
	dataDir     string
	setupClient *apiClient

	initRows      [][]int
	policyBody    []byte
	datasetBodies [][]byte
	streamQueries []server.RangeQuery

	// Acknowledged work, by entity index. Each entity belongs to one load
	// worker, so workers write disjoint elements.
	rows        [][]int // per dataset: initial rows plus acked appends and upserts
	sessSpent   []float64
	sessDigest  []uint64
	streamSpent []float64
	cursor      []uint64
	// digest is set where releases read static data, so they replay.
	// Answers are digested by their bytes; the replay hashes the bytes
	// of the same front with the same seed.
	digest   bool
	hashSeed maphash.Seed

	recoveries int // recoveries and restarts so far, which names their checks

	checks []check
}

// check is the outcome of one output check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (b *bench) fail(name, format string, args ...any) {
	b.checks = append(b.checks, check{Name: name, Detail: fmt.Sprintf(format, args...)})
}

func (b *bench) pass(name, format string, args ...any) {
	b.checks = append(b.checks, check{Name: name, OK: true, Detail: fmt.Sprintf(format, args...)})
}

func (b *bench) correct() bool {
	for _, c := range b.checks {
		if !c.OK {
			return false
		}
	}
	return len(b.checks) > 0
}

func newBench(w *workload, seed uint64, seconds int, dataDir string) (*bench, error) {
	b := &bench{
		w: w, seed: seed, seconds: seconds, dataDir: dataDir,
		workers:     runtime.NumCPU(),
		setupClient: &apiClient{hc: httpClient()},
		digest:      w.liveSplit,
		hashSeed:    maphash.MakeSeed(),
	}
	rows, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	b.initRows = rows
	size := w.domainSize()
	b.policyBody, err = json.Marshal(server.CreatePolicyRequest{
		Domain: []server.AttrSpec{{Name: "value", Size: size}},
		Graph:  server.GraphSpec{Kind: "l1", Theta: theta},
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		body, err := rowsBody(size, r)
		if err != nil {
			return nil, err
		}
		b.datasetBodies = append(b.datasetBodies, body)
	}
	b.streamQueries = randomQueries(&splitmix{s: seed ^ 0xC0FFEE}, size, rangeQueries)
	return b, nil
}

// resetTallies starts the acknowledged-work tallies from the set-up state.
func (b *bench) resetTallies() {
	b.rows = make([][]int, len(b.initRows))
	for d, r := range b.initRows {
		b.rows[d] = append([]int(nil), r...)
	}
	b.sessSpent = make([]float64, b.w.sessions)
	b.sessDigest = make([]uint64, b.w.sessions)
	b.streamSpent = make([]float64, b.w.streams)
	b.cursor = make([]uint64, b.w.streams)
}

// runOpen runs an open-loop schedule, one goroutine and one connection
// per worker, and merges the workers' recorders once they finish.
func (b *bench) runOpen(t *target, sched [][]op) *recorder {
	clients := make([]*loadClient, len(sched))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range sched {
		c := b.newLoadClient(t)
		clients[i] = c
		wg.Add(1)
		go func(ops []op) {
			defer wg.Done()
			runWorker(realClock{}, start, ops, c.rec, c.exec)
		}(sched[i])
	}
	wg.Wait()
	recs := make([]*recorder, len(clients))
	for i, c := range clients {
		c.hc.CloseIdleConnections()
		recs[i] = c.rec
	}
	return mergeAll(recs)
}

// A closed-loop slice starts with an unmeasured warm-up, which lets the
// load reach both processors after the quieter open loop, and then is
// split into windows; the run reports the median over all its windows, so
// one stall does not set the result.
const (
	closedWarmup = 250 * time.Millisecond
	closedWindow = 500 * time.Millisecond
)

func windows(dur time.Duration) int { return max(1, int(dur/closedWindow)) }

// windowClock samples process CPU time at each window boundary of a
// closed-loop slice whose measured part starts at from.
func windowClock(from time.Time, n int) []time.Duration {
	cpu := make([]time.Duration, 0, n+1)
	for k := 0; k <= n; k++ {
		time.Sleep(time.Until(from.Add(time.Duration(k) * closedWindow)))
		cpu = append(cpu, cpuTime())
	}
	return cpu
}

// closedReleases runs the release mix in a closed loop for one round's
// slice, one connection per worker. For each window after the warm-up it
// returns the completed requests per second and the process CPU time per
// completed request, in milliseconds.
func (b *bench) closedReleases(t *target, dur time.Duration, round int) (rates, cpuMS []float64, rec *recorder, err error) {
	rings := make([][]op, b.workers)
	for w := range rings {
		rng := &splitmix{s: b.seed*7919 + uint64(round*b.workers+w)}
		for _, class := range b.w.deck(rng, 500) {
			s := w + b.workers*rng.intn((b.w.sessions-w+b.workers-1)/b.workers)
			o, err := b.releaseOp(t, rng, s, class)
			if err != nil {
				return nil, nil, nil, err
			}
			o.phase = -1
			rings[w] = append(rings[w], o)
		}
	}
	recs := make([]*recorder, b.workers)
	n := windows(dur)
	done := make([][]int, b.workers) // completions per window, per worker
	for w := range done {
		done[w] = make([]int, n)
	}
	from := time.Now().Add(closedWarmup)
	deadline := from.Add(time.Duration(n) * closedWindow)
	var wg sync.WaitGroup
	for w := range rings {
		c := b.newLoadClient(t)
		recs[w] = c.rec
		wg.Add(1)
		go func(w int, ring []op) {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			for i := 0; time.Now().Before(deadline); i++ {
				o := &ring[i%len(ring)]
				sent, ok := c.exec(o)
				c.rec.attempted[o.class]++
				if !ok {
					c.rec.failed[o.class]++
				} else if since := time.Since(from); since >= 0 {
					if k := int(since / closedWindow); k < n {
						done[w][k]++
					}
				}
				c.rec.lat[o.class] = append(c.rec.lat[o.class], time.Since(sent))
			}
		}(w, rings[w])
	}
	cpu := windowClock(from, n)
	wg.Wait()
	for k := 0; k < n; k++ {
		completed := 0
		for w := range done {
			completed += done[w][k]
		}
		rates = append(rates, float64(completed)/closedWindow.Seconds())
		if completed > 0 {
			cpuMS = append(cpuMS, ms(cpu[k+1]-cpu[k])/float64(completed))
		}
	}
	return rates, cpuMS, mergeAll(recs), nil
}

// closedIngest runs upsert batches in a closed loop for one slice, one
// producer per worker, acknowledged on submit; each producer ends with one
// batch per dataset acknowledged on apply. For each window after the
// warm-up it returns the events applied per second, read from the
// writers' processed cursors. Producer p upserts only tuple ids congruent
// to p, so the final rows do not depend on how the producers interleave.
func (b *bench) closedIngest(t *target, dur time.Duration, round int) ([]float64, *recorder, error) {
	ingest := b.w.ingestDatasets()
	recs := make([]*recorder, b.workers)
	errs := make([]error, b.workers)
	n := windows(dur)
	from := time.Now().Add(closedWarmup)
	deadline := from.Add(time.Duration(n) * closedWindow)
	var wg sync.WaitGroup
	for p := 0; p < b.workers; p++ {
		c := b.newLoadClient(t)
		recs[p] = c.rec
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			rng := &splitmix{s: b.seed*104729 + uint64(round*b.workers+p)}
			send := func(d int, wait bool) error {
				o, err := b.upsertOp(t, rng, d, p, wait)
				if err != nil {
					return err
				}
				_, ok := c.exec(&o)
				c.rec.attempted[clIngest]++
				if !ok {
					c.rec.failed[clIngest]++
				}
				return nil
			}
			for i := 0; time.Now().Before(deadline); i++ {
				if err := send(ingest[i%len(ingest)], false); err != nil {
					errs[p] = err
					return
				}
			}
			for _, d := range ingest {
				if err := send(d, true); err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}
	rates := make([]float64, 0, n)
	time.Sleep(time.Until(from))
	prev, err := processed(t)
	for k := 1; k <= n && err == nil; k++ {
		time.Sleep(time.Until(from.Add(time.Duration(k) * closedWindow)))
		var now float64
		if now, err = processed(t); err == nil {
			rates = append(rates, (now-prev)/closedWindow.Seconds())
			prev = now
		}
	}
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return rates, mergeAll(recs), nil
}

// processed is the sum of the ingest writers' processed cursors.
func processed(t *target) (float64, error) {
	snap, err := scrape(t.front.MetricsHandler())
	if err != nil {
		return 0, err
	}
	return snap.sum("blowfish_ingest_processed_seq", nil), nil
}

// closedBatch is the number of events in a closed-loop ingest batch: one
// full writer batch, which the ingestor applies at once instead of waiting
// up to its 2 ms flush interval for more, so the phase measures how fast
// the writer applies rather than that timer.
const closedBatch = 256

// upsertOp draws a batch of upserts over producer p's tuple ids of d.
func (b *bench) upsertOp(t *target, rng *splitmix, d, p int, wait bool) (op, error) {
	init := b.initRows[d]
	n := closedBatch
	o := op{class: clIngest, ent: d, rows: make([]int, n), ids: make([]int, n), phase: -1}
	events := make([]codec.Event, n)
	cells := make([]int, n)
	for i := 0; i < n; i++ {
		o.ids[i] = p + b.workers*rng.intn((len(init)-p+b.workers-1)/b.workers)
		o.rows[i] = init[rng.intn(len(init))]
		cells[i] = o.rows[i]
		events[i] = codec.Event{Op: "upsert", ID: o.ids[i], Row: cells[i : i+1 : i+1]}
	}
	body, url, err := b.eventsBody(t, d, events, wait)
	o.body, o.url = body, url
	return o, err
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
