package main

import (
	"sort"
	"syscall"
	"time"
)

// op is one scheduled request of the open-loop phase.
type op struct {
	due   time.Duration // offset from the phase start
	class int
	ent   int // session, dataset or stream index, by class
	// traceID names the entity whose service span the traced run pairs
	// with this request; empty for classes the tracer does not time.
	traceID string
	eps     float64
	url     string
	body    []byte
	rows    []int // rows of an ingest batch
	ids     []int // tuple ids of an upsert batch; nil for appends
	req     any   // the request as the service takes it (digest replay)
	phase   int   // which open-loop phase of the run issued it
}

// clock is the time source of a load worker; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// SleepUntil sleeps with the runtime timer until 2ms before t, then with
// nanosleep for the rest: the runtime timer oversleeps by about a
// millisecond when the process is idle, nanosleep by tens of microseconds.
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only sends early
	}
}

// account returns an open-loop request's latency and lateness. Lateness
// is how long after its due time the request was sent. The latency runs
// from the due time when the worker was still busy with an earlier
// request at that time, so a stall counts against every request it
// delays; when the worker was idle at the due time it runs from the send,
// so the generator's own timer overshoot is reported as lateness only.
func account(due, prevDone, sent, done time.Time) (lat, late time.Duration) {
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	start := sent
	if prevDone.After(due) {
		start = due
	}
	return done.Sub(start), late
}

// runWorker issues ops in due order from start and records each one.
// exec performs the request and reports when it was sent and whether it
// succeeded; retries happen inside exec.
func runWorker(clk clock, start time.Time, ops []op, rec *recorder, exec func(o *op) (sent time.Time, ok bool)) {
	prevDone := start
	for i := range ops {
		o := &ops[i]
		due := start.Add(o.due)
		if clk.Now().Before(due) {
			clk.SleepUntil(due)
		}
		sent, ok := exec(o)
		done := clk.Now()
		lat, late := account(due, prevDone, sent, done)
		prevDone = done
		rec.attempted[o.class]++
		rec.late = append(rec.late, late)
		if !ok {
			rec.failed[o.class]++
			lat = failed
		}
		rec.lat[o.class] = append(rec.lat[o.class], lat)
	}
}

// sortOps orders a worker's ops by due time; ties keep generation order.
func sortOps(ops []op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
}
