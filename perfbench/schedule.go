package main

import (
	"encoding/json"
	"math"
	"strconv"
	"time"

	"blowfish/internal/codec"
	"blowfish/internal/server"
)

// schedule builds the open-loop phase: every class of op at its constant
// rate, the k-th op at a seeded uniform point of its 1/rate slot, and
// assigned to a worker by the entity it touches. A session, a dataset's
// producer and a stream each belong to one worker, so none has two
// requests in flight. The jitter keeps classes of equal rate from
// colliding at the same offset all run long.
func (b *bench) schedule(t *target, dur time.Duration, phase int) ([][]op, error) {
	w := b.w
	rng := &splitmix{s: b.seed*1009 + uint64(phase)}
	per := make([][]op, b.workers)
	add := func(worker int, o op) { per[worker%b.workers] = append(per[worker%b.workers], o) }
	each := func(rate float64, fn func(k int, due time.Duration) error) error {
		n := int(rate * dur.Seconds())
		for k := 0; k < n; k++ {
			if err := fn(k, time.Duration((float64(k)+rng.float())/rate*float64(time.Second))); err != nil {
				return err
			}
		}
		return nil
	}
	classes := w.deck(rng, int(w.releaseRate*dur.Seconds()))
	err := each(w.releaseRate, func(k int, due time.Duration) error {
		s := rng.intn(w.sessions)
		o, err := b.releaseOp(t, rng, s, classes[k])
		o.due, o.phase = due, phase
		add(s, o)
		return err
	})
	if err != nil {
		return nil, err
	}
	ingest := w.ingestDatasets()
	err = each(w.ingestRate, func(k int, due time.Duration) error {
		d := ingest[k%len(ingest)]
		o, err := b.appendOp(t, rng, d)
		o.due, o.phase = due, phase
		add(d, o)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = each(w.epochRate, func(k int, due time.Duration) error {
		st := k % w.streams
		add(st, op{due: due, phase: phase, class: clEpoch, ent: st, traceID: t.streamIDs[st],
			url: t.base + "/v1/streams/" + t.streamIDs[st] + "/epochs"})
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = each(w.pollRate, func(k int, due time.Duration) error {
		st := k % w.streams
		add(st, op{due: due, phase: phase, class: clPoll, ent: st,
			url: t.base + "/v1/streams/" + t.streamIDs[st] + "/releases?wait_ms=0&since="})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, ops := range per {
		sortOps(ops)
	}
	return per, nil
}

// deck returns n release-mix classes in the mix's exact proportions,
// shuffled, so every seed offers the same mix.
func (w *workload) deck(rng *splitmix, n int) []int {
	out := make([]int, 0, n)
	for c := clRange; c <= clRead; c++ {
		for k := int(math.Round(w.mix[c] * float64(n))); k > 0 && len(out) < n; k-- {
			out = append(out, c)
		}
	}
	for len(out) < n {
		out = append(out, clRange)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// releaseOp builds one request of the given release-mix class for
// session s.
func (b *bench) releaseOp(t *target, rng *splitmix, s, class int) (op, error) {
	sid := t.sessionIDs[s]
	ds := t.datasetIDs[b.sessionDataset(s)]
	o := op{class: class, ent: s, eps: releaseEps, traceID: sid}
	var req any
	switch class {
	case clRead:
		o.url = t.base + "/v1/sessions/" + sid
		o.eps, o.traceID = 0, ""
		return o, nil
	case clHistogram:
		o.url = t.base + "/v1/sessions/" + sid + "/releases/histogram"
		req = server.HistogramRequest{DatasetID: ds, Epsilon: releaseEps}
	case clCumulative:
		o.url = t.base + "/v1/sessions/" + sid + "/releases/cumulative"
		req = server.CumulativeRequest{DatasetID: ds, Epsilon: releaseEps}
	default:
		o.url = t.base + "/v1/sessions/" + sid + "/releases/range"
		req = server.RangeRequest{DatasetID: ds, Epsilon: releaseEps, Fanout: fanout,
			Queries: randomQueries(rng, b.w.domainSize(), rangeQueries)}
	}
	body, err := json.Marshal(req)
	o.body = body
	return o, err
}

// appendOp draws one ingest batch of appends to dataset d; appended rows
// are resampled from the dataset's initial rows.
func (b *bench) appendOp(t *target, rng *splitmix, d int) (op, error) {
	init := b.initRows[d]
	rows := make([]int, b.w.batch)
	events := make([]codec.Event, b.w.batch)
	cells := make([]int, b.w.batch)
	for i := range rows {
		rows[i] = init[rng.intn(len(init))]
		cells[i] = rows[i]
		events[i] = codec.Event{Op: "append", Row: cells[i : i+1 : i+1]}
	}
	o := op{class: clIngest, ent: d, rows: rows, traceID: t.datasetIDs[d]}
	body, url, err := b.eventsBody(t, d, events, true)
	o.body, o.url = body, url
	return o, err
}

// eventsBody encodes a batch in the workload's ingest format.
func (b *bench) eventsBody(t *target, d int, events []codec.Event, wait bool) (body []byte, url string, err error) {
	url = t.base + "/v1/datasets/" + t.datasetIDs[d] + "/events"
	if b.w.binary {
		body, err = codec.AppendFrame(nil, events, 1)
		if wait {
			url += "?wait=1"
		}
		return body, url, err
	}
	wire := server.EventsRequest{Events: make([]server.EventWire, len(events)), Wait: wait}
	for i, ev := range events {
		wire.Events[i] = server.EventWire{Op: ev.Op, ID: ev.ID, Row: ev.Row}
	}
	body, err = json.Marshal(wire)
	return body, url, err
}

// randomQueries draws n inclusive ranges over a domain of size.
func randomQueries(rng *splitmix, size, n int) []server.RangeQuery {
	qs := make([]server.RangeQuery, n)
	for i := range qs {
		lo, hi := rng.intn(size), rng.intn(size)
		if lo > hi {
			lo, hi = hi, lo
		}
		qs[i] = server.RangeQuery{Lo: lo, Hi: hi}
	}
	return qs
}

func pollURL(prefix string, since uint64) string {
	return prefix + strconv.FormatUint(since, 10)
}
