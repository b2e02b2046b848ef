package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"blowfish"
	"blowfish/internal/codec"
	"blowfish/internal/server"
	"blowfish/internal/service"
	"blowfish/internal/shard"
)

// rung is one layer of the ladder: the five ladder ops through that
// layer's public call, and how to tear it down.
type rung struct {
	ops   [5]func(rep int) error // in ladderOps order
	close func()
}

// ladderInput is the single-threaded op list every rung runs: the same
// queries and the same ingest batches, rep by rep.
type ladderInput struct {
	rows    []int
	queries [][]server.RangeQuery
	batches [][]blowfish.StreamEvent
}

// ladder runs the same op list through each layer, one call at a time,
// and reports each op's median time per rung. Adjacent rungs differ by one
// layer, so their difference is that layer's uncontended self cost.
func (b *bench) ladder() (map[string]float64, error) {
	reps := b.w.ladderReps
	rng := &splitmix{s: b.seed*97 + 3}
	in := ladderInput{rows: b.initRows[0]}
	for i := 0; i < reps+ladderWarmup; i++ {
		in.queries = append(in.queries, randomQueries(rng, b.w.domainSize(), rangeQueries))
		batch := make([]blowfish.StreamEvent, b.w.batch)
		for j := range batch {
			batch[j] = blowfish.StreamEvent{Op: "append", Row: []int{in.rows[rng.intn(len(in.rows))]}}
		}
		in.batches = append(in.batches, batch)
	}
	out := map[string]float64{}
	for _, name := range ladderRungs {
		r, err := b.buildRung(name, &in)
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", name, err)
		}
		for i, fn := range r.ops {
			var times []float64
			for rep := 0; rep < reps+ladderWarmup; rep++ {
				start := time.Now()
				if err := fn(rep); err != nil {
					r.close()
					return nil, fmt.Errorf("rung %s op %s: %w", name, ladderOps[i], err)
				}
				if rep >= ladderWarmup {
					times = append(times, us(time.Since(start)))
				}
			}
			out["ladder."+name+"."+ladderOps[i]+"_us"] = median(times)
		}
		r.close()
	}
	ns, err := decodeCost(in.batches[0], reps)
	if err != nil {
		return nil, err
	}
	out["ladder.codec.decode_ns_per_event"] = ns
	return out, nil
}

const ladderWarmup = 3

func (b *bench) buildRung(name string, in *ladderInput) (*rung, error) {
	switch name {
	case "engine", "table":
		return b.libraryRung(name == "table", in)
	case "core":
		return b.serviceRung(service.New(service.Config{Seed: int64(b.seed)}), in)
	case "router1", "router4":
		n := 1
		if name == "router4" {
			n = 4
		}
		r, err := shard.New(service.Config{Seed: int64(b.seed)}, n)
		if err != nil {
			return nil, err
		}
		return b.serviceRung(r, in)
	default:
		return b.httpRung(in)
	}
}

// libraryRung calls the library directly. The engine rung releases from
// the session and applies ingest batches synchronously to the table; the
// table rung takes the table's read lock around releases the way the
// service does, ingests through the queue and writer of an Ingestor, and
// closes epochs with Stream.CloseEpoch.
func (b *bench) libraryRung(table bool, in *ladderInput) (*rung, error) {
	dom, err := blowfish.LineDomain("value", b.w.domainSize())
	if err != nil {
		return nil, err
	}
	g, err := blowfish.DistanceThreshold(dom, theta)
	if err != nil {
		return nil, err
	}
	cp, err := blowfish.Compile(blowfish.NewPolicy(g))
	if err != nil {
		return nil, err
	}
	ds := blowfish.NewDataset(dom)
	for _, v := range in.rows {
		if err := ds.Add(blowfish.Point(v)); err != nil {
			return nil, err
		}
	}
	sess, err := cp.NewSessionShards(sessionBudget*sessionBudget, blowfish.NewSource(int64(b.seed)), 1)
	if err != nil {
		return nil, err
	}
	tbl, err := blowfish.NewStreamTable(ds)
	if err != nil {
		return nil, err
	}
	queries := make([]blowfish.StreamRangeQuery, len(b.streamQueries))
	for i, q := range b.streamQueries {
		queries[i] = blowfish.StreamRangeQuery{Lo: q.Lo, Hi: q.Hi}
	}
	st, err := sess.NewStream(tbl, blowfish.StreamConfig{Epsilon: epochEps, Kinds: []blowfish.StreamReleaseKind{blowfish.StreamRange},
		Fanout: fanout, RangeQueries: queries})
	if err != nil {
		return nil, err
	}
	lock, unlock := func() {}, func() {}
	if table {
		lock, unlock = tbl.RLock, tbl.RUnlock
	}
	rangeRelease := func(qs []server.RangeQuery) error {
		lock()
		rr, err := sess.NewRangeReleaser(ds, fanout, releaseEps)
		unlock()
		if err != nil {
			return err
		}
		for _, q := range qs {
			if _, err := rr.Range(q.Lo, q.Hi); err != nil {
				return err
			}
		}
		return nil
	}
	r := &rung{close: func() {}}
	r.ops[0] = func(int) error {
		lock()
		defer unlock()
		_, err := sess.ReleaseHistogram(ds, releaseEps)
		return err
	}
	r.ops[1] = func(rep int) error { return rangeRelease(in.queries[rep]) }
	r.ops[2] = func(int) error {
		lock()
		defer unlock()
		_, err := sess.ReleaseCumulativeHistogram(ds, releaseEps)
		return err
	}
	if !table {
		r.ops[3] = func(rep int) error {
			muts, err := blowfish.EncodeStreamEvents(dom, in.batches[rep])
			if err != nil {
				return err
			}
			_, err = tbl.ApplyBatch(muts)
			return err
		}
		r.ops[4] = func(int) error { return rangeRelease(b.streamQueries) }
		return r, nil
	}
	ing, err := blowfish.NewStreamIngestor(tbl, blowfish.StreamIngestConfig{})
	if err != nil {
		return nil, err
	}
	r.close = ing.Close
	r.ops[3] = func(rep int) error {
		_, last, err := ing.Submit(in.batches[rep])
		if err != nil {
			return err
		}
		return ing.WaitProcessed(context.Background(), last)
	}
	r.ops[4] = func(int) error {
		_, err := st.CloseEpoch()
		return err
	}
	return r, nil
}

// serviceRung calls a service (one core or the router) directly.
func (b *bench) serviceRung(svc server.Service, in *ladderInput) (*rung, error) {
	ids, err := b.ladderResources(svc, in)
	if err != nil {
		svc.Close()
		return nil, err
	}
	ctx := context.Background()
	r := &rung{close: svc.Close}
	r.ops[0] = func(int) error {
		_, err := svc.Histogram(ids.session, server.HistogramRequest{DatasetID: ids.dataset, Epsilon: releaseEps})
		return err
	}
	r.ops[1] = func(rep int) error {
		_, err := svc.Range(ids.session, server.RangeRequest{DatasetID: ids.dataset, Epsilon: releaseEps, Fanout: fanout, Queries: in.queries[rep]})
		return err
	}
	r.ops[2] = func(int) error {
		_, err := svc.Cumulative(ids.session, server.CumulativeRequest{DatasetID: ids.dataset, Epsilon: releaseEps})
		return err
	}
	r.ops[3] = func(rep int) error {
		_, err := svc.IngestEvents(ctx, ids.dataset, in.batches[rep], true)
		return err
	}
	r.ops[4] = func(int) error {
		_, err := svc.CloseEpoch(ctx, ids.stream)
		return err
	}
	return r, nil
}

type ladderIDs struct{ dataset, session, stream string }

func (b *bench) ladderResources(svc server.Service, in *ladderInput) (ladderIDs, error) {
	var polReq server.CreatePolicyRequest
	if err := json.Unmarshal(b.policyBody, &polReq); err != nil {
		return ladderIDs{}, err
	}
	pol, err := svc.CreatePolicy(polReq)
	if err != nil {
		return ladderIDs{}, err
	}
	rows := make([][]int, len(in.rows))
	for i, v := range in.rows {
		rows[i] = []int{v}
	}
	ds, err := svc.CreateDataset(server.CreateDatasetRequest{PolicyID: pol.ID, Rows: rows})
	if err != nil {
		return ladderIDs{}, err
	}
	seed := int64(b.seed)
	sess, err := svc.CreateSession(server.CreateSessionRequest{PolicyID: pol.ID, Budget: sessionBudget * sessionBudget, Seed: &seed, DatasetID: ds.ID})
	if err != nil {
		return ladderIDs{}, err
	}
	st, err := svc.CreateStream(server.CreateStreamRequest{PolicyID: pol.ID, DatasetID: ds.ID, Budget: sessionBudget * sessionBudget, Seed: &seed,
		Epoch: server.EpochSpec{Epsilon: epochEps}, Kinds: []string{"range"}, Fanout: fanout, RangeQueries: b.streamQueries})
	if err != nil {
		return ladderIDs{}, err
	}
	return ladderIDs{dataset: ds.ID, session: sess.ID, stream: st.ID}, nil
}

// httpRung calls a single-core HTTP front over loopback: JSON releases,
// binary ingest frames acknowledged on apply, and epoch closes.
func (b *bench) httpRung(in *ladderInput) (*rung, error) {
	front := server.New(service.Config{Seed: int64(b.seed)})
	ids, err := b.ladderResources(front.Service(), in)
	if err != nil {
		front.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		front.Close()
		return nil, err
	}
	srv := &http.Server{Handler: front, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	base := "http://" + ln.Addr().String()
	c := &apiClient{hc: httpClient()}
	post := func(url, ctype string, body []byte) error { return c.do("POST", url, ctype, body, nil) }
	rel := base + "/v1/sessions/" + ids.session + "/releases/"
	simple, err := json.Marshal(server.HistogramRequest{DatasetID: ids.dataset, Epsilon: releaseEps})
	if err != nil {
		return nil, err
	}
	r := &rung{close: func() {
		c.hc.CloseIdleConnections()
		_ = srv.Close()
		<-served
		front.Close()
	}}
	r.ops[0] = func(int) error { return post(rel+"histogram", "application/json", simple) }
	r.ops[1] = func(rep int) error {
		body, err := json.Marshal(server.RangeRequest{DatasetID: ids.dataset, Epsilon: releaseEps, Fanout: fanout, Queries: in.queries[rep]})
		if err != nil {
			return err
		}
		return post(rel+"range", "application/json", body)
	}
	r.ops[2] = func(int) error { return post(rel+"cumulative", "application/json", simple) }
	r.ops[3] = func(rep int) error {
		frame, err := codec.AppendFrame(nil, in.batches[rep], 1)
		if err != nil {
			return err
		}
		return post(base+"/v1/datasets/"+ids.dataset+"/events?wait=1", codec.ContentType, frame)
	}
	r.ops[4] = func(int) error { return post(base+"/v1/streams/"+ids.stream+"/epochs", "application/json", nil) }
	return r, nil
}

// decodeCost is the median time to decode one binary ingest frame, per
// event.
func decodeCost(batch []blowfish.StreamEvent, reps int) (float64, error) {
	frame, err := codec.AppendFrame(nil, batch, 1)
	if err != nil {
		return 0, err
	}
	dec := codec.GetDecoder()
	defer codec.PutDecoder(dec)
	var times []float64
	for i := 0; i < 4*reps; i++ {
		start := time.Now()
		evs, err := dec.DecodeAll(bytes.NewReader(frame), 1, len(batch))
		elapsed := time.Since(start)
		if err != nil {
			return 0, err
		}
		if len(evs) != len(batch) {
			return 0, fmt.Errorf("decoded %d of %d events", len(evs), len(batch))
		}
		times = append(times, float64(elapsed.Nanoseconds())/float64(len(batch)))
	}
	return median(times), nil
}
