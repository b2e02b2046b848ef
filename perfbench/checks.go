package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"

	"blowfish/internal/server"
	"blowfish/internal/service"
)

// checkTallies compares the service's state with the acknowledged work:
// every dataset holds its initial rows plus acked appends, and every
// session and stream has spent exactly the ε of its acked releases.
func (b *bench) checkTallies(svc server.Service, t *target, when string, withBudgets bool) {
	bad := 0
	detail := ""
	for d, id := range t.datasetIDs {
		ds, err := svc.GetDataset(id)
		if err != nil || ds.Rows != len(b.rows[d]) {
			bad++
			detail = fmt.Sprintf("dataset %s: %d rows, acked %d (%v)", id, ds.Rows, len(b.rows[d]), err)
		}
	}
	name := "rows " + when
	if bad > 0 {
		b.fail(name, "%d datasets differ; %s", bad, detail)
	} else {
		b.pass(name, "%d datasets match initial rows plus acked appends", len(t.datasetIDs))
	}
	if !withBudgets {
		return
	}
	bad = 0
	for s, id := range t.sessionIDs {
		resp, err := svc.GetSession(id)
		if err != nil || !closeTo(resp.Spent, b.sessSpent[s]) {
			bad++
			detail = fmt.Sprintf("session %s spent %g, acked %g (%v)", id, resp.Spent, b.sessSpent[s], err)
		}
	}
	for k, id := range t.streamIDs {
		resp, err := svc.GetStream(id)
		if err != nil || !closeTo(resp.Spent, b.streamSpent[k]) {
			bad++
			detail = fmt.Sprintf("stream %s spent %g, acked %g (%v)", id, resp.Spent, b.streamSpent[k], err)
		}
	}
	name = "spent ε " + when
	if bad > 0 {
		b.fail(name, "%d sessions or streams differ; %s", bad, detail)
	} else {
		b.pass(name, "%d sessions and %d streams spent exactly their acked ε", len(t.sessionIDs), len(t.streamIDs))
	}
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// checkAccuracy releases histograms of the first ingest dataset and
// compares them with the truth computed from the benchmark's own rows:
// Laplace noise of scale S(h,P)/ε has mean absolute value S(h,P)/ε.
func (b *bench) checkAccuracy(t *target) {
	d := b.w.ingestDatasets()[0]
	truth := make([]float64, b.w.domainSize())
	for _, v := range b.rows[d] {
		truth[v]++
	}
	body, err := json.Marshal(server.HistogramRequest{DatasetID: t.datasetIDs[d], Epsilon: releaseEps})
	if err != nil {
		b.fail("histogram accuracy", "%v", err)
		return
	}
	var sum float64
	var n int
	for i := 0; i < accuracyProbes; i++ {
		var resp server.HistogramResponse
		if err := b.setupClient.call("POST", t.base+"/v1/sessions/"+t.warmIDs[d]+"/releases/histogram", body, &resp); err != nil {
			b.fail("histogram accuracy", "%v", err)
			return
		}
		if len(resp.Counts) != len(truth) {
			b.fail("histogram accuracy", "%d counts, domain %d", len(resp.Counts), len(truth))
			return
		}
		for j, c := range resp.Counts {
			sum += math.Abs(c - truth[j])
			n++
		}
	}
	ratio := sum / float64(n) / (histSens / releaseEps)
	if ratio < 0.9 || ratio > 1.1 {
		b.fail("histogram accuracy", "mean |released-truth| / (S/ε) = %.4f, want 0.9..1.1", ratio)
		return
	}
	b.pass("histogram accuracy", "mean |released-truth| / (S/ε) = %.4f over %d cells", ratio, n)
}

// checkDigest replays every release and session read of the first
// open-loop phase, session by session, into an in-process service.Core
// over the same data and session seeds, through the same HTTP front code
// but without a socket, and compares the digests of the answers with the
// ones the load workers received.
func (b *bench) checkDigest(t *target, sched [][]op) {
	if !b.digest {
		return
	}
	var ops []*op
	for _, w := range sched {
		for i := range w {
			if w[i].phase == 0 && (isRelease(w[i].class) || w[i].class == clRead) {
				ops = append(ops, &w[i])
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	core := service.New(service.Config{Seed: int64(b.seed)})
	defer core.Close()
	got, err := b.replay(t, core, ops)
	if err != nil {
		b.fail("release digest", "replay: %v", err)
		return
	}
	bad := 0
	for s := range got {
		if got[s] != b.sessDigest[s] {
			bad++
		}
	}
	if bad > 0 {
		b.fail("release digest", "%d of %d sessions differ from the in-process replay", bad, len(got))
		return
	}
	b.pass("release digest", "%d releases and reads over %d sessions equal the in-process replay", len(ops), len(got))
}

// replay recreates the target's policy, release datasets and sessions in
// core, under the same ids, and serves ops through a front over it.
func (b *bench) replay(t *target, core *service.Core, ops []*op) ([]uint64, error) {
	var polReq server.CreatePolicyRequest
	if err := json.Unmarshal(b.policyBody, &polReq); err != nil {
		return nil, err
	}
	same := func(what, got, want string) error {
		if got != want {
			return fmt.Errorf("replay %s id %q, live %q", what, got, want)
		}
		return nil
	}
	pol, err := core.ApplyPolicy(t.policyID, polReq)
	if err != nil {
		return nil, err
	}
	for d := 0; d < b.w.releaseDatasets; d++ {
		var req server.CreateDatasetRequest
		if err := json.Unmarshal(b.datasetBodies[d], &req); err != nil {
			return nil, err
		}
		ds, err := core.ApplyDataset(t.datasetIDs[d], req)
		if err != nil {
			return nil, err
		}
		if err := same("dataset", ds.ID, t.datasetIDs[d]); err != nil {
			return nil, err
		}
	}
	for s, id := range t.sessionIDs {
		seed := b.sessionSeed(s)
		resp, err := core.ApplySession(id, server.CreateSessionRequest{PolicyID: pol.ID, Budget: sessionBudget, Seed: &seed})
		if err != nil {
			return nil, err
		}
		if err := same("session", resp.ID, id); err != nil {
			return nil, err
		}
	}
	front := server.NewWith(core)
	digest := make([]uint64, b.w.sessions)
	for _, o := range ops {
		method := "POST"
		var body io.Reader = bytes.NewReader(o.body)
		if o.class == clRead {
			method, body = "GET", nil
		}
		req := httptest.NewRequest(method, o.url, body)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		front.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, o.url, rec.Code, rec.Body.Bytes())
		}
		digest[o.ent] = mix64(digest[o.ent], maphash.Bytes(b.hashSeed, rec.Body.Bytes()))
	}
	return digest, nil
}
