package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blowfish/internal/server"
	"blowfish/internal/service"
)

// The router must stay substitutable for a single core behind the HTTP
// front.
var _ server.Service = (*Router)(nil)

func i64(v int64) *int64 { return &v }

var testPolicy = service.CreatePolicyRequest{
	Domain: []service.AttrSpec{{Name: "v", Size: 16}},
	Graph:  service.GraphSpec{Kind: "line"},
}

func newTestRouter(t *testing.T, n int, dir string) *Router {
	t.Helper()
	cfg := service.Config{Seed: 1}
	if dir != "" {
		cfg.Durability = service.DurabilityConfig{Dir: dir, Fsync: "always"}
	}
	r, err := Open(cfg, n)
	if err != nil {
		t.Fatalf("Open(%d shards): %v", n, err)
	}
	return r
}

// TestRouterPlacement pins the placement contract: datasets land on
// ShardFor(id, n), sessions and streams land on their dataset's shard,
// policies land everywhere.
func TestRouterPlacement(t *testing.T) {
	const n = 4
	r := newTestRouter(t, n, "")
	defer r.Close()

	pol, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if !r.Core(k).HasPolicy(pol.ID) {
			t.Fatalf("policy %s missing on shard %d: broadcast incomplete", pol.ID, k)
		}
	}

	for i := 0; i < 16; i++ {
		ds, err := r.CreateDataset(service.CreateDatasetRequest{
			PolicyID: pol.ID, Rows: [][]int{{i % 16}},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := ShardFor(ds.ID, n)
		if got := r.ShardOf(ds.ID); got != want {
			t.Fatalf("dataset %s routed to shard %d, want ShardFor = %d", ds.ID, got, want)
		}
		if !r.Core(want).HasDataset(ds.ID) {
			t.Fatalf("dataset %s not present on its shard %d", ds.ID, want)
		}
		for k := 0; k < n; k++ {
			if k != want && r.Core(k).HasDataset(ds.ID) {
				t.Fatalf("dataset %s duplicated on shard %d", ds.ID, k)
			}
		}

		// The session hint and the stream's dataset binding must colocate.
		sess, err := r.CreateSession(service.CreateSessionRequest{
			PolicyID: pol.ID, Budget: 10, DatasetID: ds.ID,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.ShardOf(sess.ID); got != want {
			t.Fatalf("session %s (hint %s) on shard %d, want dataset's shard %d", sess.ID, ds.ID, got, want)
		}
		st, err := r.CreateStream(service.CreateStreamRequest{
			PolicyID: pol.ID, DatasetID: ds.ID, Budget: 10,
			Epoch: service.EpochSpec{Epsilon: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.ShardOf(st.ID); got != want {
			t.Fatalf("stream %s (dataset %s) on shard %d, want %d", st.ID, ds.ID, got, want)
		}

		// A colocated release must work end to end.
		if _, err := r.Histogram(sess.ID, service.HistogramRequest{DatasetID: ds.ID, Epsilon: 0.1}); err != nil {
			t.Fatalf("colocated histogram on %s/%s: %v", sess.ID, ds.ID, err)
		}
	}

	// An unhinted session still lands somewhere deterministic.
	sess, err := r.CreateSession(service.CreateSessionRequest{PolicyID: pol.ID, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.ShardOf(sess.ID), ShardFor(sess.ID, n); got != want {
		t.Fatalf("unhinted session %s on shard %d, want ShardFor = %d", sess.ID, got, want)
	}

	if got, want := r.SessionCount(), 17; got != want {
		t.Fatalf("SessionCount = %d, want %d", got, want)
	}
	if got, want := r.StreamCount(), 16; got != want {
		t.Fatalf("StreamCount = %d, want %d", got, want)
	}
}

// TestRouterAssignmentStableAcrossRestart is the durability property the
// on-disk layout depends on: reopening the same directory with the same
// shard count routes every id to the shard that holds its data, and the
// recovered state answers reads.
func TestRouterAssignmentStableAcrossRestart(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	r := newTestRouter(t, n, dir)

	pol, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	type placed struct{ ds, sess, st string }
	var resources []placed
	where := make(map[string]int)
	for i := 0; i < 12; i++ {
		ds, err := r.CreateDataset(service.CreateDatasetRequest{
			PolicyID: pol.ID, Rows: [][]int{{i % 16}, {(i + 1) % 16}},
		})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := r.CreateSession(service.CreateSessionRequest{
			PolicyID: pol.ID, Budget: 10, DatasetID: ds.ID, Seed: i64(int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.CreateStream(service.CreateStreamRequest{
			PolicyID: pol.ID, DatasetID: ds.ID, Budget: 10,
			Epoch: service.EpochSpec{Epsilon: 0.5}, Seed: i64(int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Histogram(sess.ID, service.HistogramRequest{DatasetID: ds.ID, Epsilon: 0.5}); err != nil {
			t.Fatal(err)
		}
		resources = append(resources, placed{ds.ID, sess.ID, st.ID})
		for _, id := range []string{ds.ID, sess.ID, st.ID} {
			where[id] = r.ShardOf(id)
		}
	}
	r.Close()

	rec := newTestRouter(t, n, dir)
	defer rec.Close()
	for id, want := range where {
		if got := rec.ShardOf(id); got != want {
			t.Fatalf("id %s on shard %d after restart, was %d: assignment not stable", id, got, want)
		}
	}
	for _, p := range resources {
		ds, err := rec.GetDataset(p.ds)
		if err != nil {
			t.Fatalf("recovered GetDataset(%s): %v", p.ds, err)
		}
		if ds.Rows != 2 {
			t.Fatalf("dataset %s recovered %d rows, want 2", p.ds, ds.Rows)
		}
		sess, err := rec.GetSession(p.sess)
		if err != nil {
			t.Fatalf("recovered GetSession(%s): %v", p.sess, err)
		}
		if sess.Spent <= 0 {
			t.Fatalf("session %s recovered spent = %v, want the pre-restart charge", p.sess, sess.Spent)
		}
		if _, err := rec.GetStream(p.st); err != nil {
			t.Fatalf("recovered GetStream(%s): %v", p.st, err)
		}
	}

	// New creates after recovery keep minting fresh ids: no collision
	// with any pre-restart resource.
	ds, err := rec.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID, Rows: [][]int{{3}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := where[ds.ID]; ok {
		t.Fatalf("post-recovery dataset reused id %s", ds.ID)
	}
}

// TestRouterScatterGatherLists pins the merge order: a scatter-gathered
// list is sorted the way a single core sorts ("ds-2" before "ds-10") and
// contains every resource exactly once.
func TestRouterScatterGatherLists(t *testing.T) {
	r := newTestRouter(t, 4, "")
	defer r.Close()
	pol, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	const total = 15
	for i := 0; i < total; i++ {
		if _, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID}); err != nil {
			t.Fatal(err)
		}
	}
	got := r.ListDatasets().Datasets
	if len(got) != total {
		t.Fatalf("ListDatasets returned %d, want %d", len(got), total)
	}
	for i, d := range got {
		want := fmt.Sprintf("ds-%d", i+1)
		if d.ID != want {
			t.Fatalf("ListDatasets[%d] = %s, want %s (numeric id order)", i, d.ID, want)
		}
	}
}

// TestRouterPolicyBroadcastAtomicity: a delete any shard refuses leaves
// the policy on every shard, so the shards never disagree about the
// policy set.
func TestRouterPolicyBroadcastAtomicity(t *testing.T) {
	const n = 4
	r := newTestRouter(t, n, "")
	defer r.Close()
	pol, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the policy on one shard with a live session.
	ds, err := r.CreateDataset(service.CreateDatasetRequest{PolicyID: pol.ID})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateSession(service.CreateSessionRequest{
		PolicyID: pol.ID, Budget: 1, DatasetID: ds.ID,
	}); err != nil {
		t.Fatal(err)
	}
	err = r.DeletePolicy(pol.ID)
	var se *service.Error
	if !errors.As(err, &se) || se.Code != service.CodePolicyInUse {
		t.Fatalf("DeletePolicy with a live session = %v, want %s", err, service.CodePolicyInUse)
	}
	for k := 0; k < n; k++ {
		if !r.Core(k).HasPolicy(pol.ID) {
			t.Fatalf("refused delete removed policy from shard %d: broadcast not atomic", k)
		}
	}

	// A second policy with nothing referencing it deletes everywhere.
	pol2, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.DeletePolicy(pol2.ID); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if r.Core(k).HasPolicy(pol2.ID) {
			t.Fatalf("deleted policy lingers on shard %d", k)
		}
	}
}

// TestRouterUnknownIDErrors: a route miss must surface the same
// structured error a single core produces, not a router-invented one.
func TestRouterUnknownIDErrors(t *testing.T) {
	r := newTestRouter(t, 4, "")
	defer r.Close()
	pol, err := r.CreatePolicy(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		err  error
		code string
	}{
		{func() error { _, err := r.GetDataset("ds-999"); return err }(), service.CodeUnknownDataset},
		{func() error { _, err := r.GetSession("sess-999"); return err }(), service.CodeUnknownSession},
		{func() error { _, err := r.GetStream("stream-999"); return err }(), service.CodeUnknownStream},
		{func() error { _, err := r.GetPolicy("pol-999"); return err }(), service.CodeUnknownPolicy},
		{func() error {
			_, err := r.CreateStream(service.CreateStreamRequest{PolicyID: pol.ID, DatasetID: "ds-999", Budget: 1})
			return err
		}(), service.CodeUnknownDataset},
	} {
		var se *service.Error
		if !errors.As(tc.err, &se) || se.Code != tc.code {
			t.Fatalf("route miss = %v, want code %s", tc.err, tc.code)
		}
	}
}

// TestRouterDeletes drives every DELETE through the HTTP front, over a
// 4-shard router and over a single core, and requires the same statuses
// and unknown-* codes from both. Deletes hold the router's write lock
// across the core call; each request runs under a timer so a lock
// re-acquired under that hold fails the test instead of hanging it.
func TestRouterDeletes(t *testing.T) {
	r := newTestRouter(t, 4, "")
	defer r.Close()
	single := server.New(service.Config{Seed: 1})
	defer single.Close()
	for _, front := range []struct {
		name string
		h    http.Handler
	}{{"router", server.NewWith(r)}, {"single", single}} {
		t.Run(front.name, func(t *testing.T) { checkDeletes(t, front.h) })
	}
}

func checkDeletes(t *testing.T, h http.Handler) {
	pol := createID(t, h, "/v1/policies", `{"domain":[{"name":"v","size":16}],"graph":{"kind":"line"}}`)
	ds := createID(t, h, "/v1/datasets", `{"policy_id":"`+pol+`","rows":[[1],[2]]}`)
	sess := createID(t, h, "/v1/sessions", `{"policy_id":"`+pol+`","dataset_id":"`+ds+`","budget":1}`)
	st := createID(t, h, "/v1/streams", `{"policy_id":"`+pol+`","dataset_id":"`+ds+`","budget":1,"epoch":{"epsilon":0.5}}`)
	for _, tc := range []struct{ path, unknown, code string }{
		{"/v1/streams/" + st, "/v1/streams/stream-404", service.CodeUnknownStream},
		{"/v1/sessions/" + sess, "/v1/sessions/sess-404", service.CodeUnknownSession},
		{"/v1/datasets/" + ds, "/v1/datasets/ds-404", service.CodeUnknownDataset},
		{"/v1/policies/" + pol, "/v1/policies/pol-404", service.CodeUnknownPolicy},
	} {
		if status, body := serve(t, h, http.MethodDelete, tc.path, ""); status != http.StatusNoContent {
			t.Fatalf("DELETE %s = %d %s, want 204", tc.path, status, body)
		}
		wantCode(t, h, http.MethodGet, tc.path, tc.code)
		wantCode(t, h, http.MethodDelete, tc.path, tc.code)
		wantCode(t, h, http.MethodDelete, tc.unknown, tc.code)
	}
}

// serve runs one request against h and fails the test if no response
// arrives within 5 s.
func serve(t *testing.T, h http.Handler, method, path, body string) (int, string) {
	t.Helper()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		done <- rec
	}()
	select {
	case rec := <-done:
		return rec.Code, rec.Body.String()
	case <-time.After(5 * time.Second):
		t.Fatalf("%s %s: no response within 5s (deadlock?)", method, path)
		return 0, ""
	}
}

func createID(t *testing.T, h http.Handler, path, body string) string {
	t.Helper()
	status, resp := serve(t, h, http.MethodPost, path, body)
	var out struct{ ID string }
	if status != http.StatusCreated || json.Unmarshal([]byte(resp), &out) != nil {
		t.Fatalf("POST %s = %d %s, want 201 with an id", path, status, resp)
	}
	return out.ID
}

func wantCode(t *testing.T, h http.Handler, method, path, code string) {
	t.Helper()
	status, resp := serve(t, h, method, path, "")
	var out struct{ Error struct{ Code string } }
	if status != http.StatusNotFound || json.Unmarshal([]byte(resp), &out) != nil || out.Error.Code != code {
		t.Fatalf("%s %s = %d %s, want 404 %s", method, path, status, resp, code)
	}
}

// BenchmarkRouterOverhead measures the routing tax: the same seeded
// histogram release drawn through a 1-shard router versus directly
// against the core it routes to. The delta is the map lookup and the
// interface hop — the perf gate keeps it honest.
func BenchmarkRouterOverhead(b *testing.B) {
	setup := func(b *testing.B) (svc server.Service, sessID, dsID string) {
		b.Helper()
		r, err := Open(service.Config{Seed: 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(r.Close)
		pol, err := r.CreatePolicy(testPolicy)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := r.CreateDataset(service.CreateDatasetRequest{
			PolicyID: pol.ID, Rows: [][]int{{1}, {2}, {3}, {5}, {8}, {13}},
		})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := r.CreateSession(service.CreateSessionRequest{
			PolicyID: pol.ID, Budget: 1e12, DatasetID: ds.ID, Seed: i64(7),
		})
		if err != nil {
			b.Fatal(err)
		}
		return r, sess.ID, ds.ID
	}

	b.Run("direct", func(b *testing.B) {
		r, sessID, dsID := setup(b)
		core := r.(*Router).Core(0)
		req := service.HistogramRequest{DatasetID: dsID, Epsilon: 1e-6}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Histogram(sessID, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("router", func(b *testing.B) {
		r, sessID, dsID := setup(b)
		req := service.HistogramRequest{DatasetID: dsID, Epsilon: 1e-6}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Histogram(sessID, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
