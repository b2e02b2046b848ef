package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"blowfish/internal/server"
	"blowfish/internal/service"
	"blowfish/internal/shard"
)

// target is one running server under test: a service (one core or the
// shard router), optionally wrapped by the tracer, behind the HTTP front
// on a loopback listener.
type target struct {
	inner  server.Service // the core or router itself
	router *shard.Router
	tracer *tracer
	front  *server.Server
	srv    *http.Server
	served chan struct{}
	base   string
	dir    string

	policyID   string
	datasetIDs []string
	sessionIDs []string
	streamIDs  []string
	warmIDs    []string // per dataset: a session for warm-up and the accuracy probe
}

// serviceConfig is the core configuration every workload runs with.
func (b *bench) serviceConfig(dir string) service.Config {
	cfg := service.Config{Seed: int64(b.seed)}
	if dir != "" {
		cfg.Durability = service.DurabilityConfig{Dir: dir, Fsync: "interval", SnapshotEvery: snapshotEvery}
	}
	return cfg
}

// openService opens the workload's service over dir ("" for in-memory).
func (b *bench) openService(dir string) (server.Service, *shard.Router, error) {
	cfg := b.serviceConfig(dir)
	if b.w.shards > 0 {
		r, err := shard.Open(cfg, b.w.shards)
		if err != nil {
			return nil, nil, err
		}
		return r, r, nil
	}
	core, err := service.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	return core, nil, nil
}

// start fronts svc with the HTTP server on a loopback port.
func startFront(t *target, svc server.Service) error {
	t.front = server.NewWith(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	t.base = "http://" + ln.Addr().String()
	t.srv = &http.Server{Handler: t.front, ReadHeaderTimeout: 10 * time.Second}
	t.served = make(chan struct{})
	go func() {
		defer close(t.served)
		_ = t.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return nil
}

// stopFront stops the HTTP server and waits for it to return.
func (t *target) stopFront() {
	if t.srv != nil {
		_ = t.srv.Close()
		<-t.served
		t.srv = nil
	}
}

// close stops the front and the service, and removes durable state.
func (t *target) close() {
	t.stopFront()
	if t.inner != nil {
		t.inner.Close()
	}
	if t.dir != "" {
		_ = os.RemoveAll(t.dir)
	}
}

// setup builds a ready target: service, front, policy, datasets, sessions,
// streams, and one warm-up release of each kind per release dataset so
// lazy indexes are built before timing. Its duration is setup_s.
func (b *bench) setup(traced bool, iteration int) (*target, time.Duration, error) {
	t := &target{}
	if b.w.durable {
		t.dir = fmt.Sprintf("%s/setup-%d", b.dataDir, iteration)
		if err := os.RemoveAll(t.dir); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	inner, router, err := b.openService(t.dir)
	if err != nil {
		return nil, 0, err
	}
	t.inner, t.router = inner, router
	svc := inner
	if traced {
		t.tracer = &tracer{Service: inner}
		svc = t.tracer
	}
	if err := startFront(t, svc); err != nil {
		t.close()
		return nil, 0, err
	}
	if err := b.populate(t); err != nil {
		t.close()
		return nil, 0, err
	}
	elapsed := time.Since(start)
	if traced {
		t.tracer.register(t)
	}
	return t, elapsed, nil
}

// populate creates the workload's resources through the HTTP API.
func (b *bench) populate(t *target) error {
	c := b.setupClient
	var pol server.PolicyResponse
	if err := c.call("POST", t.base+"/v1/policies", b.policyBody, &pol); err != nil {
		return fmt.Errorf("create policy: %w", err)
	}
	if pol.HistogramSensitivity != histSens {
		return fmt.Errorf("policy reports S(h,P)=%g, want %d", pol.HistogramSensitivity, histSens)
	}
	t.policyID = pol.ID
	t.datasetIDs = make([]string, len(b.datasetBodies))
	for d, body := range b.datasetBodies {
		var ds server.DatasetResponse
		if err := c.call("POST", t.base+"/v1/datasets", body, &ds); err != nil {
			return fmt.Errorf("create dataset %d: %w", d, err)
		}
		t.datasetIDs[d] = ds.ID
	}
	t.sessionIDs = make([]string, b.w.sessions)
	for s := range t.sessionIDs {
		id, err := b.createSession(t, b.sessionSeed(s), t.datasetIDs[b.sessionDataset(s)])
		if err != nil {
			return err
		}
		t.sessionIDs[s] = id
	}
	ingest := b.w.ingestDatasets()
	t.streamIDs = make([]string, b.w.streams)
	for k := range t.streamIDs {
		seed := b.streamSeed(k)
		req := server.CreateStreamRequest{
			PolicyID: t.policyID, DatasetID: t.datasetIDs[ingest[k%len(ingest)]],
			Budget: sessionBudget, Seed: &seed,
			Epoch:        server.EpochSpec{Epsilon: epochEps},
			Kinds:        []string{"range"},
			Fanout:       fanout,
			RangeQueries: b.streamQueries,
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		var st server.StreamResponse
		if err := c.call("POST", t.base+"/v1/streams", body, &st); err != nil {
			return fmt.Errorf("create stream %d: %w", k, err)
		}
		t.streamIDs[k] = st.ID
	}
	for d, ds := range t.datasetIDs {
		warm, err := b.createSession(t, int64(b.seed)^int64(0x5eed+d), ds)
		if err != nil {
			return err
		}
		t.warmIDs = append(t.warmIDs, warm)
		for _, kind := range []string{"histogram", "cumulative", "range"} {
			req := map[string]any{"dataset_id": ds, "epsilon": releaseEps}
			if kind == "range" {
				req["queries"] = b.streamQueries
			}
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			if err := c.call("POST", t.base+"/v1/sessions/"+warm+"/releases/"+kind, body, nil); err != nil {
				return fmt.Errorf("warm-up %s: %w", kind, err)
			}
		}
	}
	return nil
}

func (b *bench) createSession(t *target, seed int64, datasetID string) (string, error) {
	req := server.CreateSessionRequest{PolicyID: t.policyID, Budget: sessionBudget, Seed: &seed}
	if b.w.shards > 0 {
		req.DatasetID = datasetID
	}
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	var sess server.SessionResponse
	if err := b.setupClient.call("POST", t.base+"/v1/sessions", body, &sess); err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	return sess.ID, nil
}

// sessionSeed is the explicit noise seed of session s; explicit seeds make
// a session's releases a function of its own request sequence.
func (b *bench) sessionSeed(s int) int64 {
	r := splitmix{s: b.seed*31 + uint64(s)}
	return int64(r.next() >> 1)
}

func (b *bench) streamSeed(k int) int64 {
	r := splitmix{s: b.seed*37 + uint64(k) + 1<<40}
	return int64(r.next() >> 1)
}

// sessionDataset is the release dataset session s reads.
func (b *bench) sessionDataset(s int) int { return s % b.w.releaseDatasets }

// httpClient is a client with exactly one connection.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// apiClient makes set-up and check calls outside the measured load.
type apiClient struct{ hc *http.Client }

var errStatus = errors.New("unexpected status")

// call sends a JSON body (nil for none), requires a 2xx answer and
// decodes it into out when out is non-nil.
func (c *apiClient) call(method, url string, body []byte, out any) error {
	return c.do(method, url, "application/json", body, out)
}

func (c *apiClient) do(method, url, ctype string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%w %d from %s %s: %s", errStatus, resp.StatusCode, method, url, data)
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// rowsBody encodes a dataset upload over the workload's one-attribute domain.
func rowsBody(size int, rows []int) ([]byte, error) {
	wire := make([][]int, len(rows))
	flat := make([]int, len(rows))
	for i, v := range rows {
		flat[i] = v
		wire[i] = flat[i : i+1 : i+1]
	}
	return json.Marshal(server.CreateDatasetRequest{
		Domain: []server.AttrSpec{{Name: "value", Size: size}},
		Rows:   wire,
	})
}
