package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"blowfish"
	"blowfish/internal/metrics"
	"blowfish/internal/service"
)

// seedStride separates the shards' base seeds: shard i derives its noise
// and per-session seeds from cfg.Seed + i*seedStride (the 64-bit golden
// gamma, so consecutive shards land far apart in seed space). The stride
// is part of the on-disk contract — recovery re-derives the same per-shard
// seeds from the same base seed.
const seedStride int64 = -0x61C8864680B583EB // 0x9E3779B97F4A7C15 as int64

// Router is a service front over N shard cores. It implements the same
// Service surface a single core does; the HTTP front (server.NewWith)
// cannot tell them apart.
//
// Placement: datasets hash to a shard by rendezvous hashing of their id
// (ShardFor); streams live with their dataset; sessions live with the
// dataset named by their placement hint (falling back to hashing the
// session id); policies are broadcast to every shard. The router mints
// every id itself so the namespaces stay global — two shards can never
// hand out the same id.
type Router struct {
	cfg   service.Config
	cores []*service.Core

	// mu guards the id counters and the routing tables. Creates and
	// deletes hold the write lock across the core call so a policy
	// broadcast (which touches every core) cannot interleave with a
	// create that snapshots the policy set, and read the tables directly
	// under it. Routing lookups (route) take the read lock only, so route
	// is never called with mu held: Go's RWMutex is not reentrant.
	mu     sync.RWMutex
	nextID [4]uint64 // policy, dataset, session, stream counters
	// Routing tables, id -> shard index. Not registries and not
	// journaled: each shard's registries are the durable truth, and
	// rebuild() reconstructs these maps from them on every open.
	dsShard     map[string]int
	sessShard   map[string]int
	streamShard map[string]int
}

// New creates an in-memory router over n cores.
func New(cfg service.Config, n int) (*Router, error) {
	return Open(cfg, n)
}

// Open creates a router over n cores, recovering each shard's durable
// state from its own subdirectory <cfg.Durability.Dir>/shard-<i> when a
// data directory is configured. The shard count is part of the on-disk
// layout: reopening with a different n would strand datasets on shards
// the hash no longer picks, so Open refuses a directory whose shard
// subdirectories contradict n.
func Open(cfg service.Config, n int) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if cfg.Durability.Dir != "" {
		if err := checkLayout(cfg.Durability.Dir, n); err != nil {
			return nil, err
		}
	}
	r := &Router{
		cfg:         cfg,
		cores:       make([]*service.Core, 0, n),
		dsShard:     make(map[string]int),
		sessShard:   make(map[string]int),
		streamShard: make(map[string]int),
	}
	for i := 0; i < n; i++ {
		sub := cfg
		sub.ShardLabel = strconv.Itoa(i)
		sub.Seed = cfg.Seed + int64(i)*seedStride
		if cfg.Durability.Dir != "" {
			sub.Durability.Dir = filepath.Join(cfg.Durability.Dir, "shard-"+strconv.Itoa(i))
		}
		core, err := service.Open(sub)
		if err != nil {
			for _, c := range r.cores {
				c.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.cores = append(r.cores, core)
	}
	// Expose the defaulted base configuration, not shard 0's private view.
	base := r.cores[0].Config()
	base.Durability.Dir = cfg.Durability.Dir
	base.ShardLabel = ""
	base.Seed = cfg.Seed
	r.cfg = base
	r.rebuild()
	return r, nil
}

// rebuild reconstructs the routing tables and id counters from the
// recovered cores, and repairs a torn policy broadcast (a crash between
// two shards' creation records) by re-applying missing policies from a
// shard that has them — policy registration is deterministic from its
// spec, so the repaired shard compiles the identical plan.
func (r *Router) rebuild() {
	for k, c := range r.cores {
		for _, id := range c.PolicyIDs() {
			bump(&r.nextID[0], id)
		}
		for _, id := range c.DatasetIDs() {
			r.dsShard[id] = k
			bump(&r.nextID[1], id)
		}
		for _, id := range c.SessionIDs() {
			r.sessShard[id] = k
			bump(&r.nextID[2], id)
		}
		for _, id := range c.StreamIDs() {
			r.streamShard[id] = k
			bump(&r.nextID[3], id)
		}
	}
	// Union of policy ids, with one shard that owns each.
	owners := make(map[string]int)
	for k, c := range r.cores {
		for _, id := range c.PolicyIDs() {
			if _, ok := owners[id]; !ok {
				owners[id] = k
			}
		}
	}
	for id, owner := range owners {
		spec, err := r.cores[owner].PolicySpec(id)
		if err != nil {
			continue
		}
		//lint:allow shardsafe torn-broadcast repair: re-applying the policy union is idempotent, so the repair loop IS the rollback
		for _, c := range r.cores {
			if !c.HasPolicy(id) {
				_, _ = c.ApplyPolicy(id, spec)
			}
		}
	}
}

func bump(ctr *uint64, id string) {
	if n := service.CounterFromID(id); n > *ctr {
		*ctr = n
	}
}

// checkLayout verifies an existing data directory agrees with the shard
// count: every shard-<i> subdirectory present must be i < n.
func checkLayout(dir string, n int) error {
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return err
	}
	for _, m := range matches {
		var i int
		if _, err := fmt.Sscanf(filepath.Base(m), "shard-%d", &i); err != nil {
			continue
		}
		if i >= n {
			return fmt.Errorf("shard: data directory %s holds %s but only %d shard(s) configured; reopen with the original shard count", dir, filepath.Base(m), n)
		}
	}
	return nil
}

// Shards returns the number of shard cores.
func (r *Router) Shards() int { return len(r.cores) }

// ShardOf reports which shard currently owns a dataset, session or
// stream id (-1 when unknown). Diagnostics and tests.
func (r *Router) ShardOf(id string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if k, ok := r.dsShard[id]; ok {
		return k
	}
	if k, ok := r.sessShard[id]; ok {
		return k
	}
	if k, ok := r.streamShard[id]; ok {
		return k
	}
	return -1
}

// Core returns shard k's core (tests and the recovery harness).
//
//lint:allow shardsafe white-box accessor for tests and the recovery harness, which address shards directly by index
func (r *Router) Core(k int) *service.Core { return r.cores[k] }

// Config returns the (defaulted) base configuration.
func (r *Router) Config() service.Config { return r.cfg }

// mint reserves the next id in a namespace under the write lock already
// held by the caller.
func (r *Router) mint(kind int, prefix string) string {
	r.nextID[kind]++
	return prefix + "-" + strconv.FormatUint(r.nextID[kind], 10)
}

// route resolves an id through one routing table. A miss reads shard 0,
// whose core produces its own structured unknown-* error — the router
// never invents error messages of its own.
func (r *Router) route(m map[string]int, id string) *service.Core {
	r.mu.RLock()
	k := m[id]
	r.mu.RUnlock()
	return r.cores[k]
}

// create mints an id in namespace kind, places it on the shard of the
// dataset near (or on ShardFor(id) when near names no known dataset),
// applies the create there and records the placement in table.
func create[Req, Resp any](r *Router, kind int, prefix string, table map[string]int, near string,
	req Req, apply func(*service.Core, string, Req) (Resp, error)) (Resp, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.mint(kind, prefix)
	k, ok := r.dsShard[near]
	if !ok {
		k = ShardFor(id, len(r.cores))
	}
	resp, err := apply(r.cores[k], id, req)
	if err == nil {
		table[id] = k
	}
	return resp, err
}

// remove deletes id on the shard table names and drops its route. It
// reads table directly under the write lock it holds (see mu); a miss
// reads shard 0, as in route.
func (r *Router) remove(table map[string]int, id string, del func(*service.Core, string) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := table[id]
	if err := del(r.cores[k], id); err != nil {
		return err
	}
	delete(table, id)
	return nil
}

// gather scatter-gathers one list endpoint over every shard and orders the
// merge the way a single core's list would ("ds-2" before "ds-10").
func gather[E any](r *Router, list func(*service.Core) []E, id func(E) string) []E {
	out := []E{}
	for _, c := range r.cores {
		out = append(out, list(c)...)
	}
	slices.SortFunc(out, func(a, b E) int { return service.CompareIDs(id(a), id(b)) })
	return out
}

// sum adds up one per-shard count over every shard.
func (r *Router) sum(count func(*service.Core) int) int {
	n := 0
	for _, c := range r.cores {
		n += count(c)
	}
	return n
}

// --- policies (broadcast) --------------------------------------------------

// CreatePolicy registers a policy on every shard under one id. The
// broadcast is sequential with rollback: if shard k refuses, the policy
// is removed from shards 0..k-1 and the create fails as a whole.
func (r *Router) CreatePolicy(req service.CreatePolicyRequest) (service.PolicyResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.mint(0, "pol")
	var resp service.PolicyResponse
	for k, c := range r.cores {
		got, err := c.ApplyPolicy(id, req)
		if err != nil {
			for _, prev := range r.cores[:k] {
				_ = prev.DeletePolicy(id)
			}
			return service.PolicyResponse{}, err
		}
		if k == 0 {
			resp = got
		}
	}
	return resp, nil
}

func (r *Router) GetPolicy(id string) (service.PolicyResponse, error) {
	return r.cores[0].GetPolicy(id)
}

func (r *Router) ListPolicies() service.ListPoliciesResponse {
	return r.cores[0].ListPolicies()
}

// DeletePolicy removes a policy from every shard. Any shard may refuse
// (live sessions or streams reference it there); refused deletes restore
// the policy on the shards that already dropped it, so the broadcast
// stays all-or-nothing.
func (r *Router) DeletePolicy(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	spec, specErr := r.cores[0].PolicySpec(id)
	for k, c := range r.cores {
		if err := c.DeletePolicy(id); err != nil {
			if specErr == nil {
				for _, prev := range r.cores[:k] {
					_, _ = prev.ApplyPolicy(id, spec)
				}
			}
			return err
		}
	}
	return nil
}

// --- datasets (hashed) -----------------------------------------------------

func (r *Router) CreateDataset(req service.CreateDatasetRequest) (service.DatasetResponse, error) {
	return create(r, 1, "ds", r.dsShard, "", req, (*service.Core).ApplyDataset)
}

func (r *Router) GetDataset(id string) (service.DatasetResponse, error) {
	return r.route(r.dsShard, id).GetDataset(id)
}

func (r *Router) ListDatasets() service.ListDatasetsResponse {
	return service.ListDatasetsResponse{Datasets: gather(r,
		func(c *service.Core) []service.DatasetResponse { return c.ListDatasets().Datasets },
		func(d service.DatasetResponse) string { return d.ID })}
}

func (r *Router) DeleteDataset(id string) error {
	return r.remove(r.dsShard, id, (*service.Core).DeleteDataset)
}

func (r *Router) IngestEvents(ctx context.Context, datasetID string, events []blowfish.StreamEvent, wait bool) (service.EventsResponse, error) {
	return r.route(r.dsShard, datasetID).IngestEvents(ctx, datasetID, events, wait)
}

// --- sessions (colocated with their dataset) -------------------------------

// CreateSession places the session with its dataset_id hint. Without a
// hint (or with an unknown dataset, which the release path will report)
// it hashes the session's own id.
func (r *Router) CreateSession(req service.CreateSessionRequest) (service.SessionResponse, error) {
	return create(r, 2, "sess", r.sessShard, req.DatasetID, req, (*service.Core).ApplySession)
}

func (r *Router) GetSession(id string) (service.SessionResponse, error) {
	return r.route(r.sessShard, id).GetSession(id)
}

func (r *Router) ListSessions() service.ListSessionsResponse {
	return service.ListSessionsResponse{Sessions: gather(r,
		func(c *service.Core) []service.SessionResponse { return c.ListSessions().Sessions },
		func(s service.SessionResponse) string { return s.ID })}
}

func (r *Router) DeleteSession(id string) error {
	return r.remove(r.sessShard, id, (*service.Core).DeleteSession)
}

func (r *Router) Histogram(sessionID string, req service.HistogramRequest) (service.HistogramResponse, error) {
	return r.route(r.sessShard, sessionID).Histogram(sessionID, req)
}

func (r *Router) Cumulative(sessionID string, req service.CumulativeRequest) (service.CumulativeResponse, error) {
	return r.route(r.sessShard, sessionID).Cumulative(sessionID, req)
}

func (r *Router) Range(sessionID string, req service.RangeRequest) (service.RangeResponse, error) {
	return r.route(r.sessShard, sessionID).Range(sessionID, req)
}

// --- streams (colocated with their dataset) --------------------------------

// CreateStream places the stream on its dataset's shard, since a stream
// binds its dataset's table. An unknown dataset lands on ShardFor(id),
// whose core reports it.
func (r *Router) CreateStream(req service.CreateStreamRequest) (service.StreamResponse, error) {
	return create(r, 3, "stream", r.streamShard, req.DatasetID, req, (*service.Core).ApplyStream)
}

func (r *Router) GetStream(id string) (service.StreamResponse, error) {
	return r.route(r.streamShard, id).GetStream(id)
}

func (r *Router) ListStreams() service.ListStreamsResponse {
	return service.ListStreamsResponse{Streams: gather(r,
		func(c *service.Core) []service.StreamResponse { return c.ListStreams().Streams },
		func(s service.StreamResponse) string { return s.ID })}
}

func (r *Router) DeleteStream(id string) error {
	return r.remove(r.streamShard, id, (*service.Core).DeleteStream)
}

func (r *Router) CloseEpoch(ctx context.Context, id string) (service.EpochReleaseWire, error) {
	return r.route(r.streamShard, id).CloseEpoch(ctx, id)
}

func (r *Router) StreamReleases(ctx context.Context, id string, since uint64, wait time.Duration) (service.StreamReleasesResponse, error) {
	return r.route(r.streamShard, id).StreamReleases(ctx, id, since, wait)
}

// --- lifecycle / aggregates ------------------------------------------------

// Checkpoint snapshots every shard and aggregates the stats (summed
// bytes, slowest duration, the highest LSN's path). The first error wins;
// later shards still checkpoint so one failure does not grow every other
// shard's WAL unboundedly.
func (r *Router) Checkpoint() (service.CheckpointStats, error) {
	var agg service.CheckpointStats
	var firstErr error
	for _, c := range r.cores {
		st, err := c.Checkpoint()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		agg.Bytes += st.Bytes
		if st.DurationMS > agg.DurationMS {
			agg.DurationMS = st.DurationMS
		}
		if st.LSN >= agg.LSN {
			agg.LSN = st.LSN
			agg.Path = st.Path
		}
	}
	if firstErr != nil {
		return service.CheckpointStats{}, firstErr
	}
	return agg, nil
}

// ExpireSessions sweeps every shard and prunes the routing entries of the
// sessions the shards dropped.
func (r *Router) ExpireSessions() int {
	n := r.sum((*service.Core).ExpireSessions)
	if n > 0 {
		r.mu.Lock()
		for id, k := range r.sessShard {
			if !r.cores[k].HasSession(id) {
				delete(r.sessShard, id)
			}
		}
		r.mu.Unlock()
	}
	return n
}

func (r *Router) SessionCount() int { return r.sum((*service.Core).SessionCount) }

func (r *Router) StreamCount() int { return r.sum((*service.Core).StreamCount) }

func (r *Router) CloseLeaked() int { return r.sum((*service.Core).CloseLeaked) }

// Close shuts the shards down concurrently — each drains its own tickers
// and writers and takes its own final checkpoint.
func (r *Router) Close() {
	var wg sync.WaitGroup
	for _, c := range r.cores {
		wg.Add(1)
		go func(c *service.Core) {
			defer wg.Done()
			c.Close()
		}(c)
	}
	wg.Wait()
}

// Abandon simulates a crash on every shard (crash-recovery tests).
func (r *Router) Abandon() {
	for _, c := range r.cores {
		c.Abandon()
	}
}

// Registries returns every shard's metric registry, shard 0 first.
func (r *Router) Registries() []*metrics.Registry {
	out := make([]*metrics.Registry, 0, len(r.cores))
	for _, c := range r.cores {
		out = append(out, c.Metrics())
	}
	return out
}
