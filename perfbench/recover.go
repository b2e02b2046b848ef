package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"blowfish/internal/codec"
	"blowfish/internal/server"
	"blowfish/internal/wal"
)

// Tail written after the explicit checkpoint of the durable workload, so
// every run recovers the same amount of log.
const (
	tailReleases = 200
	tailBatches  = 40
	tailBatch    = 8
)

// recoverDurable checkpoints, writes a fixed tail of releases and ingest
// batches, abandons the router as kill -9 would, and times re-opening it,
// reps times. Every recovered router must hold every acked row and
// charge. It returns the last one, fronted again so the load can go on,
// with the re-open times.
func (b *bench) recoverDurable(t *target, countTail bool, reps int) (*target, []float64, int, error) {
	if _, err := t.inner.Checkpoint(); err != nil {
		return t, nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	b.recoveries++
	rng := &splitmix{s: b.seed*131 + uint64(b.recoveries)}
	c := b.newLoadClient(t)
	defer c.hc.CloseIdleConnections()
	for i := 0; i < tailReleases; i++ {
		s := (i * 5) % b.w.sessions
		body, err := json.Marshal(server.RangeRequest{DatasetID: t.datasetIDs[b.sessionDataset(s)],
			Epsilon: releaseEps, Fanout: fanout, Queries: randomQueries(rng, b.w.domainSize(), rangeQueries)})
		if err != nil {
			return t, nil, 0, err
		}
		if err := b.setupClient.call("POST", t.base+"/v1/sessions/"+t.sessionIDs[s]+"/releases/range", body, nil); err != nil {
			return t, nil, 0, err
		}
		b.sessSpent[s] += releaseEps
	}
	ingest := b.w.ingestDatasets()
	for i := 0; i < tailBatches; i++ {
		d := ingest[i%len(ingest)]
		events := make([]codec.Event, tailBatch)
		rows := make([]int, tailBatch)
		for j := range events {
			rows[j] = b.initRows[d][rng.intn(len(b.initRows[d]))]
			events[j] = codec.Event{Op: "append", Row: rows[j : j+1 : j+1]}
		}
		body, url, err := b.eventsBody(t, d, events, true)
		if err != nil {
			return t, nil, 0, err
		}
		o := op{class: clIngest, ent: d, rows: rows, body: body, url: url}
		if _, ok := c.exec(&o); !ok {
			return t, nil, 0, fmt.Errorf("tail ingest batch %d failed", i)
		}
	}
	t.stopFront()
	t.router.Abandon()
	tail := 0
	if countTail {
		for i := 0; i < b.w.shards; i++ {
			n, err := walTail(filepath.Join(t.dir, "shard-"+strconv.Itoa(i)))
			if err != nil {
				return t, nil, 0, err
			}
			tail += n
		}
	}
	// Each re-open reads its own copy of the crashed directory, so the
	// abandoned router can then be closed and freed, as a killed process
	// would be, without its shutdown writing into state that is re-opened.
	dirs := make([]string, reps)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("%s-r%d.%d", t.dir, b.recoveries, i+1)
		if err := copyDir(t.dir, dirs[i]); err != nil {
			return t, nil, 0, err
		}
	}
	t.close()
	var times []float64
	var nt target
	for i, dir := range dirs {
		if i > 0 {
			nt.close()
		}
		runtime.GC() // a restarted process starts with an empty heap
		start := time.Now()
		svc, router, err := b.openService(dir)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return t, nil, 0, fmt.Errorf("recovery: %w", err)
		}
		nt = *t
		nt.inner, nt.router, nt.dir, nt.tracer, nt.front, nt.srv = svc, router, dir, nil, nil, nil
		b.checkTallies(svc, &nt, fmt.Sprintf("after recovery %d.%d", b.recoveries, i+1), true)
	}
	if err := startFront(&nt, nt.inner); err != nil {
		return t, nil, 0, err
	}
	return &nt, times, tail, nil
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}

// walTail counts the records a recovery of dir replays after its latest
// snapshot.
func walTail(dir string) (int, error) {
	lsn, _, err := wal.LatestSnapshot(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	err = wal.Replay(dir, lsn, func(wal.Record) error { n++; return nil })
	return n, err
}

// restartMemory times restarting an in-memory workload the only way it
// can be: a fresh server, reloaded by its client with the policy and the
// current rows, serving its first release. It restarts reps times and
// returns the times. The live server stays up, idle, so the load can go
// on after it; each restarted server is checked and closed.
func (b *bench) restartMemory(reps int) ([]float64, error) {
	bodies := make([][]byte, len(b.rows))
	for d, r := range b.rows {
		body, err := rowsBody(b.w.domainSize(), r)
		if err != nil {
			return nil, err
		}
		bodies[d] = body
	}
	b.recoveries++
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // a restarted process starts with an empty heap
		start := time.Now()
		nt, err := b.restart(bodies)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
		b.checkTallies(nt.inner, nt, fmt.Sprintf("after restart %d.%d", b.recoveries, i+1), false)
		nt.close()
	}
	return times, nil
}

// restart starts an empty in-memory server and reloads it.
func (b *bench) restart(bodies [][]byte) (*target, error) {
	svc, _, err := b.openService("")
	if err != nil {
		return nil, err
	}
	nt := &target{inner: svc}
	if err := startFront(nt, svc); err != nil {
		nt.close()
		return nil, err
	}
	c := b.setupClient
	var pol server.PolicyResponse
	if err := c.call("POST", nt.base+"/v1/policies", b.policyBody, &pol); err != nil {
		nt.close()
		return nil, err
	}
	nt.policyID = pol.ID
	for d, body := range bodies {
		var ds server.DatasetResponse
		if err := c.call("POST", nt.base+"/v1/datasets", body, &ds); err != nil {
			nt.close()
			return nil, fmt.Errorf("reload dataset %d: %w", d, err)
		}
		nt.datasetIDs = append(nt.datasetIDs, ds.ID)
	}
	sid, err := b.createSession(nt, int64(b.seed)^0x7e57, nt.datasetIDs[0])
	if err != nil {
		nt.close()
		return nil, err
	}
	body, err := json.Marshal(server.HistogramRequest{DatasetID: nt.datasetIDs[0], Epsilon: releaseEps})
	if err == nil {
		err = c.call("POST", nt.base+"/v1/sessions/"+sid+"/releases/histogram", body, nil)
	}
	if err != nil {
		nt.close()
		return nil, err
	}
	return nt, nil
}
