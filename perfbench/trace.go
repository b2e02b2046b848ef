package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"blowfish"
	"blowfish/internal/server"
)

// tracer is the Service the traced run puts between the HTTP front and
// the core or router. It times every call of the traced kinds and leaves
// the duration in a slot owned by the entity the call names (session,
// dataset or stream). Each entity has at most one request in flight, so
// the load worker that sent the request takes exactly its own span.
type tracer struct {
	server.Service
	on    atomic.Bool
	slots map[string]*atomic.Int64 // entity id -> span ns, or -1 when empty
}

// register creates one slot per entity; the map is read-only afterwards.
func (t *tracer) register(tg *target) {
	t.slots = make(map[string]*atomic.Int64)
	for _, ids := range [][]string{tg.sessionIDs, tg.datasetIDs, tg.streamIDs} {
		for _, id := range ids {
			v := &atomic.Int64{}
			v.Store(-1)
			t.slots[id] = v
		}
	}
}

func (t *tracer) record(id string, start time.Time) {
	if slot := t.slots[id]; slot != nil {
		slot.Store(int64(time.Since(start)))
	}
}

// take returns and clears the span of the entity o names; ops of the
// untraced classes name none.
func (t *tracer) take(o *op) (time.Duration, bool) {
	slot := t.slots[o.traceID]
	if slot == nil {
		return 0, false
	}
	v := slot.Swap(-1)
	return time.Duration(v), v >= 0
}

func (t *tracer) Histogram(id string, req server.HistogramRequest) (server.HistogramResponse, error) {
	if !t.on.Load() {
		return t.Service.Histogram(id, req)
	}
	start := time.Now()
	resp, err := t.Service.Histogram(id, req)
	t.record(id, start)
	return resp, err
}

func (t *tracer) Cumulative(id string, req server.CumulativeRequest) (server.CumulativeResponse, error) {
	if !t.on.Load() {
		return t.Service.Cumulative(id, req)
	}
	start := time.Now()
	resp, err := t.Service.Cumulative(id, req)
	t.record(id, start)
	return resp, err
}

func (t *tracer) Range(id string, req server.RangeRequest) (server.RangeResponse, error) {
	if !t.on.Load() {
		return t.Service.Range(id, req)
	}
	start := time.Now()
	resp, err := t.Service.Range(id, req)
	t.record(id, start)
	return resp, err
}

func (t *tracer) IngestEvents(ctx context.Context, id string, events []blowfish.StreamEvent, wait bool) (server.EventsResponse, error) {
	if !t.on.Load() {
		return t.Service.IngestEvents(ctx, id, events, wait)
	}
	start := time.Now()
	resp, err := t.Service.IngestEvents(ctx, id, events, wait)
	t.record(id, start)
	return resp, err
}

func (t *tracer) CloseEpoch(ctx context.Context, id string) (server.EpochReleaseWire, error) {
	if !t.on.Load() {
		return t.Service.CloseEpoch(ctx, id)
	}
	start := time.Now()
	resp, err := t.Service.CloseEpoch(ctx, id)
	t.record(id, start)
	return resp, err
}

// --- /metrics deltas --------------------------------------------------------

// promSample is one line of the Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the text exposition format 0.0.4 the server emits.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexAny(line, "{ "); i < 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		} else {
			s.name = line[:i]
			rest = line[i:]
		}
		if strings.HasPrefix(rest, "{") {
			var err error
			rest, err = parseLabels(rest[1:], s.labels)
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels reads `k="v",...}` into m and returns what follows the brace.
func parseLabels(s string, m map[string]string) (string, error) {
	for {
		s = strings.TrimLeft(s, ", ")
		if strings.HasPrefix(s, "}") {
			return s[1:], nil
		}
		eq := strings.Index(s, "=\"")
		if eq < 0 {
			return "", fmt.Errorf("malformed labels")
		}
		key := s[:eq]
		s = s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			val.WriteByte(s[i])
		}
		if i == len(s) {
			return "", fmt.Errorf("unterminated label value")
		}
		m[key] = val.String()
		s = s[i+1:]
	}
}

// promSnap is one scrape.
type promSnap []promSample

// sum adds every series of name whose labels include match.
func (p promSnap) sum(name string, match map[string]string) float64 {
	var total float64
	for _, s := range p {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}

// max returns the largest value of any series of name.
func (p promSnap) max(name string) float64 {
	var m float64
	for _, s := range p {
		if s.name == name && s.value > m {
			m = s.value
		}
	}
	return m
}

// by sums name per value of label key.
func (p promSnap) by(name, key string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p {
		if s.name == name {
			out[s.labels[key]] += s.value
		}
	}
	return out
}

// promDelta is the difference of two scrapes.
type promDelta struct{ before, after promSnap }

func (d promDelta) sum(name string, match map[string]string) float64 {
	return d.after.sum(name, match) - d.before.sum(name, match)
}

// mean is the delta of name_sum over the delta of name_count.
func (d promDelta) mean(name string, match map[string]string) float64 {
	n := d.sum(name+"_count", match)
	if n == 0 {
		return 0
	}
	return d.sum(name+"_sum", match) / n
}

// scrape reads /metrics in process, with no socket.
func scrape(h http.Handler) (promSnap, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", rec.Code)
	}
	return parseProm(rec.Body.String())
}

// gaugeSampler scrapes /metrics on a period and keeps the largest ingest
// queue depth and epoch lag seen.
type gaugeSampler struct {
	stop chan struct{}
	done chan struct{}
	// Written by the sampler goroutine only, read after done is closed.
	queueMax float64
	lagMax   float64
	err      error
}

func startSampler(h http.Handler, period time.Duration) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				snap, err := scrape(h)
				if err != nil {
					g.err = err
					continue
				}
				g.queueMax = max(g.queueMax, snap.max("blowfish_ingest_queue_depth"))
				g.lagMax = max(g.lagMax, snap.max("blowfish_stream_epoch_lag_seconds"))
			}
		}
	}()
	return g
}

// finish stops the sampler and returns its maxima.
func (g *gaugeSampler) finish() (queueMax, lagMax float64, err error) {
	close(g.stop)
	<-g.done
	return g.queueMax, g.lagMax, g.err
}

// --- mutex profile ------------------------------------------------------

// Lock owners the mutex profile's delay is attributed to.
var lockOwners = []string{"stream_table", "service_core", "engine_noise", "wal", "other"}

// ownerOf names the lock owner of a contention record from its stack:
// the first frame outside the runtime and the sync packages is the code
// that released the contended lock.
func ownerOf(funcs []string) string {
	for _, fn := range funcs {
		switch {
		case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "sync."), strings.HasPrefix(fn, "internal/"):
			continue
		case strings.HasPrefix(fn, "blowfish/internal/stream.(*Table)"):
			return "stream_table"
		case strings.HasPrefix(fn, "blowfish/internal/service."):
			return "service_core"
		case strings.HasPrefix(fn, "blowfish/internal/engine."), strings.HasPrefix(fn, "blowfish/internal/noise."):
			return "engine_noise"
		case strings.HasPrefix(fn, "blowfish/internal/wal."):
			return "wal"
		default:
			return "other"
		}
	}
	return "other"
}

// attributeMutex reads a mutex profile in its debug=1 text form and
// returns the contention delay, in seconds, per lock owner.
func attributeMutex(text string) (map[string]float64, error) {
	out := map[string]float64{}
	var cps float64
	var cycles float64
	var funcs []string
	inRecord := false
	flush := func() {
		if inRecord {
			out[ownerOf(funcs)] += cycles
		}
		inRecord, funcs, cycles = false, nil, 0
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cycles/second="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "cycles/second="), 64)
			if err != nil {
				return nil, fmt.Errorf("mutex profile: %w", err)
			}
			cps = v
		case strings.HasPrefix(line, "#"):
			f := strings.Fields(line)
			if inRecord && len(f) >= 3 {
				fn := f[2]
				if i := strings.LastIndex(fn, "+0x"); i > 0 {
					fn = fn[:i]
				}
				funcs = append(funcs, fn)
			}
		case strings.Contains(line, " @ "):
			flush()
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return nil, fmt.Errorf("mutex profile record %q: %w", line, err)
			}
			cycles, inRecord = v, true
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cps <= 0 {
		return nil, fmt.Errorf("mutex profile without cycles/second")
	}
	for k, v := range out {
		out[k] = v / cps
	}
	return out, nil
}

// mutexProfile returns the process's mutex profile in debug=1 text form.
func mutexProfile() (string, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		return "", err
	}
	return buf.String(), nil
}
