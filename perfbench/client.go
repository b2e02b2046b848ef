package main

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"io"
	"net/http"
	"time"

	"blowfish/internal/codec"
	"blowfish/internal/server"
)

// loadClient is one load worker's connection and scratch state. Every
// entity it touches (session, producer dataset, stream) belongs to it
// alone, so it updates the shared per-entity tallies without locks.
type loadClient struct {
	b   *bench
	t   *target
	hc  *http.Client
	rec *recorder
	buf bytes.Buffer

	epoch  server.EpochReleaseWire
	polled server.StreamReleasesResponse
}

func (b *bench) newLoadClient(t *target) *loadClient {
	return &loadClient{b: b, t: t, hc: httpClient(), rec: &recorder{}}
}

// send performs one HTTP exchange and leaves the body in c.buf.
func (c *loadClient) send(method, url, ctype string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// exec performs o and updates the tallies its answer feeds. An ingest
// batch refused with 429 is retried after a short backoff; the whole wait
// stays inside the request's latency.
func (c *loadClient) exec(o *op) (sent time.Time, ok bool) {
	b := c.b
	method, body, url, ctype := "POST", o.body, o.url, "application/json"
	switch o.class {
	case clIngest:
		if b.w.binary {
			ctype = codec.ContentType
		}
	case clRead:
		method = "GET"
	case clPoll:
		method = "GET"
		url = pollURL(o.url, b.cursor[o.ent])
	}
	sent = time.Now()
	last := sent
	status, err := c.send(method, url, ctype, body)
	for backoff := 200 * time.Microsecond; err == nil && status == http.StatusTooManyRequests; backoff = min(2*backoff, 8*time.Millisecond) {
		c.rec.queueFull++
		time.Sleep(backoff)
		last = time.Now()
		status, err = c.send(method, url, ctype, body)
	}
	if err != nil || status/100 != 2 {
		return sent, false
	}
	if c.t.tracer != nil && c.t.tracer.on.Load() {
		if span, found := c.t.tracer.take(o); found {
			c.rec.rtt[o.class] = append(c.rec.rtt[o.class], time.Since(last))
			c.rec.span[o.class] = append(c.rec.span[o.class], span)
		}
	}
	return sent, c.absorb(o)
}

// absorb folds a successful answer into the run's tallies.
func (c *loadClient) absorb(o *op) bool {
	b := c.b
	data := c.buf.Bytes()
	switch o.class {
	case clRange, clHistogram, clCumulative, clRead:
		if o.class != clRead {
			c.rec.respBytes += int64(len(data))
			b.sessSpent[o.ent] += o.eps
		}
		if b.digest && o.phase == 0 {
			b.sessDigest[o.ent] = mix64(b.sessDigest[o.ent], maphash.Bytes(b.hashSeed, data))
		}
	case clIngest:
		if o.ids == nil {
			b.rows[o.ent] = append(b.rows[o.ent], o.rows...)
		} else {
			for i, id := range o.ids {
				b.rows[o.ent][id] = o.rows[i]
			}
		}
	case clEpoch:
		if json.Unmarshal(data, &c.epoch) != nil {
			return false
		}
		b.streamSpent[o.ent] += c.epoch.Epsilon
	case clPoll:
		c.polled = server.StreamReleasesResponse{}
		if json.Unmarshal(data, &c.polled) != nil {
			return false
		}
		b.cursor[o.ent] = c.polled.NextSince
	}
	return true
}
