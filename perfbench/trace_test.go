package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

const expoBefore = `# HELP blowfish_release_seconds Release latency.
# TYPE blowfish_release_seconds histogram
blowfish_release_seconds_bucket{policy="p1",kind="range",le="0.001"} 3
blowfish_release_seconds_sum{policy="p1",kind="range"} 0.002
blowfish_release_seconds_count{policy="p1",kind="range"} 4
blowfish_release_seconds_sum{policy="p1",kind="histogram"} 1
blowfish_release_seconds_count{policy="p1",kind="histogram"} 10
blowfish_noise_draws_total 14
blowfish_releases_total{policy="p1",kind="range",shard="0"} 4
blowfish_releases_total{policy="p1",kind="range",shard="1"} 0
blowfish_ingest_queue_depth{dataset="odd \"name\"\\x"} 7
`

const expoAfter = `blowfish_release_seconds_sum{policy="p1",kind="range"} 0.012
blowfish_release_seconds_count{policy="p1",kind="range"} 9
blowfish_release_seconds_sum{policy="p2",kind="range"} 0.01
blowfish_release_seconds_count{policy="p2",kind="range"} 5
blowfish_release_seconds_sum{policy="p1",kind="histogram"} 1
blowfish_release_seconds_count{policy="p1",kind="histogram"} 10
blowfish_noise_draws_total 44
blowfish_releases_total{policy="p1",kind="range",shard="0"} 10
blowfish_releases_total{policy="p1",kind="range",shard="1"} 20
blowfish_ingest_queue_depth{dataset="odd \"name\"\\x"} 3
`

func mustParse(t *testing.T, text string) promSnap {
	t.Helper()
	s, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPromDelta(t *testing.T) {
	before, after := mustParse(t, expoBefore), mustParse(t, expoAfter)
	if got := before.max("blowfish_ingest_queue_depth"); got != 7 {
		t.Errorf("queue depth max = %g", got)
	}
	for _, s := range before {
		if s.name == "blowfish_ingest_queue_depth" && s.labels["dataset"] != `odd "name"\x` {
			t.Errorf("escaped label parsed as %q", s.labels["dataset"])
		}
	}
	d := promDelta{before, after}
	// Range: 0.01s over 5 new releases of p1 plus 0.01s over 5 of p2.
	if got := d.mean("blowfish_release_seconds", map[string]string{"kind": "range"}); math.Abs(got-0.002) > 1e-12 {
		t.Errorf("range mean = %g, want 0.002", got)
	}
	// No new histogram releases: the mean of nothing is 0, not NaN.
	if got := d.mean("blowfish_release_seconds", map[string]string{"kind": "histogram"}); got != 0 {
		t.Errorf("histogram mean = %g", got)
	}
	if got := d.sum("blowfish_noise_draws_total", nil); got != 30 {
		t.Errorf("noise draws delta = %g", got)
	}
	// Shard 0 did 6 new releases, shard 1 did 20: max over mean is 20/13.
	if got := skew(d); math.Abs(got-20.0/13) > 1e-12 {
		t.Errorf("skew = %g", got)
	}
}

func TestPromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"novalue", `x{a="1"`, `x{a=1} 2`, "x notanumber"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

const mutexText = `--- mutex:
cycles/second=1000000000
sampling period=1
3000000 2 @ 0x1 0x2 0x3
#	0x1	sync.(*RWMutex).RUnlock+0x4d		/go/src/sync/rwmutex.go:1
#	0x2	blowfish/internal/stream.(*Table).RUnlock+0x2a	/x/table.go:93
#	0x3	blowfish/internal/service.(*Core).Range+0x99	/x/api.go:1

1000000 1 @ 0x4 0x5
#	0x4	internal/sync.(*Mutex).Unlock+0x1	/go/src/internal/sync/mutex.go:1
#	0x5	blowfish/internal/service.(*Core).getSession+0x10	/x/service.go:1

500000 1 @ 0x6 0x7
#	0x6	sync.(*Mutex).Unlock+0x1	/go/src/sync/mutex.go:1
#	0x7	blowfish/internal/wal.(*Log).Append+0x10	/x/wal.go:1

250000 1 @ 0x8 0x9
#	0x8	sync.(*Mutex).Unlock+0x1	/go/src/sync/mutex.go:1
#	0x9	blowfish/internal/engine.(*Engine).acquire+0x10	/x/engine.go:1

125000 1 @ 0xa 0xb
#	0xa	runtime.unlock+0x1	/go/src/runtime/lock.go:1
#	0xb	net/http.(*Transport).getConn+0x10	/go/src/net/http/transport.go:1
`

func TestAttributeMutex(t *testing.T) {
	got, err := attributeMutex(mutexText)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"stream_table": 0.003, "service_core": 0.001, "wal": 0.0005,
		"engine_noise": 0.00025, "other": 0.000125,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s: %g s, want %g", k, got[k], v)
		}
	}
	if _, err := attributeMutex("1 1 @ 0x1\n"); err == nil {
		t.Error("profile without cycles/second accepted")
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json in step with the
// metrics the program prints.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEndUnits) {
		t.Errorf("end_to_end = %v, program prints %v", e2e, endToEndUnits)
	}
	var layers []layerMetric
	for _, m := range spec.PerLayer {
		layers = append(layers, layerMetric{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(layers, layerMetrics()) {
		t.Errorf("per_layer = %v, program prints %v", layers, layerMetrics())
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not defined", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
}
