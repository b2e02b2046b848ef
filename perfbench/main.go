// Command perfbench is the repository's end-to-end benchmark. It runs the
// blowfish HTTP front (internal/server) in process over loopback TCP and
// drives it with an open-loop load generator of at most nproc connections
// and workers, then measures closed-loop capacity and recovery, checks
// every output it can, and prints one JSON result as its last line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload adhoc-adult --seed 1 --seconds 48 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same open-loop
// schedule untraced and traced, runs the layer ladder, and prints the
// per-layer metrics. METRICS.md describes every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced run with per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatal(fmt.Errorf("unknown workload %q (have %v)", *name, names))
	}
	dataDir := filepath.Join(".bench_build", "perfbench-data", w.name+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dataDir)
	b, err := newBench(w, *seed, *seconds, dataDir)
	if err != nil {
		fatal(err)
	}
	var out *outcome
	var units map[string]string
	if *trace == 1 {
		out, err = b.measureTraced()
		units = map[string]string{}
		for _, lm := range layerMetrics() {
			units[lm.name] = lm.unit
		}
	} else {
		out, err = b.measure()
		units = endToEndUnits
	}
	if err != nil {
		os.RemoveAll(dataDir)
		fatal(err)
	}
	rep := report{Workload: w.name, Stamp: newStamp(b), Samples: out.samples, Tails: out.tails, Checks: b.checks}
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: b.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for n, v := range out.metrics {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
	}
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.RemoveAll(dataDir)
		os.Exit(1)
	}
}

// endToEndUnits are the units of the end-to-end metrics.
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"release_p50_ms":      "ms",
	"release_max_rps":     "1/s",
	"ingest_p50_ms":       "ms",
	"ingest_max_events_s": "1/s",
	"epoch_close_p50_ms":  "ms",
	"recovery_s":          "s",
	"ok_ratio":            "ratio",
	"cpu_ms_per_op":       "ms",
	"heap_live_mb":        "MiB",
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
