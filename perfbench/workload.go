package main

import (
	"time"

	"blowfish/internal/datagen"
	"blowfish/internal/noise"
)

// workload is one traffic mix. Its offered rates are constants: no rate is
// calibrated at run time, so two commits always receive the same load.
type workload struct {
	name string

	shards  int  // 0: one service.Core without the router
	durable bool // WAL with fsync=interval and periodic snapshots

	releaseDatasets int  // datasets that releases read
	liveSplit       bool // ingest and streams use one more dataset, so release data stays static
	sessions        int

	// Open-loop offered load, per second.
	releaseRate float64             // requests of the release mix
	mix         [clRead + 1]float64 // shares of range, histogram, cumulative, session read
	ingestRate  float64             // event batches
	epochRate   float64             // epoch closes over all streams
	pollRate    float64             // cursor polls over all streams

	batch   int  // events per ingest batch
	binary  bool // codec frames rather than the JSON envelope
	streams int

	// openShare is the open loop's share of the measured seconds; the
	// closed-loop release and ingest phases split the rest.
	openShare float64

	ladderReps int // repetitions of each ladder op
}

var adhocMix = [clRead + 1]float64{0.5, 0.3, 0.1, 0.1}

var workloads = map[string]*workload{
	// The pure read path: engine plus JSON encoding of |T|-float
	// responses over static data, the only workload whose releases are
	// deterministic. Writes go to a second dataset, so releases never
	// share a table with a writer, a WAL or a router.
	"adhoc-adult": {
		name: "adhoc-adult", releaseDatasets: 1, liveSplit: true, sessions: 1000,
		releaseRate: 200, mix: adhocMix,
		ingestRate: 40, epochRate: 40, pollRate: 10,
		batch: 64, binary: true, streams: 4,
		openShare: 0.5, ladderReps: 200,
	},
	// Routing, journaling, snapshots and recovery: the adhoc-adult
	// release mix at a lower rate over 8 datasets on 4 durable shards,
	// plus JSON ingest into the same datasets.
	"durable-sharded": {
		name: "durable-sharded", shards: 4, durable: true,
		releaseDatasets: 8, sessions: 1000,
		releaseRate: 150, mix: adhocMix,
		ingestRate: 40, epochRate: 40, pollRate: 0,
		batch: 32, binary: false, streams: 8,
		openShare: 0.5, ladderReps: 200,
	},
}

// Release parameters shared by every workload.
const (
	theta          = 100 // l1 secret-graph threshold (Fig. 2b uses G^{d,θ=100})
	histSens       = 2   // S(h, G^{d,θ}): moving one tuple changes two cells by one
	releaseEps     = 0.5
	epochEps       = 0.1
	sessionBudget  = 1e6
	fanout         = 16
	rangeQueries   = 16
	snapshotEvery  = 500 // WAL records per shard between automatic checkpoints
	recoveryReps   = 2   // recoveries or restarts per round
	accuracyProbes = 4
)

// domainSize returns |T| of the workload's ordered domain: Adult
// capital-loss.
func (w *workload) domainSize() int { return datagen.AdultCapitalLossDomain }

// datasets is the number of datasets the workload creates.
func (w *workload) datasets() int {
	if w.liveSplit {
		return w.releaseDatasets + 1
	}
	return w.releaseDatasets
}

// ingestDatasets lists the datasets that receive events and carry streams.
func (w *workload) ingestDatasets() []int {
	if w.liveSplit {
		return []int{w.releaseDatasets}
	}
	out := make([]int, w.releaseDatasets)
	for i := range out {
		out[i] = i
	}
	return out
}

// roundSeconds is the length of one round. An untraced run repeats the
// open loop and both closed-loop slices once per round, so each metric
// samples the shared host at several points of the run rather than in one
// stretch of it.
const roundSeconds = 8

// rounds is the number of rounds in a run of seconds.
func rounds(seconds int) int { return max(1, seconds/roundSeconds) }

// phases splits the measured seconds: the open-loop phase, then the
// closed-loop release and ingest phases.
func (w *workload) phases(seconds int) (open, closedRelease, closedIngest time.Duration) {
	total := time.Duration(seconds) * time.Second
	open = time.Duration(float64(total) * w.openShare)
	closedRelease = (total - open) / 2
	closedIngest = total - open - closedRelease
	return open, closedRelease, closedIngest
}

// generate draws the workload's initial rows, one slice of cells per
// dataset, from the seed.
func (w *workload) generate(seed uint64) ([][]int, error) {
	out := make([][]int, w.datasets())
	for d := range out {
		ds, err := datagen.AdultCapitalLoss(datagen.AdultN, noise.NewSource(int64(seed*1_000_003+uint64(d))))
		if err != nil {
			return nil, err
		}
		for _, p := range ds.Points() {
			out[d] = append(out[d], int(p))
		}
	}
	return out, nil
}
