package main

import (
	"testing"
	"time"
)

func ramp(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want time.Duration
		ok   bool
	}{
		{1000, 0.99, 990 * time.Millisecond, true}, // exactly 10 samples beyond
		{999, 0.99, 0, false},                      // 9 beyond
		{2000, 0.99, 1980 * time.Millisecond, true},
		{21, 0.5, 11 * time.Millisecond, true},
		{20, 0.5, 10 * time.Millisecond, true},
		{19, 0.5, 0, false}, // median rank 10 leaves 9 beyond
		{0, 0.5, 0, false},
	} {
		got, err := percentile(ramp(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("n=%d q=%g: err=%v, want ok=%v", tc.n, tc.q, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("n=%d q=%g: got %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestFailedSamplesMissEveryLimit(t *testing.T) {
	s := ramp(1000)
	for i := 0; i < 11; i++ {
		s[i] = failed
	}
	got, err := percentile(sortDurations(s), 0.99)
	if err != nil || got != failed {
		t.Fatalf("p99 with 11 failures = %v, %v; want the failure marker", got, err)
	}
}

func TestRecorderMerge(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	a.lat[clRange] = []time.Duration{1, 2}
	a.attempted[clRange], a.failed[clRange] = 2, 1
	a.late = []time.Duration{5}
	a.queueFull, a.respBytes = 1, 10
	b.lat[clRange] = []time.Duration{3}
	b.lat[clEpoch] = []time.Duration{4}
	b.attempted[clRange], b.attempted[clEpoch] = 1, 1
	b.late = []time.Duration{6, 7}
	b.queueFull, b.respBytes = 2, 20
	m := mergeAll([]*recorder{a, b})
	if len(m.lat[clRange]) != 3 || len(m.lat[clEpoch]) != 1 || len(m.late) != 3 {
		t.Fatalf("merged samples: range %d epoch %d late %d", len(m.lat[clRange]), len(m.lat[clEpoch]), len(m.late))
	}
	if att, f := m.totals(); att != 4 || f != 1 || m.completed() != 3 {
		t.Fatalf("totals = %d attempted %d failed %d completed", att, f, m.completed())
	}
	if m.queueFull != 3 || m.respBytes != 30 {
		t.Fatalf("counters = %d %d", m.queueFull, m.respBytes)
	}
	if got := len(m.releases()); got != 3 {
		t.Fatalf("releases() pooled %d samples, want 3", got)
	}
	// Merging must not alias the inputs' samples into each other.
	if len(a.lat[clRange]) != 2 || len(b.lat[clRange]) != 1 {
		t.Fatal("merge modified an input recorder")
	}
}

// fakeClock advances only when the worker sleeps or an op runs.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (f *fakeClock) Now() time.Time         { return f.now }
func (f *fakeClock) SleepUntil(t time.Time) { f.now = t.Add(f.oversleep) }

func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, oversleep: 100 * time.Microsecond}
	ms := time.Millisecond
	// Op 0 stalls for 5ms; ops 1 and 2 are due during the stall, op 3
	// after it has cleared.
	ops := []op{{due: 1 * ms}, {due: 2 * ms}, {due: 3 * ms}, {due: 20 * ms}}
	cost := []time.Duration{5 * ms, 1 * ms, 1 * ms, 1 * ms}
	okAt := []bool{true, true, false, true}
	i := 0
	rec := &recorder{}
	runWorker(clk, start, ops, rec, func(o *op) (time.Time, bool) {
		sent := clk.Now()
		clk.now = clk.now.Add(cost[i])
		ok := okAt[i]
		i++
		return sent, ok
	})
	us := time.Microsecond
	// Op 0: idle at due, sent 100us late; latency from the send.
	// Op 1: due at 2ms, sent at 6.1ms behind the stall; latency from due.
	// Op 2: failed, recorded as the failure marker.
	// Op 3: idle again; latency from the send, lateness is the oversleep.
	wantLat := []time.Duration{5 * ms, 5*ms + 100*us, failed, 1 * ms}
	wantLate := []time.Duration{100 * us, 4*ms + 100*us, 4*ms + 100*us, 100 * us}
	got := rec.lat[0]
	if len(got) != 4 {
		t.Fatalf("recorded %d latencies", len(got))
	}
	for k := range wantLat {
		if got[k] != wantLat[k] || rec.late[k] != wantLate[k] {
			t.Errorf("op %d: latency %v late %v, want %v and %v", k, got[k], rec.late[k], wantLat[k], wantLate[k])
		}
	}
	if rec.attempted[0] != 4 || rec.failed[0] != 1 {
		t.Errorf("attempted %d failed %d", rec.attempted[0], rec.failed[0])
	}
}

func TestAccount(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	// Worker free before the due time: latency counts from the send.
	if lat, late := account(at(100), at(50), at(160), at(400)); lat != 240*time.Microsecond || late != 60*time.Microsecond {
		t.Errorf("idle worker: lat %v late %v", lat, late)
	}
	// Worker still busy at the due time: the wait counts.
	if lat, late := account(at(100), at(300), at(300), at(400)); lat != 300*time.Microsecond || late != 200*time.Microsecond {
		t.Errorf("stalled worker: lat %v late %v", lat, late)
	}
}

func TestSplitmixDeterministic(t *testing.T) {
	a, b := &splitmix{s: 42}, &splitmix{s: 42}
	for i := 0; i < 100; i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatal("same seed diverged")
		}
	}
	r := &splitmix{s: 7}
	for i := 0; i < 10000; i++ {
		if v := r.intn(13); v < 0 || v >= 13 {
			t.Fatalf("intn out of range: %d", v)
		}
		if f := r.float(); f < 0 || f >= 1 {
			t.Fatalf("float out of range: %g", f)
		}
	}
}

func TestDeckKeepsExactMix(t *testing.T) {
	w := workloads["adhoc-adult"]
	for _, seed := range []uint64{1, 2, 3} {
		var counts [clRead + 1]int
		for _, c := range w.deck(&splitmix{s: seed}, 1000) {
			counts[c]++
		}
		if counts != [clRead + 1]int{500, 300, 100, 100} {
			t.Errorf("seed %d: deck counts %v", seed, counts)
		}
	}
}

func TestTailTakesHighestPercentileTheSampleSupports(t *testing.T) {
	for _, tc := range []struct {
		n int
		q float64
	}{{20000, 0.999}, {1000, 0.99}, {999, 0.98}, {450, 0.95}, {100, 0.9}} {
		q, v, err := tail(ramp(tc.n))
		if err != nil || q != tc.q {
			t.Errorf("n=%d: tail at %g (%v), want %g", tc.n, q, err, tc.q)
			continue
		}
		if want, _ := percentile(ramp(tc.n), tc.q); v != want {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, want)
		}
	}
	if _, _, err := tail(ramp(99)); err == nil {
		t.Error("99 samples gave a tail percentile")
	}
}
