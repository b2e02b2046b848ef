package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// edgeFloats are the values where encoding/json's float output changes
// shape: signed zeros, subnormals, the 'f'/'e' switch at 1e-6 and 1e21
// and their neighbours, the one- to three-digit exponents, the end of
// exact integers and the extremes.
func edgeFloats() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.2, 0.3, -2.5, 100, 1234.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0010000000000000), // smallest normal
		1e-7, 1e-9, 1e-10, 1e-99, 1e-100, 1e-300,
		1 << 53, 1<<53 + 2, -(1 << 53), 1 << 63, 1e15, 1e16, 1e17,
		1e20, 1e22, 1e100, 1e300,
		math.MaxFloat64, -math.MaxFloat64,
		123456.789, 98765432109876543, 0.000123456789,
	}
	for _, f := range []float64{1e-6, 1e21} {
		vs = append(vs, f, -f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1)))
	}
	return vs
}

// noisyFloats mimics a noisy release: integer counts plus Laplace-like
// noise, the common case on the wire.
func noisyFloats(n int, seed uint64) []float64 {
	r := rand.New(rand.NewPCG(seed, 1))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(r.IntN(100)) + r.ExpFloat64()*20*float64(1-2*r.IntN(2))
	}
	return vs
}

func jsonOracle(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// checkRelease sends v through writeRelease and requires the exact bytes
// json.NewEncoder(w).Encode(v) writes, with a matching Content-Length.
func checkRelease[T any](t *testing.T, v T, encode func(*bodyBuf, T)) {
	t.Helper()
	want := jsonOracle(t, v)
	w := httptest.NewRecorder()
	writeRelease(w, v, encode)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("body differs from encoding/json\n got: %.300s\nwant: %.300s", got, want)
	}
	if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length %q, body is %d bytes", cl, len(want))
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
}

func TestReleaseEncodersMatchEncodingJSON(t *testing.T) {
	edge, noisy := edgeFloats(), noisyFloats(500, 1)
	vectors := map[string][]float64{
		"nil": nil, "empty": {}, "one": {42}, "edge": edge, "noisy": noisy,
	}
	for name, vs := range vectors {
		t.Run("histogram/"+name, func(t *testing.T) {
			checkRelease(t, HistogramResponse{Counts: vs, Remaining: 0.25}, encodeHistogram)
		})
		t.Run("range/"+name, func(t *testing.T) {
			checkRelease(t, RangeResponse{Answers: vs, Remaining: 1e-7}, encodeRange)
		})
		t.Run("cumulative/"+name, func(t *testing.T) {
			checkRelease(t, CumulativeResponse{Raw: vs, Inferred: noisy, Remaining: 3}, encodeCumulative)
			checkRelease(t, CumulativeResponse{Raw: noisy, Inferred: vs}, encodeCumulative)
		})
	}
	t.Run("remaining", func(t *testing.T) {
		for _, f := range edge {
			checkRelease(t, HistogramResponse{Counts: []float64{f}, Remaining: f}, encodeHistogram)
		}
	})
	// Every omitempty combination of the four vectors, each absent one
	// both nil and empty.
	var rels []EpochReleaseWire
	for mask := range 16 {
		for _, absent := range [][]float64{nil, {}} {
			pick := func(bit int, vs []float64) []float64 {
				if mask&(1<<bit) != 0 {
					return vs
				}
				return absent
			}
			rels = append(rels, EpochReleaseWire{
				Seq: uint64(mask) + 1, Epoch: mask, Events: math.MaxUint64, Rows: -1,
				Epsilon: 0.1, Remaining: edge[mask%len(edge)],
				Histogram:          pick(0, noisy[:7]),
				CumulativeRaw:      pick(1, edge),
				CumulativeInferred: pick(2, noisy[7:9]),
				RangeAnswers:       pick(3, []float64{-0.5}),
			})
		}
	}
	t.Run("epoch", func(t *testing.T) {
		for _, rel := range rels {
			checkRelease(t, rel, encodeEpochRelease)
		}
	})
	t.Run("stream", func(t *testing.T) {
		checkRelease(t, StreamReleasesResponse{NextSince: 9}, encodeStreamReleases)
		checkRelease(t, StreamReleasesResponse{Releases: []EpochReleaseWire{}, NextSince: 9}, encodeStreamReleases)
		checkRelease(t, StreamReleasesResponse{Releases: rels[:1]}, encodeStreamReleases)
		checkRelease(t, StreamReleasesResponse{Releases: rels, NextSince: math.MaxUint64}, encodeStreamReleases)
	})
}

// checkFloat requires appendFloat to write json.Marshal's bytes for f, or
// fail with its error text.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, werr := json.Marshal(f)
	got, gerr := appendFloat([]byte("x"), f)
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%v (bits %#x): error %v, encoding/json %v", f, math.Float64bits(f), gerr, werr)
		}
	case !bytes.Equal(got[1:], want) || got[0] != 'x':
		t.Fatalf("%v (bits %#x): got %s, encoding/json %s", f, math.Float64bits(f), got, want)
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range edgeFloats() {
		checkFloat(t, f)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkFloat(t, f)
	}
	// Every power of two and of ten with both neighbours: the exponent
	// borders where computeBounds narrows the lower gap, and the values
	// whose digits trim to one.
	for e := -1074; e <= 1023; e++ {
		f := math.Ldexp(1, e)
		checkFloat(t, f)
		checkFloat(t, math.Nextafter(f, 0))
		checkFloat(t, math.Nextafter(f, math.Inf(1)))
	}
	for e := -323; e <= 308; e++ {
		f, err := strconv.ParseFloat(fmt.Sprintf("1e%d", e), 64)
		if err != nil {
			t.Fatal(err)
		}
		checkFloat(t, f)
		checkFloat(t, math.Nextafter(f, 0))
		checkFloat(t, math.Nextafter(f, math.Inf(1)))
	}
	r := rand.New(rand.NewPCG(7, 7))
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for i := range n {
		var f float64
		switch i % 4 {
		case 0: // any bit pattern
			f = math.Float64frombits(r.Uint64())
		case 1: // count plus noise
			f = float64(r.IntN(5000)) + r.NormFloat64()*10
		case 2: // short decimals
			f = float64(r.IntN(1_000_000)) / 1000
		case 3: // integers across the exact range and beyond
			f = float64(r.Int64N(1<<62)) * math.Pow(10, float64(r.IntN(30)-15))
		}
		checkFloat(t, f)
	}
}

func FuzzAppendFloatJSON(f *testing.F) {
	for _, v := range edgeFloats() {
		f.Add(math.Float64bits(v))
	}
	f.Add(math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFloat(t, math.Float64frombits(bits))
	})
}

func TestAppendFloatsNullAndEmpty(t *testing.T) {
	for _, tc := range []struct {
		vs   []float64
		want string
	}{{nil, "null"}, {[]float64{}, "[]"}, {[]float64{1, -0.5}, "[1,-0.5]"}} {
		got, err := appendFloats(nil, tc.vs)
		if err != nil || string(got) != tc.want {
			t.Errorf("appendFloats(%#v) = %q, %v; want %q", tc.vs, got, err, tc.want)
		}
	}
}

// TestPow10TableMatchesStrconv spot-checks the computed table against
// the constants strconv lists, and requires every mantissa to be
// normalised.
func TestPow10TableMatchesStrconv(t *testing.T) {
	for q, want := range map[int][2]uint64{
		-348: {0x1732c869cd60e453, 0xfa8fd5a0081c0288},
		-1:   {0xcccccccccccccccc, 0xcccccccccccccccc},
		0:    {0, 0x8000000000000000},
		1:    {0, 0xa000000000000000},
		43:   {0x6d9ccd05d0000000, 0xe596b7b0c643c719},
		347:  {0x4b7195f2d2d1a9fb, 0xd13eb46469447567},
	} {
		if got := pow10Table[q-pow10MinExp10]; got != want {
			t.Errorf("10^%d: got {%#x, %#x}, want {%#x, %#x}", q, got[0], got[1], want[0], want[1])
		}
	}
	for i, p := range pow10Table {
		if p[1]>>63 != 1 {
			t.Fatalf("10^%d is not normalised: {%#x, %#x}", i+pow10MinExp10, p[0], p[1])
		}
	}
}

// TestEncodeErrorIsStructured500 feeds a NaN through both the generic and
// the release path: neither may send a success status before the body is
// known to encode.
func TestEncodeErrorIsStructured500(t *testing.T) {
	check := func(t *testing.T, w *httptest.ResponseRecorder) {
		t.Helper()
		wantError(t, w, http.StatusInternalServerError, CodeInternal)
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
			t.Fatalf("Content-Length %q, body is %d bytes", cl, w.Body.Len())
		}
	}
	t.Run("writeJSON", func(t *testing.T) {
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusCreated, map[string]float64{"x": math.NaN()})
		check(t, w)
	})
	t.Run("release", func(t *testing.T) {
		w := httptest.NewRecorder()
		writeRelease(w, HistogramResponse{Counts: []float64{1, math.Inf(-1)}}, encodeHistogram)
		check(t, w)
	})
}
