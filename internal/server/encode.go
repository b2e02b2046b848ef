package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// Every response body is built in a pooled buffer and written with one
// Write, an exact Content-Length, and the status sent only once the body
// is complete — so an encode failure becomes a structured 500 instead of
// a 200 with an empty body.
//
// The five release responses (histogram, cumulative, range, an epoch
// release and a page of them) skip encoding/json: they are thousands of
// noisy floats, and reflection plus strconv's byte-at-a-time formatting
// was most of their serving time. They are appended field by field, with
// the float kernel in jsonfloat.go, to exactly the bytes
// json.NewEncoder(w).Encode produced for them: same field order, null
// for a nil slice, the omitempty fields of EpochReleaseWire, and the
// trailing newline. encode_test.go checks that byte identity against
// encoding/json. Every other body still goes through encoding/json.

// bodyBuf is a pooled response buffer. It is the io.Writer encoding/json
// writes into, and the append target of the release encoders, which
// record the first encode error in err and stop writing floats after it.
type bodyBuf struct {
	b   []byte
	err error
}

func (e *bodyBuf) Write(p []byte) (int, error) {
	e.b = append(e.b, p...)
	return len(p), nil
}

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// maxPooledBody caps the buffers kept for reuse, so one outsized
// response does not pin its memory in the pool.
const maxPooledBody = 1 << 20

func getBody() *bodyBuf { return bodyPool.Get().(*bodyBuf) }

func putBody(e *bodyBuf) {
	if cap(e.b) > maxPooledBody {
		return
	}
	e.b, e.err = e.b[:0], nil
	bodyPool.Put(e)
}

// writeBody sends a complete JSON body with its status.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// writeJSON encodes v with encoding/json and sends it with status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	e := getBody()
	defer putBody(e)
	if err := json.NewEncoder(e).Encode(v); err != nil {
		writeEncodeError(w, e, err)
		return
	}
	writeBody(w, status, e.b)
}

// writeRelease sends a release response built by its encoder.
func writeRelease[T any](w http.ResponseWriter, resp T, encode func(*bodyBuf, T)) {
	e := getBody()
	defer putBody(e)
	encode(e, resp)
	if e.err != nil {
		writeEncodeError(w, e, e.err)
		return
	}
	e.raw("\n") // json.Encoder ends every value with a newline
	writeBody(w, http.StatusOK, e.b)
}

// writeEncodeError replaces a half-built body in e with a structured 500.
func writeEncodeError(w http.ResponseWriter, e *bodyBuf, err error) {
	e.b = e.b[:0]
	// An envelope of two strings always encodes.
	_ = json.NewEncoder(e).Encode(errorEnvelope{Error: APIError{
		Code: CodeInternal, Message: "encoding response: " + err.Error(),
	}})
	writeBody(w, httpStatus(CodeInternal), e.b)
}

func (e *bodyBuf) raw(s string) { e.b = append(e.b, s...) }

func (e *bodyBuf) float(f float64) {
	if e.err == nil {
		e.b, e.err = appendFloat(e.b, f)
	}
}

func (e *bodyBuf) floats(vs []float64) {
	if e.err == nil {
		e.b, e.err = appendFloats(e.b, vs)
	}
}

func (e *bodyBuf) uint(u uint64) { e.b = strconv.AppendUint(e.b, u, 10) }

func (e *bodyBuf) int(i int) { e.b = strconv.AppendInt(e.b, int64(i), 10) }

// omitFloats writes `,"name":[...]` unless vs is empty (omitempty).
func (e *bodyBuf) omitFloats(field string, vs []float64) {
	if len(vs) > 0 {
		e.raw(field)
		e.floats(vs)
	}
}

func encodeHistogram(e *bodyBuf, r HistogramResponse) {
	e.raw(`{"counts":`)
	e.floats(r.Counts)
	e.raw(`,"remaining":`)
	e.float(r.Remaining)
	e.raw("}")
}

func encodeCumulative(e *bodyBuf, r CumulativeResponse) {
	e.raw(`{"raw":`)
	e.floats(r.Raw)
	e.raw(`,"inferred":`)
	e.floats(r.Inferred)
	e.raw(`,"remaining":`)
	e.float(r.Remaining)
	e.raw("}")
}

func encodeRange(e *bodyBuf, r RangeResponse) {
	e.raw(`{"answers":`)
	e.floats(r.Answers)
	e.raw(`,"remaining":`)
	e.float(r.Remaining)
	e.raw("}")
}

func encodeEpochRelease(e *bodyBuf, r EpochReleaseWire) {
	e.raw(`{"seq":`)
	e.uint(r.Seq)
	e.raw(`,"epoch":`)
	e.int(r.Epoch)
	e.raw(`,"events":`)
	e.uint(r.Events)
	e.raw(`,"rows":`)
	e.int(r.Rows)
	e.raw(`,"epsilon":`)
	e.float(r.Epsilon)
	e.raw(`,"remaining":`)
	e.float(r.Remaining)
	e.omitFloats(`,"histogram":`, r.Histogram)
	e.omitFloats(`,"cumulative_raw":`, r.CumulativeRaw)
	e.omitFloats(`,"cumulative_inferred":`, r.CumulativeInferred)
	e.omitFloats(`,"range_answers":`, r.RangeAnswers)
	e.raw("}")
}

func encodeStreamReleases(e *bodyBuf, r StreamReleasesResponse) {
	e.raw(`{"releases":`)
	if r.Releases == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i, rel := range r.Releases {
			if i > 0 {
				e.raw(",")
			}
			encodeEpochRelease(e, rel)
		}
		e.raw("]")
	}
	e.raw(`,"next_since":`)
	e.uint(r.NextSince)
	e.raw("}")
}
