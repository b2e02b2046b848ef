// Package server is the third hop of the fact-propagation chain: taint
// born in engine crosses relay and an in-package helper before landing
// in this package's wire struct.
package server

import (
	"blowfish/internal/analysis/truthflow/testdata/src/internal/engine"
	"blowfish/internal/analysis/truthflow/testdata/src/internal/mechanism"
	"blowfish/internal/analysis/truthflow/testdata/src/internal/relay"
)

// ReleasePayload is the HTTP wire struct.
type ReleasePayload struct {
	Counts []float64
}

// HandleLeak forwards relay's raw counts to the wire through forward:
// the taint arrives purely via truthflow.returns/passthru facts.
func HandleLeak(ix *engine.DatasetIndex) ReleasePayload {
	counts := forward(relay.Fetch(ix))
	return ReleasePayload{Counts: counts} // want `unnoised truth`
}

// HandleGood forwards the sanitized release: accepted.
func HandleGood(ix *engine.DatasetIndex, m *mechanism.Laplace) ReleasePayload {
	counts := forward(relay.Noised(ix, m))
	return ReleasePayload{Counts: counts}
}

// HandleBodyLeak appends the raw histogram straight into a response
// body, the byte path that bypasses every wire struct: flagged at the
// appender.
func HandleBodyLeak(ix *engine.DatasetIndex) []byte {
	b, _ := appendFloats(nil, ix.Histogram()) // want `release body`
	return b
}

// HandleBodyGood appends the sanitized release: accepted.
func HandleBodyGood(ix *engine.DatasetIndex, m *mechanism.Laplace) []byte {
	b, _ := appendFloats(nil, engine.GoodRelease(ix, m))
	return b
}

// appendFloats stands in for the release-body float appender.
func appendFloats(dst []byte, vs []float64) ([]byte, error) {
	for range vs {
		dst = append(dst, '0')
	}
	return dst, nil
}

// forward is the intermediate helper the taint crosses.
func forward(v []float64) []float64 { return v }
