package truthflow_test

import (
	"testing"

	"blowfish/internal/analysis/analysistest"
	"blowfish/internal/analysis/truthflow"
)

func TestTruthFlow(t *testing.T) {
	diags := analysistest.Run(t, "testdata", truthflow.Default,
		"internal/engine", "internal/service", "internal/server")
	if len(diags) != 6 {
		t.Errorf("want 6 unsuppressed findings, got %d: %v", len(diags), diags)
	}
	analysistest.MustFind(t, diags, `wire field HistogramResponse\.Counts`)
	analysistest.MustFind(t, diags, `log argument \(slog\.Info\)`)
	analysistest.MustFind(t, diags, `release sink inside Core\.journal`)
	analysistest.MustFind(t, diags, `wire field ReleasePayload\.Counts`)
	analysistest.MustFind(t, diags, `release body \(server\.appendFloats\)`)
}
