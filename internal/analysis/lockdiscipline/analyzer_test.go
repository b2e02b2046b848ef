package lockdiscipline_test

import (
	"testing"

	"blowfish/internal/analysis/analysistest"
	"blowfish/internal/analysis/lockdiscipline"
)

func TestLockDiscipline(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lockdiscipline.Default, "blowfish")
	if len(diags) != 6 {
		t.Errorf("want 6 unsuppressed findings, got %d: %v", len(diags), diags)
	}
	analysistest.MustFind(t, diags, `lock order inversion`)
	analysistest.MustFind(t, diags, `no later matching unlock`)
	analysistest.MustFind(t, diags, `locked while already held`)
	analysistest.MustFind(t, diags, `passes a mutex by value`)
	analysistest.MustFind(t, diags, `called while .* is held`)
}
