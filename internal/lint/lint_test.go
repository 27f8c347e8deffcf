package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The corpora under testdata/ are type-checked under fake import
// paths so the path-sensitive analyzers see them as the package kind
// they target. Each corpus mixes positive findings (`// want`),
// justified suppressions (clean), bare suppressions (reported), and
// clean control cases.

func TestMapIter(t *testing.T) {
	linttest.Run(t, lint.MapIter, "testdata/mapiter/critical", "example.com/sim/internal/sm")
}

// TestMapIterNonCritical checks the same construct is ignored outside
// determinism-critical packages.
func TestMapIterNonCritical(t *testing.T) {
	linttest.Run(t, lint.MapIter, "testdata/mapiter/clean", "example.com/sim/internal/cli")
}

func TestWallTime(t *testing.T) {
	linttest.Run(t, lint.WallTime, "testdata/walltime/core", "example.com/sim/internal/device")
}

func TestGoGuard(t *testing.T) {
	linttest.Run(t, lint.GoGuard, "testdata/goguard/device", "example.com/sim/internal/device")
}

// TestGoGuardNonDevice checks raw go statements are ignored outside
// the device layer.
func TestGoGuardNonDevice(t *testing.T) {
	linttest.Run(t, lint.GoGuard, "testdata/goguard/clean", "example.com/sim/internal/cli")
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, lint.HotAlloc, "testdata/hotalloc/hot", "example.com/sim/hot")
}
