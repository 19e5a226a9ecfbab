package leasepair_test

import (
	"testing"

	"pathsep/internal/analyzers/analyzertest"
	"pathsep/internal/analyzers/leasepair"
)

// TestLeasePair runs the lease shapes (package a, which also holds a
// lease and pool buffers at once).
func TestLeasePair(t *testing.T) {
	analyzertest.Run(t, "testdata", leasepair.Analyzer, "a")
}

// TestPoolLeak runs the sync.Pool shapes (package pool): leaks, use
// after Put, cross-pool Put and foreign backing arrays.
func TestPoolLeak(t *testing.T) {
	analyzertest.Run(t, "testdata", leasepair.Analyzer, "pool")
}
