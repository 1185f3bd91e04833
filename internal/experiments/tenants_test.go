package experiments

import (
	"io"
	"testing"
)

// TestTenantExperimentSmoke runs the CI-sized tenants experiment once: it
// must complete cleanly with sequence-aware beating always-reconfigure on
// modeled makespan. Its output is pinned, at GOMAXPROCS 1 and 2, by
// cmd/danabench's TestExpAllGolden (the tenants block of exp_all.txt).
func TestTenantExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in -short mode")
	}
	speedup, err := TenantExperiment(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if speedup <= 1 {
		t.Fatalf("speedup %.3fx", speedup)
	}
}
