package experiments

import (
	"os"
	"path/filepath"
	hostrt "runtime"
	"strings"
	"testing"
)

// TestTenantExperimentSmoke runs the CI-sized tenants experiment
// end-to-end at GOMAXPROCS 1 and 2: it must complete cleanly, show
// sequence-aware beating always-reconfigure on modeled makespan, and
// print testdata/tenants.txt, which is what danabench -exp tenants
// prints below its header (`go run ./cmd/danabench -exp tenants | tail
// -n +3` rewrites it).
func TestTenantExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in -short mode")
	}
	path := filepath.Join("testdata", "tenants.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		prev := hostrt.GOMAXPROCS(procs)
		var b strings.Builder
		speedup, err := TenantExperiment(&b)
		hostrt.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if speedup <= 1 {
			t.Fatalf("GOMAXPROCS %d: speedup %.3fx", procs, speedup)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("GOMAXPROCS %d: output differs from %s:\ngot:\n%s\nwant:\n%s", procs, path, got, want)
		}
	}
}
