package dana_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestLayerOrder pins the dependency direction: production packages
// never (transitively) import a harness package. `go list -deps` is the
// whole mechanism — re-importing experiments from server, or verify
// from backend, fails here.
func TestLayerOrder(t *testing.T) {
	production := []string{"runtime", "backend", "server", "greenplum", "cost", "engine", "accessengine", "storage", "bufpool"}
	harness := []string{"dana/internal/experiments", "dana/internal/verify", "dana/internal/lint"}
	for _, pkg := range production {
		out, err := exec.Command("go", "list", "-deps", "./internal/"+pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps ./internal/%s: %v", pkg, err)
		}
		deps := strings.Fields(string(out))
		for _, h := range harness {
			for _, d := range deps {
				if d == h {
					t.Errorf("production package internal/%s depends on harness package %s", pkg, h)
				}
			}
		}
	}
}
