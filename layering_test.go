package dana_test

import (
	"os"
	"os/exec"
	"path/filepath"
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

// TestReferenceExecutorStaysOutOfProduction: the engine's macro
// interpreter (internal/engine/reference.go) is the oracle its lowered
// plan is diffed against; only tests and internal/verify may call it.
func TestReferenceExecutorStaysOutOfProduction(t *testing.T) {
	for _, dir := range []string{"internal/backend", "internal/runtime", "internal/server", "cmd/*"} {
		files, err := filepath.Glob(dir + "/*.go")
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s (%v)", dir, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"RunBatchReference", "ConvergedReference", "TrainReference"} {
				if !strings.HasSuffix(f, "_test.go") && strings.Contains(string(src), name) {
					t.Errorf("%s names the reference executor (%s)", f, name)
				}
			}
		}
	}
}
