package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	hostrt "runtime"
	"strings"
	"testing"

	"dana/internal/cost"
	"dana/internal/datagen"
	"dana/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestExpAllGolden: `danabench -exp all` prints testdata/exp_all.txt byte
// for byte at GOMAXPROCS 1 and 2, with nothing on its error stream, and
// the modeled seconds its tables are printed from read
// testdata/model_seconds.txt to the last bit. The files move only with a
// stated model change, which rewrites them with
// `go test ./cmd/danabench -run Golden -args -update`.
func TestExpAllGolden(t *testing.T) {
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(0))
	var outs, exact [2]string
	for i, procs := range []int{1, 2} {
		hostrt.GOMAXPROCS(procs)
		var b, e bytes.Buffer
		if err := runExperiments(&b, &e, "all"); err != nil || e.Len() > 0 {
			t.Fatalf("GOMAXPROCS %d: %v\n%s", procs, err, e.String())
		}
		outs[i], exact[i] = b.String(), modelSeconds(t)
	}
	if outs[0] != outs[1] || exact[0] != exact[1] {
		t.Fatalf("output depends on GOMAXPROCS:\n1:\n%s%s\n2:\n%s%s", outs[0], exact[0], outs[1], exact[1])
	}
	checkGolden(t, "exp_all.txt", outs[0])
	checkGolden(t, "model_seconds.txt", exact[0])
}

// modelSeconds renders every system's modeled breakdown of every workload,
// warm and cold — what Table 5 and Figures 8–11 and 15–16 are printed
// from — by %v, the shortest decimal that reads back to the same float64.
// -exp all rounds them to a few digits, so a change of one ulp to a cost
// constant (Cost.SetupSec, say) shows here and not there.
func modelSeconds(t *testing.T) string {
	env := experiments.DefaultEnv()
	var b strings.Builder
	for _, w := range datagen.Workloads {
		for _, warm := range []bool{true, false} {
			st, err := experiments.Model(w, env, warm)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			for _, s := range []struct {
				name string
				b    cost.Breakdown
			}{{"pg", st.PG}, {"gp", st.GP}, {"dana", st.DAnA}, {"dana-no-strider", st.DAnANoStrider}, {"tabla", st.TABLA}} {
				fmt.Fprintf(&b, "%s warm=%v %s %+v\n", w.Name, warm, s.name, s.b)
			}
		}
	}
	return b.String()
}

// checkGolden diffs got against testdata/file, which -update rewrites.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (-update rewrites it):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
