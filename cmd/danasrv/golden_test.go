package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	hostrt "runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/compare.txt from this run")

// TestCompareGolden: `danasrv -compare` prints testdata/compare.txt byte
// for byte at GOMAXPROCS 1 and 2. The file pins the seeded load's
// placements and every modeled number in the report: it moves only with a
// stated model change, which rewrites it with
// `go test ./cmd/danasrv -run Golden -args -update`.
func TestCompareGolden(t *testing.T) {
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(0))
	var outs [2]string
	for i, procs := range []int{1, 2} {
		hostrt.GOMAXPROCS(procs)
		var b bytes.Buffer
		if err := run(&b, parseFlags([]string{"-compare"})); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		outs[i] = b.String()
	}
	if outs[0] != outs[1] {
		t.Fatalf("output depends on GOMAXPROCS:\n1:\n%s\n2:\n%s", outs[0], outs[1])
	}
	path := filepath.Join("testdata", "compare.txt")
	if *update {
		if err := os.WriteFile(path, []byte(outs[0]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] != string(want) {
		t.Errorf("output differs from %s (-update rewrites it):\ngot:\n%s\nwant:\n%s", path, outs[0], want)
	}
}
