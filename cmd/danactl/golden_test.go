package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	hostrt "runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata from this run")

// wallClockLines are the labels of the stats lines that report host
// time; a golden strips them.
var wallClockLines = []string{"host time", "worker busy"}

// withoutWallClock drops the lines of out that report host time.
func withoutWallClock(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		label := strings.TrimSpace(line)
		wall := false
		for _, name := range wallClockLines {
			wall = wall || strings.HasPrefix(label, name)
		}
		if !wall {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestStatsGolden: `danactl stats`, with and without -precision 8,
// prints its testdata file byte for byte at GOMAXPROCS 1 and 2 once the
// wall-clock lines are stripped. The files pin every modeled counter and
// price the breakdown shows: they move only with a stated model change,
// which rewrites them with `go test ./cmd/danactl -run Golden -args -update`.
func TestStatsGolden(t *testing.T) {
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(0))
	for file, args := range map[string][]string{
		"stats.txt":            nil,
		"stats_precision8.txt": {"-precision", "8"},
	} {
		var outs [2]string
		for i, procs := range []int{1, 2} {
			hostrt.GOMAXPROCS(procs)
			var b bytes.Buffer
			if err := run(&b, "stats", args); err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", file, procs, err)
			}
			outs[i] = withoutWallClock(b.String())
		}
		if outs[0] != outs[1] {
			t.Fatalf("%s: output depends on GOMAXPROCS:\n1:\n%s\n2:\n%s", file, outs[0], outs[1])
		}
		path := filepath.Join("testdata", file)
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
}
