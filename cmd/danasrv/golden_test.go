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

// diffGolden runs danasrv with args, and stdin as its standard input, at
// GOMAXPROCS 1 and 2 and holds both outputs to testdata/<file> byte for
// byte; -update rewrites the file.
func diffGolden(t *testing.T, file, stdin string, args ...string) {
	t.Helper()
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(0))
	var outs [2]string
	for i, procs := range []int{1, 2} {
		hostrt.GOMAXPROCS(procs)
		var b bytes.Buffer
		if err := run(&b, strings.NewReader(stdin), parseFlags(args)); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		outs[i] = b.String()
	}
	if outs[0] != outs[1] {
		t.Fatalf("output depends on GOMAXPROCS:\n1:\n%s\n2:\n%s", outs[0], outs[1])
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

// TestCompareGolden: `danasrv -compare` prints testdata/compare.txt byte
// for byte at GOMAXPROCS 1 and 2. The file pins the seeded load's
// placements and every modeled number in the report: it moves only with a
// stated model change, which rewrites it with
// `go test ./cmd/danasrv -run Golden -args -update`.
func TestCompareGolden(t *testing.T) {
	diffGolden(t, "compare.txt", "", "-compare")
}

// TestFaultyGolden: `danasrv -faulty tenant0` — the same load with
// tenant0 under a persistent Strider trap storm — prints
// testdata/faulty_tenant0.txt, so its degraded jobs and every other
// tenant's undisturbed numbers are pinned the same way.
func TestFaultyGolden(t *testing.T) {
	diffGolden(t, "faulty_tenant0.txt", "", "-faulty", "tenant0")
}

// TestStdinGolden: `danasrv -stdin` reading a train, a score, a run and a
// quit prints testdata/stdin.txt, so the line protocol's parsing, its
// batching until "run" and the drain's report are pinned the same way.
func TestStdinGolden(t *testing.T) {
	diffGolden(t, "stdin.txt", "train tenant0 Remote Sensing LR\nscore tenant1 WLAN 0.001\nrun\nquit\n", "-stdin")
}

// TestStdinRefusalsFail: a -stdin script whose every job is refused — an
// unknown tenant, an unknown workload — drains nothing, and danasrv must
// exit non-zero for it.
func TestStdinRefusalsFail(t *testing.T) {
	script := "train nobody WLAN\ntrain tenant0 NoSuchWorkload\nrun\nquit\n"
	var b bytes.Buffer
	err := run(&b, strings.NewReader(script), parseFlags([]string{"-stdin"}))
	if err == nil || !strings.Contains(err.Error(), "2 refused") {
		t.Fatalf("a script of two refused jobs returned %v, want an error counting both", err)
	}
	if b.String() != "nothing pending\n" {
		t.Fatalf("output %q, want the empty drain's %q", b.String(), "nothing pending\n")
	}
}

// TestStdinMalformedLinesFail: a train with too few fields and an unknown
// command queue nothing, and danasrv must exit non-zero for each.
func TestStdinMalformedLinesFail(t *testing.T) {
	script := "train tenant0\nsubmit tenant0 WLAN\nquit\n"
	var b bytes.Buffer
	err := run(&b, strings.NewReader(script), parseFlags([]string{"-stdin"}))
	if err == nil || !strings.Contains(err.Error(), "2 refused") || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("a script of two malformed lines returned %v, want an error counting both", err)
	}
	if b.Len() != 0 {
		t.Fatalf("output %q, want none", b.String())
	}
}
