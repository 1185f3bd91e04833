// Package fuzzcorpus writes seed corpus files in the Go fuzzing
// encoding (testdata/fuzz/<FuzzTarget>/). Each package's fuzz tests
// regenerate their committed corpus with an env-gated writer test
// (DANA_WRITE_FUZZ_CORPUS=1), keeping the checked-in files in lockstep
// with the in-code f.Add seeds.
package fuzzcorpus

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// WriteEnv is the environment variable gating corpus regeneration.
const WriteEnv = "DANA_WRITE_FUZZ_CORPUS"

// ShouldWrite reports whether corpus regeneration is requested.
func ShouldWrite() bool { return os.Getenv(WriteEnv) != "" }

// WriteBytes writes []byte-typed seeds for the named fuzz target under
// dir (conventionally "testdata/fuzz/<target>"). Existing seed files
// named seed-* are replaced; fuzzer-discovered files are left alone.
func WriteBytes(dir string, seeds [][]byte) error {
	ss := make([]string, len(seeds))
	for i, s := range seeds {
		ss[i] = string(s)
	}
	return write(dir, "[]byte", ss)
}

// WriteStrings writes string-typed seeds in the same layout.
func WriteStrings(dir string, seeds []string) error { return write(dir, "string", seeds) }

// write is both writers: the fuzz encoding differs only in the Go
// literal type each seed is written as.
func write(dir, typ string, seeds []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	old, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		return err
	}
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n%s(%s)\n", typ, strconv.Quote(s))
		name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}
