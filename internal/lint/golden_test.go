package lint

// Golden tests in the analysistest style: each analyzer runs over its
// fixture package(s) under testdata/src/<dir>, and the findings must
// match the `// want `regexp`` comments in the fixture sources exactly
// — every finding claims a want on its line, every want is claimed.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts `// want `pattern“ comments (backquote-delimited so
// fixture regexps can contain quotes).
var wantRe = regexp.MustCompile("// want `([^`]*)`")

type wantMark struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func parseWants(t *testing.T, dir string) []*wantMark {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantMark
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &wantMark{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// claimWant marks the first unclaimed want on the finding's line whose
// pattern matches the message.
func claimWant(wants []*wantMark, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

func TestAnalyzersGolden(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a   *Analyzer
		dir string
	}{
		{PinBalance, "pinbalance"},
		{Determinism, "determinism"},
		{ObsGuard, "obsguard"},
		{HotCall, "hotalloc"}, // depth 0: the marked body's own sites
		{FaultErrors, "faulterrors"},
		{HotCall, "hotcall"},
		{LockOrder, "lockorder"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", tc.dir))
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := ld.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) == 0 {
				t.Fatalf("no fixture package loaded from %s", dir)
			}
			findings, err := RunAnalyzers(pkgs, []*Analyzer{tc.a})
			if err != nil {
				t.Fatal(err)
			}
			wants := parseWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", dir)
			}
			for _, f := range findings {
				if !claimWant(wants, f.Pos.Filename, f.Pos.Line, f.Message) {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: no finding matched %q", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestLoaderSkipsTestdataInRecursiveExpansion pins the property the
// danalint CLI relies on: `./...` never descends into fixture packages,
// while naming a testdata directory loads it.
func TestLoaderSkipsTestdataInRecursiveExpansion(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load("./internal/lint/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if strings.HasPrefix(p.PkgPath, "fixture:") {
			t.Errorf("recursive expansion loaded fixture package %s", p.PkgPath)
		}
	}
}
