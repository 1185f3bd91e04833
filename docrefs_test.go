package dana_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docBudgets caps each quoted document's length in lines: one section
// per mechanism, its current state once, and each claim's pairs.
var docBudgets = map[string]int{"EXPERIMENTS.md": 1200, "DESIGN.md": 1000}

// docRefSources are the files besides Go comments whose quotations into
// the two documents must resolve.
var docRefSources = []string{
	"CHANGES.md", ".claude/skills/verify/SKILL.md", "EXPERIMENTS.md", "DESIGN.md",
}

// docRef matches a quotation such as DESIGN.md "Static analysis" in
// flattened text, where a comment's or a paragraph's line breaks are
// spaces.
var docRef = regexp.MustCompile(`\b(EXPERIMENTS|DESIGN)\.md "([^"\n]+)"`)

// boldLead matches a paragraph or list item that opens in bold.
var boldLead = regexp.MustCompile(`^(?:[-*] |\d+\. )?\*\*(.+?)(?:\*\*|$)`)

// TestDocReferencesResolve: every quotation of a heading of
// EXPERIMENTS.md or DESIGN.md, in a Go comment, CHANGES.md, the verify
// skill or either document, matches the start of a heading or of a
// bold paragraph lead in the quoted file, and each document holds its
// line budget. The planted row shows a dangling quotation is reported.
func TestDocReferencesResolve(t *testing.T) {
	anchors := map[string][]string{}
	for doc, budget := range docBudgets {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(b), "\n"); n > budget {
			t.Errorf("%s is %d lines, over its budget of %d", doc, n, budget)
		}
		anchors[doc] = docAnchors(string(b))
	}

	type source struct {
		name, text string
		dangling   int // quotations that must not resolve
	}
	rows := []source{{
		name:     "planted dangling quotation",
		text:     flattenGoComments("// see DESIGN.md \"Static analysis\" and DESIGN.md \"No such\n// section\".\nfunc f() {}\n"),
		dangling: 1,
	}}
	for _, name := range docRefSources {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, source{name: name, text: flattenMarkdown(string(b))})
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || path == "docrefs_test.go":
			return nil
		}
		b, err := os.ReadFile(path)
		if err == nil {
			rows = append(rows, source{name: path, text: flattenGoComments(string(b))})
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, row := range rows {
		var dangling []string
		for _, m := range docRef.FindAllStringSubmatch(row.text, -1) {
			doc, quote := m[1]+".md", collapseSpace(m[2])
			total++
			if !resolves(anchors[doc], quote) {
				dangling = append(dangling, doc+" "+`"`+quote+`"`)
			}
		}
		if len(dangling) != row.dangling {
			t.Errorf("%s: %d quotations match no heading or bold lead, want %d: %q",
				row.name, len(dangling), row.dangling, dangling)
		}
	}
	if total < 25 {
		t.Errorf("found %d quotations; the scan has stopped seeing them", total)
	}
}

// docAnchors returns a Markdown document's headings and bold paragraph
// leads, whitespace collapsed.
func docAnchors(doc string) []string {
	var out []string
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if h := strings.TrimLeft(line, "#"); h != line {
			out = append(out, collapseSpace(h))
		} else if m := boldLead.FindStringSubmatch(line); m != nil {
			out = append(out, collapseSpace(m[1]))
		}
	}
	return out
}

func resolves(anchors []string, quote string) bool {
	for _, a := range anchors {
		if strings.HasPrefix(a, quote) {
			return true
		}
	}
	return false
}

// flattenGoComments keeps only comment text, one comment block to a
// line, so a quotation that wraps a comment line is read whole.
func flattenGoComments(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			b.WriteString(strings.TrimSpace(line[i+2:]) + " ")
		} else {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// flattenMarkdown joins each paragraph onto one line.
func flattenMarkdown(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if line = strings.TrimSpace(line); line == "" {
			b.WriteString("\n")
		} else {
			b.WriteString(line + " ")
		}
	}
	return b.String()
}

func collapseSpace(s string) string { return strings.Join(strings.Fields(s), " ") }
