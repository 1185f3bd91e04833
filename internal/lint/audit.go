package lint

// Suppression auditing: the `-- reason` tail on //danalint:ignore
// directives is what keeps suppressions honest, and `danalint -audit`
// is the tool that reads them back. CollectSuppressionRecords re-parses
// every directive into a structured record so the CLI can print the
// full suppression inventory (file:line, analyzer, reason) and fail the
// build on any directive whose reason is missing — an unaudited
// suppression is a finding someone silenced without saying why — or
// that names no analyzer of the suite: a leftover name of a deleted
// analyzer, or a typo, suppresses nothing while reading as audited.

import (
	"go/token"
	"sort"
)

// Suppression is one //danalint:ignore directive.
type Suppression struct {
	Pos      token.Position
	Analyzer string // "" suppresses every analyzer on the line
	Reason   string // text after "--"; empty means unaudited
}

// Problem says why the directive fails the audit, or "" when it names
// an analyzer of All() (or none) and carries a reason.
func (s Suppression) Problem() string {
	if s.Analyzer != "" && ByName(s.Analyzer) == nil {
		return "<UNKNOWN ANALYZER>"
	}
	if s.Reason == "" {
		return "<MISSING REASON>"
	}
	return ""
}

// CollectSuppressionRecords parses every ignore directive in pkgs,
// sorted by position. Each source file is visited once even when it
// appears in several loaded packages (plain and test-augmented loads
// share files).
func CollectSuppressionRecords(pkgs []*Package) []Suppression {
	var recs []Suppression
	seenFile := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			filename := pkg.Fset.Position(f.Pos()).Filename
			if seenFile[filename] {
				continue
			}
			seenFile[filename] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if name, reason, ok := parseIgnore(c.Text); ok {
						recs = append(recs, Suppression{Pos: pkg.Fset.Position(c.Pos()), Analyzer: name, Reason: reason})
					}
				}
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return recs
}
