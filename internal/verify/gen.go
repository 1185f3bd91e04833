// Package verify is the differential-testing harness: a seeded generator
// of random schemas, relations, and page fills, plus three oracles that
// cross-check independent implementations of the same semantics.
//
//	Oracle A (storage):  formed tuples → pages → decoded values must be
//	                     identical to the generated ground truth.
//	Oracle B (Strider):  the compiled Strider walker's byte stream must
//	                     equal both the direct page decode and the
//	                     generator's encoding of the ground-truth rows.
//	Oracle C (training): the pure-Go golden trainer, the hDFG
//	                     interpreter, the MADlib-style baseline, and the
//	                     engine simulator must agree on trained models.
//
// Every random choice flows from one logged seed, so any failure
// reproduces with `go test -run 'TestDifferentialSuite/seed=0x…'`.
package verify

import (
	"fmt"
	"math/rand"

	"dana/internal/storage"
)

// BaseSeed anchors the deterministic differential suite. Every subtest
// derives its generators from BaseSeed+i and logs the seed, so a failure
// reproduces with:
//
//	go test -run 'TestDifferentialSuite/seed=0x<seed>' ./internal/verify
const BaseSeed = 0xDA7A

// NumInstances is the suite size (the acceptance floor is 100).
const NumInstances = 120

// MaxSchemaCols is the widest schema the generator produces (PostgreSQL
// caps heap tuples at MaxHeapAttributeNumber=1600; we stop at 256).
const MaxSchemaCols = 256

// Gen is a deterministic scenario generator. All methods consume the
// same underlying stream, so scenario construction order matters for
// reproduction — derive one Gen per scenario from the logged seed.
type Gen struct {
	Seed int64
	rng  *rand.Rand
}

// NewGen creates a generator for the seed.
func NewGen(seed int64) *Gen {
	return &Gen{Seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Intn exposes the stream for scenario-level choices (page size picks,
// algorithm picks) so they reproduce from the same seed.
func (g *Gen) Intn(n int) int { return g.rng.Intn(n) }

// PageSize picks one of the paper's three page sizes.
func (g *Gen) PageSize() int {
	return []int{storage.PageSize8K, storage.PageSize16K, storage.PageSize32K}[g.rng.Intn(3)]
}

// Schema generates a random schema of 1..maxCols columns drawn from all
// four column types.
func (g *Gen) Schema(maxCols int) *storage.Schema {
	if maxCols < 1 || maxCols > MaxSchemaCols {
		maxCols = MaxSchemaCols
	}
	ncols := 1 + g.rng.Intn(maxCols)
	types := []storage.ColType{storage.TFloat32, storage.TFloat64, storage.TInt32, storage.TInt64}
	cols := make([]storage.Column, ncols)
	for i := range cols {
		cols[i] = storage.Column{
			Name: fmt.Sprintf("c%d", i),
			Type: types[g.rng.Intn(len(types))],
		}
	}
	return storage.NewSchema(cols...)
}

// Value draws a random value exactly representable by the column type,
// so encode→decode must be the identity.
func (g *Gen) Value(t storage.ColType) float64 {
	switch t {
	case storage.TFloat32:
		return float64(float32(g.rng.NormFloat64() * 100))
	case storage.TInt32, storage.TInt64:
		return float64(g.rng.Int31n(1<<24) - 1<<23)
	default:
		return g.rng.NormFloat64() * 100
	}
}

// Row draws one random row for the schema.
func (g *Gen) Row(s *storage.Schema) []float64 {
	vals := make([]float64, s.NumCols())
	for i, c := range s.Cols {
		vals[i] = g.Value(c.Type)
	}
	return vals
}

// PageScenario is a formed page plus its ground truth for Oracle A.
type PageScenario struct {
	Schema *storage.Schema
	Page   storage.Page

	// Ground truth for live (LPNormal) items, in item order.
	LiveItems []int
	Rows      [][]float64
}

// PageScenario fills a page of the given size with random tuples, kills
// some and fabricates a redirect, and records the surviving ground truth.
func (g *Gen) PageScenario(pageSize int) (*PageScenario, error) {
	s := g.Schema(64)
	sc := &PageScenario{Schema: s, Page: storage.NewPage(pageSize, 0)}
	nrows := 1 + g.rng.Intn(120)

	var all [][]float64
	for i := 0; i < nrows; i++ {
		vals := g.Row(s)
		raw, err := storage.EncodeTuple(s, vals, uint32(i+2), storage.TID{Item: uint16(i)})
		if err != nil {
			return nil, err
		}
		if _, err := sc.Page.AddItem(raw); err != nil {
			break // page full — keep what fits
		}
		all = append(all, vals)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("verify: no tuple of schema %v fits a %d-byte page", s, pageSize)
	}

	// Kill some tuples; fabricate one redirect if we killed any.
	dead := make(map[int]bool)
	for i := range all {
		if g.rng.Intn(4) == 0 {
			if err := sc.Page.DeleteItem(i); err != nil {
				return nil, err
			}
			dead[i] = true
		}
	}
	if len(dead) > 0 && g.rng.Intn(2) == 0 {
		for i := range all {
			if dead[i] {
				if err := sc.Page.SetLinePointer(i, storage.ItemID{Off: 0, Flags: storage.LPRedirect, Len: 0}); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	for i, vals := range all {
		if dead[i] {
			continue
		}
		sc.LiveItems = append(sc.LiveItems, i)
		sc.Rows = append(sc.Rows, vals)
	}
	return sc, nil
}

// RelationScenario is a multi-page relation plus ground truth.
type RelationScenario struct {
	Rel  *storage.Relation
	Rows [][]float64 // live rows in TID order
}

// RelationScenario builds a relation, inserts random rows, deletes a
// random subset, and records the survivors in scan order.
func (g *Gen) RelationScenario(pageSize, maxRows int) (*RelationScenario, error) {
	s := g.Schema(24)
	rel := storage.NewRelation("diff", s, pageSize)
	n := 1 + g.rng.Intn(maxRows)
	rows := make([][]float64, 0, n)
	tids := make([]storage.TID, 0, n)
	for i := 0; i < n; i++ {
		row := g.Row(s)
		tid, err := rel.Insert(row)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		tids = append(tids, tid)
	}
	var live [][]float64
	for i := range rows {
		if g.rng.Intn(5) == 0 {
			if err := rel.Delete(tids[i]); err != nil {
				return nil, err
			}
			continue
		}
		live = append(live, rows[i])
	}
	return &RelationScenario{Rel: rel, Rows: live}, nil
}

// InnoScenario is an InnoDB-style relation plus ground truth.
type InnoScenario struct {
	Rel  *storage.InnoRelation
	Rows [][]float64
}

// InnoScenario builds an InnoDB-layout relation with random rows (the
// simplified compact format has no delete path — every record is live).
func (g *Gen) InnoScenario(pageSize, maxRows int) (*InnoScenario, error) {
	s := g.Schema(24)
	rel := storage.NewInnoRelation("diff_inno", s, pageSize)
	n := 1 + g.rng.Intn(maxRows)
	rows := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		row := g.Row(s)
		if err := rel.Insert(row); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return &InnoScenario{Rel: rel, Rows: rows}, nil
}

// StriderScenario holds pages the generated Strider walker can legally
// traverse: every line pointer live, at least one tuple per page.
type StriderScenario struct {
	Schema   *storage.Schema
	PageSize int
	Pages    []storage.Page
	Rows     [][]float64 // all rows, page-major then item order
}

// StriderScenario builds 1..maxPages walker-clean pages.
func (g *Gen) StriderScenario(pageSize, maxPages, rowsPerPage int) (*StriderScenario, error) {
	s := g.Schema(16)
	sc := &StriderScenario{Schema: s, PageSize: pageSize}
	npages := 1 + g.rng.Intn(maxPages)
	for p := 0; p < npages; p++ {
		page := storage.NewPage(pageSize, 0)
		n := 1 + g.rng.Intn(rowsPerPage)
		for i := 0; i < n; i++ {
			row := g.Row(s)
			raw, err := storage.EncodeTuple(s, row, uint32(i+2), storage.TID{Page: uint32(p), Item: uint16(i)})
			if err != nil {
				return nil, err
			}
			if _, err := page.AddItem(raw); err != nil {
				if i == 0 {
					return nil, fmt.Errorf("verify: first tuple does not fit page")
				}
				break
			}
			sc.Rows = append(sc.Rows, row)
		}
		sc.Pages = append(sc.Pages, page)
	}
	return sc, nil
}

// InnoStriderScenario is the InnoDB-walker counterpart.
type InnoStriderScenario struct {
	Schema   *storage.Schema
	PageSize int
	Rel      *storage.InnoRelation
	Rows     [][]float64
}

// InnoStriderScenario builds an InnoDB relation the InnoDB walker can
// traverse.
func (g *Gen) InnoStriderScenario(pageSize, maxRows int) (*InnoStriderScenario, error) {
	s := g.Schema(16)
	rel := storage.NewInnoRelation("walker_inno", s, pageSize)
	n := 1 + g.rng.Intn(maxRows)
	var rows [][]float64
	for i := 0; i < n; i++ {
		row := g.Row(s)
		if err := rel.Insert(row); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return &InnoStriderScenario{Schema: s, PageSize: pageSize, Rel: rel, Rows: rows}, nil
}
