package storage

import (
	"errors"
	"testing"
)

// TestInnoRelationInsertRefusals: Insert refuses values the schema cannot
// encode and a record wider than an empty page, and either refusal
// leaves the relation's pages as they were.
func TestInnoRelationInsertRefusals(t *testing.T) {
	for name, c := range map[string]struct {
		schema *Schema
		vals   []float64
		want   error // nil: any error
	}{
		"one value short":                   {NumericSchema(2), []float64{1, 2}, nil},
		"a column with no encoding":         {NewSchema(Column{Name: "x", Type: TInvalid}), []float64{1}, nil},
		"a record wider than an empty page": {NumericSchema(PageSize8K / 4), make([]float64, PageSize8K/4+1), ErrPageFull},
	} {
		r := NewInnoRelation("inno", c.schema, PageSize8K)
		err := r.Insert(c.vals)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: Insert = %v, want an error wrapping %v", name, err, c.want)
		}
		if r.NumPages() != 0 {
			t.Errorf("%s: the refused insert left %d pages", name, r.NumPages())
		}
	}
	// A refusal on a relation with rows leaves its one page, and its rows.
	r := NewInnoRelation("inno", NumericSchema(2), PageSize8K)
	if err := r.Insert([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert([]float64{1}); err == nil || r.NumPages() != 1 {
		t.Errorf("after a refused insert: err %v, %d pages", err, r.NumPages())
	}
	if p, _ := r.Page(0); p.NumRecords() != 1 {
		t.Errorf("the page holds %d records, want 1", p.NumRecords())
	}
}
