package verify

import (
	"fmt"
	"math"

	"dana/internal/storage"
)

// Oracle A: storage round-trip. Values formed into tuples and inserted
// into pages must decode back identical, with dead/redirected line
// pointers skipped.

// valuesEqual requires bit-identity (the generator only emits values
// exactly representable by their column type).
func valuesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// CheckStorageOracle validates the page and compares every decoded live
// tuple against the scenario's ground truth.
func (sc *PageScenario) CheckStorageOracle() error {
	if err := sc.Page.Validate(); err != nil {
		return fmt.Errorf("oracle A: %w", err)
	}
	s := sc.Schema
	next := 0 // index into ground truth
	for i := 0; i < sc.Page.NumItems(); i++ {
		id, err := sc.Page.ItemID(i)
		if err != nil {
			return fmt.Errorf("oracle A: %w", err)
		}
		if id.Flags != storage.LPNormal {
			if next < len(sc.LiveItems) && sc.LiveItems[next] == i {
				return fmt.Errorf("oracle A: item %d expected live, found state %d", i, id.Flags)
			}
			continue
		}
		if next >= len(sc.LiveItems) || sc.LiveItems[next] != i {
			return fmt.Errorf("oracle A: unexpected live item %d", i)
		}
		raw, err := sc.Page.Item(i)
		if err != nil {
			return fmt.Errorf("oracle A: item %d: %w", i, err)
		}
		vals, err := storage.DecodeTuple(s, nil, raw)
		if err != nil {
			return fmt.Errorf("oracle A: item %d: %w", i, err)
		}
		for c := 0; c < s.NumCols(); c++ {
			if want := sc.Rows[next][c]; math.Float64bits(vals[c]) != math.Float64bits(want) {
				return fmt.Errorf("oracle A: item %d col %d: decoded %v, want %v", i, c, vals[c], want)
			}
		}
		next++
	}
	if next != len(sc.Rows) {
		return fmt.Errorf("oracle A: decoded %d live tuples, ground truth has %d", next, len(sc.Rows))
	}
	return nil
}

// CheckRelationOracle scans the relation and compares against ground
// truth, then vacuums and re-checks: reclaiming dead space must not
// perturb the survivors.
func (sc *RelationScenario) CheckRelationOracle() error {
	check := func(stage string) error {
		if err := sc.Rel.Validate(); err != nil {
			return fmt.Errorf("oracle A (%s): %w", stage, err)
		}
		var got [][]float64
		err := sc.Rel.Scan(func(_ storage.TID, vals []float64) error {
			got = append(got, append([]float64(nil), vals...))
			return nil
		})
		if err != nil {
			return fmt.Errorf("oracle A (%s): %w", stage, err)
		}
		if len(got) != len(sc.Rows) {
			return fmt.Errorf("oracle A (%s): scanned %d rows, want %d", stage, len(got), len(sc.Rows))
		}
		for i := range got {
			if !valuesEqual(got[i], sc.Rows[i]) {
				return fmt.Errorf("oracle A (%s): row %d: %v != %v", stage, i, got[i], sc.Rows[i])
			}
		}
		return nil
	}
	if err := check("pre-vacuum"); err != nil {
		return err
	}
	if err := sc.Rel.Vacuum(); err != nil {
		return fmt.Errorf("oracle A: vacuum: %w", err)
	}
	return check("post-vacuum")
}

// CheckInnoOracle decodes every record of every InnoDB page and
// compares against ground truth.
func (sc *InnoScenario) CheckInnoOracle() error {
	s := sc.Rel.Schema
	next := 0
	for p := 0; p < sc.Rel.NumPages(); p++ {
		page, err := sc.Rel.Page(p)
		if err != nil {
			return fmt.Errorf("oracle A (inno): %w", err)
		}
		recs, err := page.Records(s.DataWidth())
		if err != nil {
			return fmt.Errorf("oracle A (inno): page %d: %w", p, err)
		}
		for _, rec := range recs {
			if next >= len(sc.Rows) {
				return fmt.Errorf("oracle A (inno): more records than ground truth rows (%d)", len(sc.Rows))
			}
			vals, err := s.DecodeValues(nil, rec)
			if err != nil {
				return fmt.Errorf("oracle A (inno): record %d: %w", next, err)
			}
			if !valuesEqual(vals, sc.Rows[next]) {
				return fmt.Errorf("oracle A (inno): record %d: %v != %v", next, vals, sc.Rows[next])
			}
			next++
		}
	}
	if next != len(sc.Rows) {
		return fmt.Errorf("oracle A (inno): decoded %d records, want %d", next, len(sc.Rows))
	}
	return nil
}
