package accessengine_test

import (
	"testing"

	"dana/internal/accessengine"
	"dana/internal/storage"
	"dana/internal/strider"
	"dana/internal/verify"
)

// TestOracleEOnLabelledSeeds (CI runs it under -race, ten rounds):
// Oracle E over every labelled seed page of each walk schema, valid and
// damaged, dealt to two Striders of one engine that walk at once, each
// into a fresh result and into the one it recycles, as a scan does.
func TestOracleEOnLabelledSeeds(t *testing.T) {
	layout := strider.PostgresLayout(storage.PageSize8K)
	schemas, pages := accessengine.LabelledSeeds(t)
	for i, schema := range schemas {
		e, err := accessengine.New(layout, schema, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckExtract(e.ExtractPage, layout, schema, pages[i], e.NumStriders); err != nil {
			t.Errorf("%s: %v", schema, err)
		}
	}
}
