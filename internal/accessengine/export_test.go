package accessengine

import (
	"testing"

	"dana/internal/storage"
)

// LabelledSeeds hands the external tests the labelled walk seeds: each
// walk schema, and its seed pages in seed order.
func LabelledSeeds(tb testing.TB) (schemas []*storage.Schema, pages [][]storage.Page) {
	for _, ws := range walkSchemas {
		schemas = append(schemas, ws.schema)
	}
	pages = make([][]storage.Page, len(schemas))
	for _, s := range walkSeeds(tb) {
		pages[s.engine] = append(pages[s.engine], s.page)
	}
	return schemas, pages
}
