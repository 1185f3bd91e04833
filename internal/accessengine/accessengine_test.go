package accessengine

import (
	"math/rand"
	"testing"

	"dana/internal/storage"
	"dana/internal/strider"
)

func buildRelation(t *testing.T, schema *storage.Schema, rows int, seed int64) (*storage.Relation, [][]float64) {
	t.Helper()
	r := storage.NewRelation("t", schema, storage.PageSize8K)
	rng := rand.New(rand.NewSource(seed))
	var data [][]float64
	for i := 0; i < rows; i++ {
		vals := make([]float64, schema.NumCols())
		for j, col := range schema.Cols {
			switch col.Type {
			case storage.TInt32, storage.TInt64:
				vals[j] = float64(rng.Intn(1000))
			default:
				vals[j] = float64(float32(rng.NormFloat64()))
			}
		}
		data = append(data, vals)
	}
	if err := r.InsertBatch(data); err != nil {
		t.Fatal(err)
	}
	return r, data
}

func newEngine(t *testing.T, schema *storage.Schema, striders int) *Engine {
	t.Helper()
	e, err := New(strider.PostgresLayout(storage.PageSize8K), schema, striders)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// extractAll runs pages through the engine the way the executor does —
// page i on Strider i mod NumStriders, every result through one
// Collector, which charges each group of NumStriders pages its slowest
// Strider — and returns the extracted records in page order.
func extractAll(t *testing.T, e *Engine, pages []storage.Page) [][]float32 {
	t.Helper()
	var all [][]float32
	c := e.NewCollector()
	for i, pg := range pages {
		var res PageResult
		if err := e.ExtractPage(i%e.NumStriders, pg, &res); err != nil {
			t.Fatal(err)
		}
		c.Add(&res)
		all = append(all, res.Rows...)
	}
	c.Flush()
	return all
}

func TestProcessPageRoundTrip(t *testing.T) {
	schema := storage.NumericSchema(9)
	rel, data := buildRelation(t, schema, 500, 1)
	e := newEngine(t, schema, 1)
	var got [][]float32
	for pn := 0; pn < rel.NumPages(); pn++ {
		pg, err := rel.Page(pn)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, extractAll(t, e, []storage.Page{pg})...)
	}
	if len(got) != len(data) {
		t.Fatalf("extracted %d tuples, want %d", len(got), len(data))
	}
	for i := range data {
		for j := range data[i] {
			if float64(got[i][j]) != data[i][j] {
				t.Fatalf("tuple %d col %d: %v != %v", i, j, got[i][j], data[i][j])
			}
		}
	}
	st := e.Stats()
	if st.Tuples != int64(len(data)) || st.Pages != int64(rel.NumPages()) {
		t.Errorf("stats = %+v", st)
	}
}

func TestProcessPagesParallelCycles(t *testing.T) {
	schema := storage.NumericSchema(20)
	rel, data := buildRelation(t, schema, 2000, 2)
	if rel.NumPages() < 4 {
		t.Fatalf("need >= 4 pages, got %d", rel.NumPages())
	}
	var pages []storage.Page
	for pn := 0; pn < rel.NumPages(); pn++ {
		pg, _ := rel.Page(pn)
		pages = append(pages, pg)
	}

	e1 := newEngine(t, schema, 1)
	recs1 := extractAll(t, e1, pages)
	e4 := newEngine(t, schema, 4)
	recs4 := extractAll(t, e4, pages)
	if len(recs1) != len(data) || len(recs4) != len(data) {
		t.Fatalf("tuple counts: %d / %d, want %d", len(recs1), len(recs4), len(data))
	}
	// 4 striders must be meaningfully faster than 1 (max-per-group model).
	if e4.Stats().Cycles*2 >= e1.Stats().Cycles {
		t.Errorf("4 striders %d cycles vs 1 strider %d cycles: insufficient overlap",
			e4.Stats().Cycles, e1.Stats().Cycles)
	}
	// Total work is identical regardless of parallelism.
	if e4.Stats().TotalCycles != e1.Stats().TotalCycles {
		t.Errorf("TotalCycles differ: %d vs %d", e4.Stats().TotalCycles, e1.Stats().TotalCycles)
	}
}

// TestNewEngineValidation: New refuses a Strider count below one, and
// every layout or schema the walk does not cover.
func TestNewEngineValidation(t *testing.T) {
	pg := strider.PostgresLayout(storage.PageSize8K)
	if _, err := New(pg, storage.NumericSchema(2), 0); err == nil {
		t.Error("0 striders accepted")
	}
	wideLP, noLen, wideLen := pg, pg, pg
	wideLP.ItemIDSize = 8
	noLen.ItemLenField.Width = 0
	wideLen.ItemLenField.Width = 33
	for name, c := range map[string]struct {
		layout strider.PageLayout
		schema *storage.Schema
	}{
		"8-byte line pointers":        {wideLP, storage.NumericSchema(2)},
		"a zero-width lp_len":         {noLen, storage.NumericSchema(2)},
		"a 33-bit lp_len":             {wideLen, storage.NumericSchema(2)},
		"a schema with no columns":    {pg, storage.NewSchema()},
		"a column with no float form": {pg, storage.NewSchema(storage.Column{Name: "x", Type: storage.TInvalid})},
	} {
		if _, err := New(c.layout, c.schema, 1); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestEstimatePageCyclesTracksMeasured(t *testing.T) {
	schema := storage.NumericSchema(9)
	rel, _ := buildRelation(t, schema, 400, 3)
	e := newEngine(t, schema, 1)
	pg, _ := rel.Page(0)
	extractAll(t, e, []storage.Page{pg})
	measured := e.Stats().TotalCycles
	est := PageCycles(schema, pg.NumItems())
	ratio := float64(measured) / float64(est)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("estimate %d vs measured %d (ratio %.2f)", est, measured, ratio)
	}
}

func TestRatingSchemaEndToEnd(t *testing.T) {
	schema := storage.RatingSchema()
	rel, data := buildRelation(t, schema, 300, 4)
	e := newEngine(t, schema, 2)
	var pages []storage.Page
	for pn := 0; pn < rel.NumPages(); pn++ {
		pg, _ := rel.Page(pn)
		pages = append(pages, pg)
	}
	recs := extractAll(t, e, pages)
	for i := range data {
		for j := range data[i] {
			if float64(recs[i][j]) != data[i][j] {
				t.Fatalf("tuple %d col %d: %v != %v", i, j, recs[i][j], data[i][j])
			}
		}
	}
}

// TestInnoDBAccessEngine: InnoDB pages stay off the access engine's
// walk. New refuses the record-chain layout, which has no line pointers,
// so those pages run in the Strider program GenerateInnoDB emits; rows
// spread over several pages come back from it page by page, every value
// in insertion order.
func TestInnoDBAccessEngine(t *testing.T) {
	schema := storage.NumericSchema(7)
	rel := storage.NewInnoRelation("inno", schema, storage.PageSize8K)
	rng := rand.New(rand.NewSource(12))
	var want [][]float64
	for i := 0; i < 300; i++ {
		vals := make([]float64, 8)
		for j := range vals {
			vals[j] = float64(float32(rng.NormFloat64()))
		}
		if err := rel.Insert(vals); err != nil {
			t.Fatal(err)
		}
		want = append(want, vals)
	}
	if rel.NumPages() < 2 {
		t.Fatalf("pages = %d, want >= 2", rel.NumPages())
	}
	if _, err := New(strider.PageLayout{PageSize: storage.PageSize8K}, schema, 2); err == nil {
		t.Error("the InnoDB record-chain layout was accepted by the line-pointer walk")
	}
	prog, cfg, err := strider.GenerateInnoDB(strider.InnoDBLayout(storage.PageSize8K, schema))
	if err != nil {
		t.Fatal(err)
	}
	vm := strider.NewVM(prog, cfg)
	var got [][]float64
	for i := 0; i < rel.NumPages(); i++ {
		pg, err := rel.Page(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Run([]byte(pg)); err != nil {
			t.Fatal(err)
		}
		out := vm.Out()
		if len(out)%schema.DataWidth() != 0 {
			t.Fatalf("page %d: %d bytes is not whole tuples of %d", i, len(out), schema.DataWidth())
		}
		for off := 0; off < len(out); off += schema.DataWidth() {
			row, err := schema.DecodeValues(nil, out[off:off+schema.DataWidth()])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, row)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("extracted %d records, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if float64(float32(got[i][j])) != want[i][j] {
				t.Fatalf("rec %d col %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}
