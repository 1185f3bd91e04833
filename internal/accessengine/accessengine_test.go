package accessengine

import (
	"math"
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

func TestDeformatMixedTypes(t *testing.T) {
	schema := storage.RatingSchema() // int4, int4, float4
	buf := make([]byte, schema.DataWidth())
	if err := schema.EncodeValues(buf, []float64{42, 7, 3.5}); err != nil {
		t.Fatal(err)
	}
	rec, err := Deformat(schema, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec[0] != 42 || rec[1] != 7 || rec[2] != 3.5 {
		t.Errorf("rec = %v", rec)
	}
}

func TestDeformatFloat64Narrowing(t *testing.T) {
	schema := storage.NewSchema(storage.Column{Name: "x", Type: storage.TFloat64})
	buf := make([]byte, schema.DataWidth())
	if err := schema.EncodeValues(buf, []float64{math.Pi}); err != nil {
		t.Fatal(err)
	}
	rec, err := Deformat(schema, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec[0] != float32(math.Pi) {
		t.Errorf("rec = %v", rec)
	}
}

func TestDeformatShortPayload(t *testing.T) {
	schema := storage.NumericSchema(4)
	if _, err := Deformat(schema, make([]byte, 3), nil); err == nil {
		t.Error("short payload accepted")
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := New(strider.PostgresLayout(storage.PageSize8K), storage.NumericSchema(2), 0); err == nil {
		t.Error("0 striders accepted")
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
	e, err := NewInnoDB(storage.PageSize8K, schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e.direct {
		t.Error("InnoDB engine has a line-pointer walker; the chain walk must stay on the VM")
	}
	for i, vm := range e.vms {
		if vm == nil {
			t.Errorf("strider %d: no VM built up front, and every InnoDB page runs in one", i)
		}
	}
	var pages []storage.Page
	for i := 0; i < rel.NumPages(); i++ {
		pg, err := rel.Page(i)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, storage.Page(pg))
	}
	recs := extractAll(t, e, pages)
	if len(recs) != len(want) {
		t.Fatalf("extracted %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if float64(recs[i][j]) != want[i][j] {
				t.Fatalf("rec %d col %d: %v != %v", i, j, recs[i][j], want[i][j])
			}
		}
	}
}
