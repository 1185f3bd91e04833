package sql

import (
	"fmt"
	"strings"
	"testing"

	"dana/internal/cost"
	"dana/internal/storage"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	return NewDB(storage.PageSize8K, 1<<22, cost.Default().Disk)
}

// parseOne parses a script that must hold exactly one statement.
func parseOne(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

func TestParseCreateTable(t *testing.T) {
	s, err := parseOne("CREATE TABLE pts (x float4, y double precision, n int)")
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := s.(CreateTable)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ct.Name != "pts" || len(ct.Cols) != 3 {
		t.Errorf("ct = %+v", ct)
	}
	if ct.Cols[1].Type != "double precision" {
		t.Errorf("col 1 type = %q", ct.Cols[1].Type)
	}
}

func TestParseSelectVariants(t *testing.T) {
	s, err := parseOne("SELECT a, b FROM t WHERE a >= 1.5 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(Select)
	if len(sel.Columns) != 2 || sel.Where == nil || sel.Where.Op != ">=" || sel.Limit != 10 {
		t.Errorf("sel = %+v", sel)
	}
	s2, err := parseOne("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !s2.(Select).CountAll {
		t.Error("CountAll not set")
	}
	s3, err := parseOne("SELECT * FROM dana.linearR('training_data_table')")
	if err != nil {
		t.Fatal(err)
	}
	sel3 := s3.(Select)
	if sel3.UDF != "linearr" || sel3.UDFArg != "training_data_table" {
		t.Errorf("sel3 = %+v", sel3)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELECT FROM t",
		"CREATE TABLE (x int)",
		"INSERT INTO t VALUES (1,",
		"SELECT * FROM t WHERE a ! 3",
		"BOGUS",
		"SELECT * FROM t WHERE a = 'x'",
		"SELECT * FROM dana.f(t)",
	}
	for _, src := range bad {
		if _, err := ParseAll(src); err == nil {
			t.Errorf("ParseAll(%q) should fail", src)
		}
	}
}

func TestExecEndToEnd(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("CREATE TABLE pts (x float4, y float4, label float4)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO pts VALUES (1, 2, 0), (3, 4, 1), (5, 6, 1), (-1, 0, 0)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT COUNT(*) FROM pts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 4 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	res, err = db.Exec("SELECT x, label FROM pts WHERE label = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != 3 || res.Rows[1][0] != 5 {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Cols[0] != "x" || res.Cols[1] != "label" {
		t.Errorf("cols = %v", res.Cols)
	}
	res, err = db.Exec("SELECT * FROM pts LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Cols) != 3 {
		t.Errorf("limit result = %+v", res)
	}
}

func TestExecMultiStatementScript(t *testing.T) {
	db := newTestDB(t)
	res, err := db.Exec(`
		CREATE TABLE a (x int);
		INSERT INTO a VALUES (1), (2), (3);
		SELECT COUNT(*) FROM a;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 3 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestExecErrors(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("SELECT * FROM ghost"); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := db.Exec("CREATE TABLE t (x int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (x int)"); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1, 2)"); err == nil {
		t.Error("wrong arity insert accepted")
	}
	if _, err := db.Exec("SELECT nope FROM t"); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := db.Exec("SELECT * FROM dana.f('t')"); err == nil {
		t.Error("UDF without runner accepted")
	}
	if _, err := db.Exec("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DROP TABLE t"); err == nil {
		t.Error("double drop accepted")
	}
}

type fakeRunner struct{ udf, table string }

func (f *fakeRunner) RunUDF(udf, table string) (*Result, error) {
	f.udf, f.table = udf, table
	return &Result{Cols: []string{"model"}, Rows: [][]float64{{42}}}, nil
}

func TestUDFDispatch(t *testing.T) {
	db := newTestDB(t)
	fr := &fakeRunner{}
	db.Runner = fr
	res, err := db.Exec("SELECT * FROM dana.linearr('train')")
	if err != nil {
		t.Fatal(err)
	}
	if fr.udf != "linearr" || fr.table != "train" {
		t.Errorf("dispatched %q/%q", fr.udf, fr.table)
	}
	if res.Rows[0][0] != 42 {
		t.Errorf("result = %+v", res)
	}
}

func TestScanSpillsOverPool(t *testing.T) {
	// A pool much smaller than the relation still scans correctly
	// (eviction path) and records misses.
	db := NewDB(storage.PageSize8K, 4*storage.PageSize8K, cost.Default().Disk)
	if _, err := db.Exec("CREATE TABLE big (a float4, b float4)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < 5000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(1, 2)")
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Cat.Table("big")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumPages() <= db.Pool.NumFrames() {
		t.Fatalf("relation (%d pages) should exceed pool (%d frames)", rel.NumPages(), db.Pool.NumFrames())
	}
	res, err := db.Exec("SELECT COUNT(*) FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 5000 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if db.Pool.Stats().Evictions == 0 {
		t.Error("expected evictions")
	}
	if db.Pool.PinnedCount() != 0 {
		t.Error("scan leaked pins")
	}
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("CREATE TABLE m (x float4, y float4); INSERT INTO m VALUES (1, 10), (2, 20), (3, 30), (4, 40)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT COUNT(*), SUM(x), AVG(y), MIN(x), MAX(y) FROM m")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 10, 25, 1, 40}
	for i, w := range want {
		if res.Rows[0][i] != w {
			t.Errorf("agg %d (%s) = %v, want %v", i, res.Cols[i], res.Rows[0][i], w)
		}
	}
	res, err = db.Exec("SELECT SUM(y) FROM m WHERE x > 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 70 {
		t.Errorf("filtered sum = %v", res.Rows[0][0])
	}
	// Aggregates over an empty result set.
	res, err = db.Exec("SELECT COUNT(*), AVG(x) FROM m WHERE x > 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 0 || res.Rows[0][1] != 0 {
		t.Errorf("empty aggregates = %v", res.Rows[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("CREATE TABLE m (x float4)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT SUM(*) FROM m"); err == nil {
		t.Error("SUM(*) accepted")
	}
	if _, err := db.Exec("SELECT SUM(nope) FROM m"); err == nil {
		t.Error("aggregate over missing column accepted")
	}
	if _, err := db.Exec("SELECT SUM(x), x FROM m"); err == nil {
		t.Error("mixed aggregate and plain column accepted")
	}
}

func TestDropTablePurgesCache(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("CREATE TABLE r (x float4); INSERT INTO r VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT COUNT(*) FROM r"); err != nil {
		t.Fatal(err) // populates the pool
	}
	if _, err := db.Exec("DROP TABLE r"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE r (x float4); INSERT INTO r VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT SUM(x), COUNT(*) FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 7 || res.Rows[0][1] != 1 {
		t.Errorf("recreated table served stale pages: %v", res.Rows[0])
	}
}
