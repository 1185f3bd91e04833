package sql

import (
	"fmt"

	"dana/internal/bufpool"
	"dana/internal/catalog"
	"dana/internal/cost"
	"dana/internal/storage"
)

// Result is a materialized query result.
type Result struct {
	Cols []string
	Rows [][]float64
	Msg  string // for DDL/DML statements
}

// UDFRunner executes `SELECT * FROM dana.<udf>('table')`. The runtime
// package provides the DAnA implementation; the executor treats the UDF
// as a black box, as the paper's RDBMS does.
type UDFRunner interface {
	RunUDF(udfName, tableName string) (*Result, error)
}

// DB bundles the catalog, buffer pool, and executor.
type DB struct {
	Cat      *catalog.Catalog
	Pool     *bufpool.Pool
	Runner   UDFRunner
	PageSize int
}

// NewDB creates a database with the given page size and buffer pool
// byte budget.
func NewDB(pageSize int, poolBytes int64, disk cost.DiskModel) *DB {
	return &DB{
		Cat:      catalog.New(),
		Pool:     bufpool.NewSized(poolBytes, pageSize, disk),
		PageSize: pageSize,
	}
}

// Exec parses and runs a script, returning the last statement's result.
func (db *DB) Exec(src string) (*Result, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("sql: empty statement")
	}
	var res *Result
	for _, s := range stmts {
		res, err = db.Run(s)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Run executes a parsed statement.
func (db *DB) Run(stmt Statement) (*Result, error) {
	switch s := stmt.(type) {
	case CreateTable:
		return db.runCreate(s)
	case Insert:
		return db.runInsert(s)
	case Select:
		return db.runSelect(s)
	case DropTable:
		if err := db.Cat.DropTable(s.Name); err != nil {
			return nil, err
		}
		// Purge cached frames so a recreated table with the same name
		// cannot read the dropped table's pages.
		if err := db.Pool.InvalidateRelation(s.Name); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("DROP TABLE %s", s.Name)}, nil
	default:
		return nil, fmt.Errorf("sql: unhandled statement %T", stmt)
	}
}

func (db *DB) runCreate(s CreateTable) (*Result, error) {
	cols := make([]storage.Column, len(s.Cols))
	for i, cd := range s.Cols {
		t, err := storage.ParseColType(cd.Type)
		if err != nil {
			return nil, err
		}
		cols[i] = storage.Column{Name: cd.Name, Type: t}
	}
	rel, err := db.Cat.CreateTable(s.Name, storage.NewSchema(cols...), db.PageSize)
	if err != nil {
		return nil, err
	}
	if err := db.Pool.AttachRelation(rel); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("CREATE TABLE %s", s.Name)}, nil
}

func (db *DB) runInsert(s Insert) (*Result, error) {
	rel, err := db.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	for i, row := range s.Rows {
		if len(row) != rel.Schema.NumCols() {
			return nil, fmt.Errorf("sql: row %d has %d values, table %q has %d columns",
				i, len(row), s.Table, rel.Schema.NumCols())
		}
	}
	if err := rel.InsertBatch(s.Rows); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("INSERT 0 %d", len(s.Rows))}, nil
}

func (db *DB) runSelect(s Select) (*Result, error) {
	if s.UDF != "" {
		if db.Runner == nil {
			return nil, fmt.Errorf("sql: no UDF runner configured for dana.%s", s.UDF)
		}
		return db.Runner.RunUDF(s.UDF, s.UDFArg)
	}
	rel, err := db.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := rel.Schema

	// Resolve projection.
	var projIdx []int
	var outCols []string
	if s.Columns == nil {
		for i, c := range schema.Cols {
			projIdx = append(projIdx, i)
			outCols = append(outCols, c.Name)
		}
	} else {
		for _, name := range s.Columns {
			i := schema.ColIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("sql: column %q does not exist in %q", name, s.Table)
			}
			projIdx = append(projIdx, i)
			outCols = append(outCols, schema.Cols[i].Name)
		}
	}
	var whereIdx int
	if s.Where != nil {
		whereIdx = schema.ColIndex(s.Where.Col)
		if whereIdx < 0 {
			return nil, fmt.Errorf("sql: column %q does not exist in %q", s.Where.Col, s.Table)
		}
	}

	if len(s.Aggregates) > 0 || s.CountAll {
		return db.runAggregates(rel, s, whereIdx)
	}
	res := &Result{Cols: outCols}
	err = db.Pool.Scan(rel.Name, func(vals []float64) (bool, error) {
		if s.Where != nil && !evalPred(s.Where.Op, vals[whereIdx], s.Where.Val) {
			return true, nil
		}
		row := make([]float64, len(projIdx))
		for i, pi := range projIdx {
			row[i] = vals[pi]
		}
		res.Rows = append(res.Rows, row)
		return s.Limit < 0 || len(res.Rows) < s.Limit, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runAggregates evaluates a list of aggregates in one scan.
func (db *DB) runAggregates(rel *storage.Relation, s Select, whereIdx int) (*Result, error) {
	specs := s.Aggregates
	if len(specs) == 0 { // bare COUNT(*)
		specs = []AggSpec{{Func: "count", Col: "*"}}
	}
	type accum struct {
		sum      float64
		min, max float64
		n        int64
		colIdx   int
	}
	accs := make([]accum, len(specs))
	cols := make([]string, len(specs))
	for i, sp := range specs {
		cols[i] = sp.Func
		if sp.Col == "*" {
			accs[i].colIdx = -1
			continue
		}
		ci := rel.Schema.ColIndex(sp.Col)
		if ci < 0 {
			return nil, fmt.Errorf("sql: column %q does not exist in %q", sp.Col, s.Table)
		}
		cols[i] = sp.Func + "(" + sp.Col + ")"
		accs[i].colIdx = ci
	}
	err := db.Pool.Scan(rel.Name, func(vals []float64) (bool, error) {
		if s.Where != nil && !evalPred(s.Where.Op, vals[whereIdx], s.Where.Val) {
			return true, nil
		}
		for i := range accs {
			a := &accs[i]
			a.n++
			if a.colIdx < 0 {
				continue
			}
			v := vals[a.colIdx]
			a.sum += v
			if a.n == 1 || v < a.min {
				a.min = v
			}
			if a.n == 1 || v > a.max {
				a.max = v
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	row := make([]float64, len(specs))
	for i, sp := range specs {
		a := accs[i]
		switch sp.Func {
		case "count":
			row[i] = float64(a.n)
		case "sum":
			row[i] = a.sum
		case "avg":
			if a.n > 0 {
				row[i] = a.sum / float64(a.n)
			}
		case "min":
			row[i] = a.min
		case "max":
			row[i] = a.max
		default:
			return nil, fmt.Errorf("sql: unknown aggregate %q", sp.Func)
		}
	}
	return &Result{Cols: cols, Rows: [][]float64{row}}, nil
}

func evalPred(op string, a, b float64) bool {
	switch op {
	case "=":
		return a == b
	case "<>":
		return a != b
	case "<":
		return a < b
	case ">":
		return a > b
	case "<=":
		return a <= b
	case ">=":
		return a >= b
	default:
		return false
	}
}
