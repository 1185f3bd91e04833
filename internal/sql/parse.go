// Package sql implements the front half of the RDBMS substrate: a small
// SQL dialect (CREATE TABLE / INSERT / SELECT / DROP) with the paper's
// UDF invocation form `SELECT * FROM dana.<udf>('table')`, parsed into
// logical plans and executed volcano-style over the buffer pool.
package sql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// CreateTable is `CREATE TABLE name (col type, ...)`.
type CreateTable struct {
	Name string
	Cols []ColDef
}

// ColDef is one column definition.
type ColDef struct {
	Name string
	Type string
}

// Insert is `INSERT INTO name VALUES (...), (...)`.
type Insert struct {
	Table string
	Rows  [][]float64
}

// Select is `SELECT list FROM t [WHERE col op val] [LIMIT n]`.
type Select struct {
	Columns    []string  // nil means *
	CountAll   bool      // SELECT COUNT(*)
	Aggregates []AggSpec // SUM/AVG/MIN/MAX(col) list
	Table      string
	UDF        string // non-empty for dana.<udf>('table')
	UDFArg     string
	Where      *Predicate
	Limit      int // -1 = none
}

// AggSpec is one aggregate in the select list.
type AggSpec struct {
	Func string // sum, avg, min, max, count
	Col  string // column name ("*" for count)
}

// Predicate is a simple column-vs-constant comparison.
type Predicate struct {
	Col string
	Op  string // = <> < > <= >=
	Val float64
}

// DropTable is `DROP TABLE name`.
type DropTable struct{ Name string }

func (CreateTable) stmt() {}
func (Insert) stmt()      {}
func (Select) stmt()      {}
func (DropTable) stmt()   {}

// --- lexer -------------------------------------------------------------

type sqlTokKind uint8

const (
	sEOF sqlTokKind = iota
	sIdent
	sNumber
	sString
	sPunct
)

type sqlTok struct {
	kind sqlTokKind
	text string // idents lowercased
	pos  int
}

func lexSQL(src string) ([]sqlTok, error) {
	var toks []sqlTok
	rs := []rune(src)
	i := 0
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '-' && i+1 < len(rs) && rs[i+1] == '-': // comment
			for i < len(rs) && rs[i] != '\n' {
				i++
			}
		case r == '\'':
			j := i + 1
			for j < len(rs) && rs[j] != '\'' {
				j++
			}
			if j == len(rs) {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", i)
			}
			toks = append(toks, sqlTok{sString, string(rs[i+1 : j]), i})
			i = j + 1
		case unicode.IsLetter(r) || r == '_':
			j := i
			for j < len(rs) && (unicode.IsLetter(rs[j]) || unicode.IsDigit(rs[j]) || rs[j] == '_') {
				j++
			}
			toks = append(toks, sqlTok{sIdent, strings.ToLower(string(rs[i:j])), i})
			i = j
		case unicode.IsDigit(r) || (r == '-' && i+1 < len(rs) && unicode.IsDigit(rs[i+1])),
			r == '+' && i+1 < len(rs) && unicode.IsDigit(rs[i+1]):
			j := i + 1
			for j < len(rs) && (unicode.IsDigit(rs[j]) || rs[j] == '.' || rs[j] == 'e' || rs[j] == 'E' ||
				((rs[j] == '+' || rs[j] == '-') && (rs[j-1] == 'e' || rs[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, sqlTok{sNumber, string(rs[i:j]), i})
			i = j
		case strings.ContainsRune("(),;*.=", r):
			toks = append(toks, sqlTok{sPunct, string(r), i})
			i++
		case r == '<' || r == '>':
			op := string(r)
			if i+1 < len(rs) && (rs[i+1] == '=' || (r == '<' && rs[i+1] == '>')) {
				op += string(rs[i+1])
				i++
			}
			toks = append(toks, sqlTok{sPunct, op, i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", r, i)
		}
	}
	toks = append(toks, sqlTok{sEOF, "", len(rs)})
	return toks, nil
}

// --- parser ------------------------------------------------------------

type sqlParser struct {
	toks []sqlTok
	pos  int
}

// ParseAll parses a semicolon-separated script.
func ParseAll(src string) ([]Statement, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	var stmts []Statement
	for {
		for p.acceptPunct(";") {
		}
		if p.peek().kind == sEOF {
			return stmts, nil
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
}

func (p *sqlParser) peek() sqlTok { return p.toks[p.pos] }

func (p *sqlParser) next() sqlTok {
	t := p.toks[p.pos]
	if t.kind != sEOF {
		p.pos++
	}
	return t
}

func (p *sqlParser) acceptPunct(s string) bool {
	if p.peek().kind == sPunct && p.peek().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) acceptKeyword(kw string) bool {
	if p.peek().kind == sIdent && p.peek().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s near offset %d", strings.ToUpper(kw), p.peek().pos)
	}
	return nil
}

func (p *sqlParser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return fmt.Errorf("sql: expected %q near offset %d, found %q", s, p.peek().pos, p.peek().text)
	}
	return nil
}

func (p *sqlParser) ident() (string, error) {
	if p.peek().kind != sIdent {
		return "", fmt.Errorf("sql: expected identifier near offset %d, found %q", p.peek().pos, p.peek().text)
	}
	return p.next().text, nil
}

func (p *sqlParser) number() (float64, error) {
	if p.peek().kind != sNumber {
		return 0, fmt.Errorf("sql: expected number near offset %d, found %q", p.peek().pos, p.peek().text)
	}
	v, err := strconv.ParseFloat(p.next().text, 64)
	if err != nil {
		return 0, fmt.Errorf("sql: bad number: %w", err)
	}
	return v, nil
}

func (p *sqlParser) statement() (Statement, error) {
	switch {
	case p.acceptKeyword("create"):
		return p.createTable()
	case p.acceptKeyword("insert"):
		return p.insert()
	case p.acceptKeyword("select"):
		return p.selectStmt()
	case p.acceptKeyword("drop"):
		return p.dropTable()
	default:
		return nil, fmt.Errorf("sql: expected statement near offset %d, found %q", p.peek().pos, p.peek().text)
	}
}

func (p *sqlParser) createTable() (Statement, error) {
	if err := p.expectKeyword("table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []ColDef
	for {
		cn, err := p.ident()
		if err != nil {
			return nil, err
		}
		tn, err := p.ident()
		if err != nil {
			return nil, err
		}
		// "double precision" is a two-word type name.
		if tn == "double" && p.peek().kind == sIdent && p.peek().text == "precision" {
			p.next()
			tn = "double precision"
		}
		cols = append(cols, ColDef{Name: cn, Type: tn})
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return CreateTable{Name: name, Cols: cols}, nil
}

func (p *sqlParser) insert() (Statement, error) {
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	var rows [][]float64
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []float64
		for {
			v, err := p.number()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.acceptPunct(",") {
			break
		}
	}
	return Insert{Table: name, Rows: rows}, nil
}

func (p *sqlParser) selectStmt() (Statement, error) {
	sel := Select{Limit: -1}
	isAgg := func(name string) bool {
		switch name {
		case "count", "sum", "avg", "min", "max":
			return true
		}
		return false
	}
	switch {
	case p.acceptPunct("*"):
	case p.peek().kind == sIdent && isAgg(p.peek().text) &&
		p.toks[p.pos+1].kind == sPunct && p.toks[p.pos+1].text == "(":
		for {
			fn := p.next().text
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			var col string
			if p.acceptPunct("*") {
				if fn != "count" {
					return nil, fmt.Errorf("sql: %s(*) is not supported", fn)
				}
				col = "*"
			} else {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				col = c
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			if fn == "count" && col == "*" && len(sel.Aggregates) == 0 {
				sel.CountAll = true
			}
			sel.Aggregates = append(sel.Aggregates, AggSpec{Func: fn, Col: col})
			if !p.acceptPunct(",") {
				break
			}
			if p.peek().kind != sIdent || !isAgg(p.peek().text) {
				return nil, fmt.Errorf("sql: cannot mix aggregates and plain columns")
			}
		}
		if len(sel.Aggregates) > 1 || !sel.CountAll {
			sel.CountAll = false
		}
	default:
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			sel.Columns = append(sel.Columns, c)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	first, err := p.ident()
	if err != nil {
		return nil, err
	}
	if first == "dana" && p.acceptPunct(".") {
		udf, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.peek().kind != sString {
			return nil, fmt.Errorf("sql: dana.%s needs a quoted table name", udf)
		}
		sel.UDF = udf
		sel.UDFArg = p.next().text
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	} else {
		sel.Table = first
	}
	if p.acceptKeyword("where") {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != sPunct {
			return nil, fmt.Errorf("sql: expected comparison operator near offset %d", p.peek().pos)
		}
		op := p.next().text
		switch op {
		case "=", "<", ">", "<=", ">=", "<>":
		default:
			return nil, fmt.Errorf("sql: unsupported operator %q", op)
		}
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		sel.Where = &Predicate{Col: col, Op: op, Val: v}
	}
	if p.acceptKeyword("limit") {
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		sel.Limit = int(v)
	}
	return sel, nil
}

func (p *sqlParser) dropTable() (Statement, error) {
	if err := p.expectKeyword("table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return DropTable{Name: name}, nil
}
