package runtime

import (
	"fmt"

	"dana/internal/accessengine"
	"dana/internal/backend"
	"dana/internal/catalog"
	"dana/internal/storage"
	"dana/internal/strider"
)

// scorePass is one UDF's batch-scoring state, kept on the System between
// its Scores: the access engine built from the UDF's accelerator and the
// scorer over the widened model. It is valid for the (UDF, relation,
// accelerator) it was built for and rebuilt when a Score resolves
// another.
type scorePass struct {
	udf   *catalog.UDF
	rel   *storage.Relation
	acc   *catalog.Accelerator
	ae    *accessengine.Engine
	model []float64
	sc    *backend.RowScorer
}

// scoreBuf is what a Score decodes into: the one page result the walker
// refills and the row each float32 tuple is widened into. A System keeps
// one for all its UDFs, so the page-sized buffer is held once, not once
// per scored UDF.
type scoreBuf struct {
	res accessengine.PageResult
	row []float64
}

// refuseDead is the precondition Train and Score share. DAnA reads
// append-only snapshots (see Relation.Vacuum), and the walker decodes a
// dead line pointer's storage as a live tuple, so a relation holding dead
// tuples is refused, typed, before anything reads it.
func refuseDead(rel *storage.Relation) error {
	if n := rel.NumDead(); n > 0 {
		return fmt.Errorf("runtime: table %q holds %d dead tuples; VACUUM it first: %w",
			rel.Name, n, storage.ErrBadItem)
	}
	return nil
}

// Score runs a batch-scoring pass of a registered UDF over a table with
// model (nil scores with zeros) and returns the number of rows scored;
// the scores themselves are not kept. Every row is the value extraction
// hands Train: each heap page goes through the walker of the UDF's
// accelerator, and through its Strider VM only when the walker declines
// it. The pages come from the relation itself, not the buffer pool, and
// no fault injector is attached: a Score pins no frame, reads no modeled
// I/O and charges no Strider or engine cycles. It runs on the caller, on
// Strider 0.
func (s *System) Score(udfName, table string, model []float32) (int, error) {
	return s.score(udfName, table, model, nil)
}

// score is Score with each, when set, handed every row's score in order.
func (s *System) score(udfName, table string, model []float32, each func(i int, score float64)) (int, error) {
	udf, rel, acc, job, err := s.resolve(udfName, table, 0)
	if err != nil {
		return 0, err
	}
	if err := refuseDead(rel); err != nil {
		return 0, err
	}
	if model != nil && len(model) != udf.Graph.ModelSize() {
		return 0, fmt.Errorf("runtime: score model size %d, UDF %q has %d", len(model), udfName, udf.Graph.ModelSize())
	}
	// The pass and the buffer are checked out for the call and put back
	// only after a good one, as Train keeps its backend: concurrent Scores
	// never share either.
	s.keptMu.Lock()
	p, buf := s.scoring[udfName], s.scoreBuf
	delete(s.scoring, udfName)
	s.scoreBuf = nil
	s.keptMu.Unlock()
	if p == nil || p.udf != udf || p.rel != rel || p.acc != acc {
		if p, err = s.newScorePass(udf, rel, acc, job.Class); err != nil {
			return 0, err
		}
	}
	if buf == nil {
		buf = new(scoreBuf)
	}
	if cols := rel.Schema.NumCols(); cap(buf.row) < cols {
		buf.row = make([]float64, cols)
	}
	clear(p.model)
	for i, v := range model {
		p.model[i] = float64(v)
	}
	n, err := p.run(buf, each)
	if err != nil {
		return 0, err
	}
	s.keptMu.Lock()
	s.scoring[udfName], s.scoreBuf = p, buf
	s.keptMu.Unlock()
	return n, nil
}

// newScorePass builds the pass for a resolved (UDF, relation,
// accelerator): one Strider running the accelerator's verified program,
// as Train's extraction does.
func (s *System) newScorePass(udf *catalog.UDF, rel *storage.Relation, acc *catalog.Accelerator, class backend.Class) (*scorePass, error) {
	ae, err := accessengine.NewFor(strider.PostgresLayout(s.Opts.PageSize), rel.Schema, 1, acc.StriderProg, acc.StriderCfg)
	if err != nil {
		return nil, err
	}
	p := &scorePass{udf: udf, rel: rel, acc: acc, ae: ae, model: make([]float64, udf.Graph.ModelSize())}
	if p.sc, err = backend.NewRowScorer(class, udf.Graph, p.model); err != nil {
		return nil, err
	}
	return p, nil
}

// run extracts every heap page in page order on Strider 0 into buf and
// scores its rows, each widened into buf's row.
//
//dana:hotpath
func (p *scorePass) run(buf *scoreBuf, each func(i int, score float64)) (int, error) {
	n := 0
	for pn, pages := 0, p.rel.NumPages(); pn < pages; pn++ {
		pg, err := p.rel.Page(pn)
		if err != nil {
			return 0, err
		}
		buf.res.PageNo = pn
		if err := p.ae.ExtractPage(0, pg, &buf.res); err != nil {
			return 0, err
		}
		for _, r32 := range buf.res.Rows {
			row := buf.row[:len(r32)]
			for j, v := range r32 {
				row[j] = float64(v)
			}
			v, err := p.sc.Score(n, row)
			if err != nil {
				return 0, err
			}
			if each != nil {
				each(n, v)
			}
			n++
		}
	}
	return n, nil
}
