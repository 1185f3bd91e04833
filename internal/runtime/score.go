package runtime

import (
	"fmt"

	"dana/internal/accessengine"
	"dana/internal/backend"
	"dana/internal/catalog"
	"dana/internal/storage"
)

// scorePass is one UDF's batch-scoring state, kept on the System between
// its Scores: the runner that pins and walks the relation's pages on one
// Strider, the scorer over the widened model and the row each float32
// tuple is widened into. It is valid for the (UDF, relation, accelerator)
// it was built for and rebuilt when a Score resolves another.
type scorePass struct {
	udf   *catalog.UDF
	acc   *catalog.Accelerator
	r     *epochRunner
	model []float64
	row   []float64
	sc    *backend.RowScorer
	n     int // rows scored so far in this Score
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
// hands Train: a relation the record cache holds is scored from its
// rows, any other by an epoch of the executor on one Strider with a
// scoring sink, which pins its pages through the pool (its reads land on
// the pool's run ledger, as a SQL scan's do) and fills no cache. No
// fault is injected on its Strider, and it charges no modeled cycles.
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
	// The pass and the recycled page result are checked out for the call
	// and put back only after a good one, as Train keeps its backend:
	// concurrent Scores never share either.
	s.keptMu.Lock()
	p, res := s.scoring[udfName], s.scoreRes
	delete(s.scoring, udfName)
	s.scoreRes = accessengine.PageResult{}
	s.keptMu.Unlock()
	if p == nil || p.udf != udf || p.r.rel != rel || p.acc != acc {
		if p, err = s.newScorePass(udf, rel, acc, job.Class); err != nil {
			return 0, err
		}
	}
	clear(p.model)
	for i, v := range model {
		p.model[i] = float64(v)
	}
	p.n, p.r.spillRes = 0, res
	if ent := s.cache.lookup(rel, s.DB.Pool.InvalidationCount()); ent != nil {
		err = p.scoreRows(ent.rows, each)
	} else {
		err = p.r.extractPages(func(pr *accessengine.PageResult) error { return p.scoreRows(pr.Rows, each) })
	}
	if err != nil {
		return 0, err
	}
	s.keptMu.Lock()
	s.scoring[udfName] = p
	s.scoreRes, p.r.spillRes = p.r.spillRes, accessengine.PageResult{}
	s.keptMu.Unlock()
	return p.n, nil
}

// newScorePass builds the pass for a resolved (UDF, relation,
// accelerator): a Score's runner over one Strider walking the relation's
// pages, as Train's extraction does.
func (s *System) newScorePass(udf *catalog.UDF, rel *storage.Relation, acc *catalog.Accelerator, class backend.Class) (*scorePass, error) {
	r, err := s.newEpochFeed(rel, nil, 1)
	if err != nil {
		return nil, err
	}
	p := &scorePass{
		udf: udf, acc: acc, r: r,
		model: make([]float64, udf.Graph.ModelSize()),
		row:   make([]float64, rel.Schema.NumCols()),
	}
	if p.sc, err = backend.NewRowScorer(class, udf.Graph, p.model); err != nil {
		return nil, err
	}
	return p, nil
}

// scoreRows scores rows, each widened into the pass's row, numbering
// them on from the rows already scored.
//
//dana:hotpath
func (p *scorePass) scoreRows(rows [][]float32, each func(i int, score float64)) error {
	for _, r32 := range rows {
		row := p.row[:len(r32)]
		for j, v := range r32 {
			row[j] = float64(v)
		}
		v, err := p.sc.Score(p.n, row)
		if err != nil {
			return err
		}
		if each != nil {
			each(p.n, v)
		}
		p.n++
	}
	return nil
}
