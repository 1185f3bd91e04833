package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"dana/internal/accessengine"
	"dana/internal/backend"
	"dana/internal/catalog"
	"dana/internal/greenplum"
	"dana/internal/storage"
	"dana/internal/strider"
	"dana/internal/weaving"
)

// Layer names: the repository's packages, plus bench for the harness's own
// time between calls.
const (
	layerBench        = "bench"
	layerCatalog      = "catalog"
	layerBackend      = "backend"
	layerBufpool      = "bufpool"
	layerStrider      = "strider"
	layerAccessEngine = "accessengine"
	layerEngine       = "engine"
	layerWeaving      = "weaving"
	layerServer       = "server"
)

// Span names the ledger reads back.
const (
	spanOp         = "op"
	spanPin        = "Pool.Pin"
	spanUnpin      = "Pool.Unpin"
	spanExtract    = "Engine.ExtractPage"
	spanWait       = "extraction.wait"
	spanFeed       = "EpochStream.Feed"
	spanRunStream  = "Backend.RunEpoch(stream)"
	spanRunRows    = "Backend.RunEpoch(rows)"
	spanConfigure  = "Backend.Configure"
	spanReweave    = "weaving.ReweaveRows"
	spanWalk       = "strider_walk"
	spanVMRun      = "VM.Run"
	spanPick       = "Dispatcher.Pick"
	spanBuildPage  = "storage.BuildWeavePage"
	spanDecodeRows = "Extractor.DecodeRows"
)

// recordCache is the replica's own extracted-record cache: what
// runtime.System keeps across epochs for a table that fits the pool.
type recordCache struct {
	pages []accessengine.PageResult
	rows  [][]float32
}

// trainReplica is dana.Engine.Train rebuilt in bench from the layers'
// public functions, against the same engine instance: catalog lookups,
// backend dispatch and Configure, then per epoch either a replay of the
// record cache or Pool.Pin -> Engine.ExtractPage -> engine feed ->
// Pool.Unpin through the executor's serial or parallel fork. It must produce Train's
// model bit for bit, or the layer ledger describes a different program.
type trainReplica struct {
	in        *trainInst
	disp      *backend.Dispatcher
	env       backend.Env
	udf       *catalog.UDF
	rel       *storage.Relation
	acc       *catalog.Accelerator
	job       backend.Job
	nStriders int
	pageSize  int
	fits      bool // the table fits the pool: extraction fills the cache
	cache     *recordCache
	ranges    []storage.WeaveRange
}

func newTrainReplica(in *trainInst) (*trainReplica, error) {
	eng, name := in.eng, in.algo.Name
	udf, err := eng.Catalog().UDF(name)
	if err != nil {
		return nil, err
	}
	rel, err := eng.Catalog().Table(in.d.Rel.Name)
	if err != nil {
		return nil, err
	}
	acc, ok := eng.Catalog().Accelerator(name)
	if !ok {
		return nil, fmt.Errorf("bench: no accelerator stored for UDF %q", name)
	}
	env := backend.Env{Obs: eng.Obs(), Cost: eng.CostParams(), FPGA: eng.FPGA()}
	r := &trainReplica{
		in: in, env: env, udf: udf, rel: rel, acc: acc,
		disp:      backend.NewDispatcher(env, append(backend.Builtins(), greenplum.ShardedRegistration())...),
		pageSize:  eng.Pool().PageSize(),
		fits:      rel.NumPages() <= eng.Pool().NumFrames(),
		nStriders: acc.Design.NumStriders,
	}
	if r.nStriders < 1 {
		r.nStriders = 1
	}
	if r.nStriders > 16 {
		r.nStriders = 16
	}
	r.job = r.buildJob()
	if r.fits && !in.w.cold {
		// A cached workload's timed Train only replays; fill the cache the
		// way the first Train did, without an engine behind it.
		ae, err := r.newAccessEngine()
		if err != nil {
			return nil, err
		}
		if err := r.extract(nil, ae, ae.NewCollector(), func([][]float32) error { return nil }); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// buildJob mirrors the dispatch job runtime.System derives for Train.
func (r *trainReplica) buildJob() backend.Job {
	g := r.udf.Graph
	class := backend.Classify(g)
	pages := r.rel.NumPages()
	perPage := 0
	if pages > 0 {
		perPage = (r.rel.NumTuples() + pages - 1) / pages
	}
	return backend.Job{
		Class:             class,
		Bits:              r.in.w.bits,
		Tuples:            r.rel.NumTuples(),
		Columns:           r.rel.Schema.NumCols(),
		Pages:             pages,
		PageSize:          r.pageSize,
		DatasetBytes:      int64(pages) * int64(r.pageSize),
		Epochs:            g.Epochs,
		MergeCoef:         g.MergeCoef,
		ModelParams:       g.ModelSize(),
		Engine:            r.acc.Program,
		Design:            r.acc.Design,
		StriderPageCycles: accessengine.PageCycles(r.rel.Schema, perPage),
		FlopsPerTuple:     backend.FlopsPerTuple(class, g),
		Warm:              true,
	}
}

func (r *trainReplica) program() backend.Program {
	return backend.Program{
		Graph:     r.udf.Graph,
		Engine:    r.acc.Program,
		EngineCfg: r.acc.Design.Engine,
		Striders:  r.nStriders,
		MergeCoef: r.udf.Graph.MergeCoef,
		PageSize:  r.pageSize,
		Tuples:    r.rel.NumTuples(),
		Bits:      r.job.Bits,
	}
}

func (r *trainReplica) newAccessEngine() (*accessengine.Engine, error) {
	ae, err := accessengine.New(strider.PostgresLayout(r.pageSize), r.rel.Schema, r.nStriders)
	if err != nil {
		return nil, err
	}
	ae.SetObs(r.env.Obs)
	return ae, nil
}

// replicaOnce builds the instance's replica on first use.
func (in *trainInst) replicaOnce() (*trainReplica, error) {
	if in.rep == nil {
		rep, err := newTrainReplica(in)
		if err != nil {
			return nil, err
		}
		in.rep = rep
	}
	return in.rep, nil
}

func (in *trainInst) replica(tr *tracer) (opResult, error) {
	rep, err := in.replicaOnce()
	if err != nil {
		return opResult{}, err
	}
	return rep.run(tr)
}

func (r *trainReplica) run(tr *tracer) (res opResult, err error) {
	root := tr.begin(layerBench, spanOp)
	defer func() { tr.end(root, 0) }()
	pool, cat := r.in.eng.Pool(), r.in.eng.Catalog()
	if r.in.w.cold {
		s := tr.begin(layerBufpool, "Pool.Invalidate")
		err = pool.Invalidate()
		tr.end(s, 0)
		if err != nil {
			return res, err
		}
		r.cache = nil
	}

	s := tr.begin(layerCatalog, "Catalog.lookup")
	_, err1 := cat.UDF(r.udf.Name)
	_, err2 := cat.Table(r.rel.Name)
	_, ok := cat.Accelerator(r.udf.Name)
	tr.end(s, 0)
	if err := errors.Join(err1, err2); err != nil {
		return res, err
	}
	if !ok {
		return res, fmt.Errorf("bench: no accelerator stored for UDF %q", r.udf.Name)
	}

	s = tr.begin(layerBackend, "Dispatcher.New+EstimateCost")
	be, _, err := r.disp.New(r.in.w.backend, r.job)
	if err == nil {
		_, err = be.EstimateCost(r.job)
	}
	tr.end(s, 0)
	if err != nil {
		return res, err
	}
	weave := r.job.Bits > 0
	if weave {
		// The weave backend reweaves inside RunEpoch, where no span from
		// outside can reach; drive its parts directly: the reweave, then
		// the accelerator engine it wraps.
		be = backend.NewAccel(r.env)
	}
	s = tr.begin(layerBackend, spanConfigure)
	err = be.Configure(r.program())
	tr.end(s, 0)
	if err != nil {
		return res, err
	}
	defer be.(backend.Closer).Close()

	s = tr.begin(layerAccessEngine, "accessengine.New")
	ae, err := r.newAccessEngine()
	tr.end(s, 0)
	if err != nil {
		return res, err
	}
	col := ae.NewCollector()
	r.ranges = nil
	for e := 0; e < r.job.Epochs; e++ {
		if r.cache != nil {
			err = r.replay(tr, be, col, weave)
		} else if weave {
			err = errors.New("bench: the weave replica only replays cached rows")
		} else {
			s := tr.begin(layerEngine, spanRunStream)
			err = be.RunEpoch(&backend.Stream{Batches: func(emit func([][]float32) error) error {
				return r.extract(tr, ae, col, emit)
			}})
			tr.end(s, 0)
		}
		if err != nil {
			return res, err
		}
	}

	s = tr.begin(layerBackend, "Backend.Model")
	model := be.Model()
	tr.end(s, 0)
	h := uint64(fnvOffset)
	for _, v := range model {
		h = fnvUint32(h, math.Float32bits(float32(v)))
	}
	return opResult{
		hash:    h,
		modeled: modeled{engine: be.(backend.CounterBackend).Counters(), access: ae.Stats()},
	}, nil
}

// replay is a cached epoch: charge the cached pages' modeled counters in
// page order and hand the materialised rows to the backend.
func (r *trainReplica) replay(tr *tracer, be backend.Backend, col *accessengine.Collector, weave bool) error {
	s := tr.begin(layerAccessEngine, "Collector.replay")
	col.Reset()
	for i := range r.cache.pages {
		col.Add(&r.cache.pages[i])
	}
	col.Flush()
	tr.end(s, int64(len(r.cache.pages)))
	rows := r.cache.rows
	if weave {
		s := tr.begin(layerWeaving, spanReweave)
		rewoven, ranges, err := weaving.ReweaveRows(rows, r.ranges, r.job.Bits, r.weavePageRows())
		tr.end(s, int64(len(rows)))
		if err != nil {
			return err
		}
		rows, r.ranges = rewoven, ranges
	}
	s = tr.begin(layerEngine, spanRunRows)
	err := be.RunEpoch(&backend.Stream{Rows32: rows})
	tr.end(s, int64(len(rows)))
	return err
}

func (r *trainReplica) weavePageRows() int {
	return storage.WeavePageRows(r.pageSize, r.udf.Graph.Model.Shape.Size())
}

// extract is one extracting epoch, through whichever of the executor's two
// forks the program takes: workers that pin, extract and unpin pages on
// their own while this goroutine feeds the engine in page order, when the
// table fits the pool and the host has more than one core; the serial
// twin otherwise. When the table fits, what was extracted is kept as the
// record cache, with a fresh result and arena extent per page as Train
// does; otherwise one result is recycled and the arena is a small window.
func (r *trainReplica) extract(tr *tracer, ae *accessengine.Engine, col *accessengine.Collector, emit func([][]float32) error) error {
	n := r.rel.NumPages()
	perPage := (r.rel.NumTuples() + n - 1) / n
	capPages := n + 1
	var ent *recordCache
	if r.fits {
		ent = &recordCache{pages: make([]accessengine.PageResult, 0, n)}
	} else if capPages > 16 {
		capPages = 16 // the executor's recycling window at one worker
	}
	arena := accessengine.NewArena(capPages * perPage * r.rel.Schema.NumCols())
	col.Reset()
	// sink consumes pages in page order on the issuing goroutine: modeled
	// counters, the engine feed, the cache fill.
	sink := func(res *accessengine.PageResult) error {
		col.Add(res)
		s := tr.begin(layerEngine, spanFeed)
		err := emit(res.Rows)
		tr.end(s, int64(len(res.Rows)))
		if ent != nil {
			ent.pages = append(ent.pages, *res)
			ent.rows = append(ent.rows, res.Rows...)
		}
		return err
	}
	workers := min(runtime.GOMAXPROCS(0), r.nStriders)
	var err error
	if r.fits && workers > 1 {
		err = r.extractParallel(tr, ae, arena, workers, sink)
	} else {
		err = r.extractSerial(tr, ae, arena, ent != nil, sink)
	}
	if err != nil {
		return err
	}
	col.Flush()
	if ent != nil {
		r.cache = ent
	}
	return nil
}

// extractPage is the per-page body both forks share: extract one pinned
// page into res on Strider vm.
func (r *trainReplica) extractPage(ln *lane, ae *accessengine.Engine, vm, pn int, pg storage.Page, res *accessengine.PageResult, arena *accessengine.Arena) error {
	res.PageNo, res.Arena = pn, arena
	s := ln.begin(layerAccessEngine, spanExtract)
	err := ae.ExtractPage(vm, pg, res)
	ln.end(s, int64(len(res.Rows)))
	return err
}

// extractSerial pins a group of NumStriders pages, extracts and sinks each
// in page order, then unpins the group: the executor's pool access order
// for a table larger than the pool.
func (r *trainReplica) extractSerial(tr *tracer, ae *accessengine.Engine, arena *accessengine.Arena, fresh bool, sink func(*accessengine.PageResult) error) error {
	pool, name, n := r.in.eng.Pool(), r.rel.Name, r.rel.NumPages()
	ln := tr.issuer()
	var shared accessengine.PageResult
	group := make([]storage.Page, 0, r.nStriders)
	for first := 0; first < n; first += r.nStriders {
		group = group[:0]
		var err error
		for pn := first; pn < min(first+r.nStriders, n) && err == nil; pn++ {
			var pg storage.Page
			s := tr.begin(layerBufpool, spanPin)
			pg, err = pool.Pin(name, uint32(pn))
			tr.end(s, 1)
			if err == nil {
				group = append(group, pg)
			}
		}
		for i, pg := range group {
			if err != nil {
				break
			}
			res := &shared
			if fresh {
				res = new(accessengine.PageResult)
			}
			if err = r.extractPage(ln, ae, i, first+i, pg, res, arena); err == nil {
				err = sink(res)
			}
		}
		for i := range group {
			s := tr.begin(layerBufpool, spanUnpin)
			uerr := pool.Unpin(name, uint32(first+i))
			tr.end(s, 1)
			if err == nil {
				err = uerr
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// extractParallel mirrors the executor's worker pool: worker i owns Strider
// i and the pages pn = i mod workers, and hands results over a bounded
// channel; this goroutine takes them in page order. The time it spends
// blocked on a worker is the part of extraction the engine did not hide.
func (r *trainReplica) extractParallel(tr *tracer, ae *accessengine.Engine, arena *accessengine.Arena, workers int, sink func(*accessengine.PageResult) error) error {
	pool, name, n := r.in.eng.Pool(), r.rel.Name, r.rel.NumPages()
	const depth = 4 // the executor's default bound on unconsumed pages per worker
	outs := make([]chan *accessengine.PageResult, workers)
	errCh := make(chan error, workers) // one send per worker at most
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		outs[i] = make(chan *accessengine.PageResult, depth)
		ln := tr.worker(i + 1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(outs[i])
			for pn := i; pn < n; pn += workers {
				s := ln.begin(layerBufpool, spanPin)
				pg, err := pool.Pin(name, uint32(pn))
				ln.end(s, 1)
				res := new(accessengine.PageResult)
				if err == nil {
					err = r.extractPage(ln, ae, i, pn, pg, res, arena)
					s = ln.begin(layerBufpool, spanUnpin)
					if uerr := pool.Unpin(name, uint32(pn)); err == nil {
						err = uerr
					}
					ln.end(s, 1)
				}
				if err != nil {
					errCh <- err
					return
				}
				select {
				case outs[i] <- res:
				case <-done:
					return
				}
			}
		}(i)
	}
	var err error
	for pn := 0; pn < n && err == nil; pn++ {
		s := tr.begin(layerAccessEngine, spanWait)
		res, ok := <-outs[pn%workers]
		tr.end(s, 1)
		if !ok {
			err = <-errCh
			break
		}
		err = sink(res)
	}
	close(done)
	wg.Wait()
	return err
}

// walkPages runs the Strider VM alone over every page, to split the page
// walk from the deformat that Engine.ExtractPage adds to it.
func (r *trainReplica) walkPages(tr *tracer) error {
	vm := strider.NewVM(r.acc.StriderProg, r.acc.StriderCfg)
	vm.Reserve(r.pageSize)
	pool, name := r.in.eng.Pool(), r.rel.Name
	root := tr.begin(layerBench, spanWalk)
	defer func() { tr.end(root, 0) }()
	for pn := 0; pn < r.rel.NumPages(); pn++ {
		pg, err := pool.Pin(name, uint32(pn))
		if err != nil {
			return err
		}
		s := tr.begin(layerStrider, spanVMRun)
		err = vm.Run(pg)
		tr.end(s, 1)
		if uerr := pool.Unpin(name, uint32(pn)); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// weaveParts times the two halves of a reweave on the cached rows: building
// the vertical pages and decoding them at the workload's precision.
func (r *trainReplica) weaveParts(tr *tracer) error {
	rows := r.cache.rows
	nfeat := len(rows[0]) - 1
	feats := make([][]float32, len(rows))
	labels := make([]float32, len(rows))
	for i, row := range rows {
		feats[i], labels[i] = row[:nfeat], row[nfeat]
	}
	ranges := storage.WeaveRanges(feats, nfeat)
	ex, err := weaving.NewExtractor(r.job.Bits)
	if err != nil {
		return err
	}
	root := tr.begin(layerBench, spanWeaveParts)
	defer func() { tr.end(root, 0) }()
	pageRows := r.weavePageRows()
	for at := 0; at < len(rows); at += pageRows {
		end := min(at+pageRows, len(rows))
		s := tr.begin(layerWeaving, spanBuildPage)
		p, err := storage.BuildWeavePage(ranges, feats[at:end], labels[at:end])
		tr.end(s, int64(end-at))
		if err != nil {
			return err
		}
		s = tr.begin(layerWeaving, spanDecodeRows)
		_, err = ex.DecodeRows(p)
		tr.end(s, int64(end-at))
		if err != nil {
			return err
		}
	}
	return nil
}

// weaveReference trains the golden float64 cpu backend on the cached rows
// rewoven at the workload's precision.
func (r *trainReplica) weaveReference() ([]float64, error) {
	rewoven, _, err := weaving.ReweaveRows(r.cache.rows, nil, r.job.Bits, r.weavePageRows())
	if err != nil {
		return nil, err
	}
	rows64 := make([][]float64, len(rewoven))
	for i, row := range rewoven {
		rows64[i] = widen(row)
	}
	cpu := backend.NewCPU(r.env)
	prog := r.program()
	prog.Bits = 0
	if err := cpu.Configure(prog); err != nil {
		return nil, err
	}
	for e := 0; e < r.job.Epochs; e++ {
		if err := cpu.RunEpoch(&backend.Stream{Rows64: rows64}); err != nil {
			return nil, err
		}
	}
	return cpu.Model(), nil
}
