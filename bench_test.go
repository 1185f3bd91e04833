package dana

// Benchmark harness (run `go test -bench=. -benchmem`): component
// benchmarks that measure the real throughput of the simulators
// themselves, plus the two supplementary studies. The paper's tables and
// figures are regenerated by `danabench -exp` and checked by
// internal/experiments' tests, not timed here.

import (
	"fmt"
	"math"
	"math/rand"
	hostrt "runtime"
	"testing"

	"dana/internal/accessengine"
	"dana/internal/algos"
	"dana/internal/backend"
	"dana/internal/bufpool"
	"dana/internal/catalog"
	"dana/internal/compiler"
	"dana/internal/cost"
	"dana/internal/datagen"
	"dana/internal/engine"
	"dana/internal/experiments"
	"dana/internal/hdfg"
	"dana/internal/sql"
	"dana/internal/storage"
	"dana/internal/strider"
	"dana/internal/weaving"
)

// --- Supplementary experiments ----------------------------------------------

// BenchmarkPageSizeSweep reproduces the paper's 8/16/32 KB page-size
// sensitivity study (no significant impact).
func BenchmarkPageSizeSweep(b *testing.B) {
	env := experiments.DefaultEnv()
	var rows []experiments.PageSizeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PageSizeSweep(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	var worst float64
	for _, r := range rows {
		for _, v := range []float64{r.PG8K, r.PG16K} {
			if d := v - 1; d > worst || -d > worst {
				if d < 0 {
					d = -d
				}
				worst = d
			}
		}
	}
	b.ReportMetric(100*worst, "max-sensitivity-pct")
}

// BenchmarkBatchConvergence runs the functional batch-size/epochs study
// on one workload (supplementary tables).
func BenchmarkBatchConvergence(b *testing.B) {
	env := experiments.DefaultEnv()
	var rows []experiments.ConvergenceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.BatchConvergence([]string{"Remote Sensing LR"}, env, 0.002, 0.5, 300)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Epochs[1]), "epochs-batch1")
	b.ReportMetric(float64(rows[0].Epochs[64]), "epochs-batch64")
}

// BenchmarkStriderInnoDBWalk measures the MySQL/InnoDB chain walker.
func BenchmarkStriderInnoDBWalk(b *testing.B) {
	schema := storage.NumericSchema(54)
	rel := storage.NewInnoRelation("bench", schema, storage.PageSize32K)
	for i := 0; i < 256; i++ {
		if err := rel.Insert(make([]float64, 55)); err != nil {
			b.Fatal(err)
		}
	}
	page, err := rel.Page(0)
	if err != nil {
		b.Fatal(err)
	}
	prog, cfg, err := strider.GenerateInnoDB(strider.InnoDBLayout(storage.PageSize32K, schema))
	if err != nil {
		b.Fatal(err)
	}
	vm := strider.NewVM(prog, cfg)
	b.SetBytes(int64(storage.PageSize32K))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vm.Run([]byte(page)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component throughput benchmarks ---------------------------------------

// BenchmarkStriderPageWalk measures the Strider VM unpacking full 32 KB
// pages (tuple extraction throughput in tuples/sec). The VM is the
// oracle of the access engine's direct pass, not its production path:
// BenchmarkExtractPage times that.
func BenchmarkStriderPageWalk(b *testing.B) {
	schema := storage.NumericSchema(54)
	rel := storage.NewRelation("bench", schema, storage.PageSize32K)
	rows := make([][]float64, 0, 256)
	for i := 0; i < 256; i++ {
		vals := make([]float64, 55)
		for j := range vals {
			vals[j] = float64(i + j)
		}
		rows = append(rows, vals)
	}
	if err := rel.InsertBatch(rows); err != nil {
		b.Fatal(err)
	}
	page, err := rel.Page(0)
	if err != nil {
		b.Fatal(err)
	}
	prog, cfg, err := strider.Generate(strider.PostgresLayout(storage.PageSize32K))
	if err != nil {
		b.Fatal(err)
	}
	vm := strider.NewVM(prog, cfg)
	tuplesPerPage := page.NumItems()
	b.SetBytes(int64(storage.PageSize32K))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vm.Run(page); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tuplesPerPage)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// fullPage returns a page of the schema filled to capacity.
func fullPage(b *testing.B, schema *storage.Schema, pageSize int) storage.Page {
	b.Helper()
	rel := storage.NewRelation("bench", schema, pageSize)
	for rel.NumPages() < 2 {
		if _, err := rel.Insert(make([]float64, schema.NumCols())); err != nil {
			b.Fatal(err)
		}
	}
	page, err := rel.Page(0)
	if err != nil {
		b.Fatal(err)
	}
	return page
}

// BenchmarkExtractPage measures the production extraction path — one
// direct pass over a full 32 KB page — on the packed float4 schema
// (Remote Sensing: 54 features + label) and on the int/int/float rating
// schema that takes the per-column convert list. f4x55 and netflix
// extract into a recycled PageResult, as a spill scan and a Score do,
// so f4x55's rows are views of the page; f4x55_fresh extracts into a
// fresh result with an arena extent per page, as the record-cache fill
// does, so its rows are copied.
func BenchmarkExtractPage(b *testing.B) {
	for _, c := range []struct {
		name   string
		schema *storage.Schema
		fresh  bool
	}{
		{"f4x55", storage.NumericSchema(54), false},
		{"f4x55_fresh", storage.NumericSchema(54), true},
		{"netflix", storage.RatingSchema(), false},
	} {
		b.Run(c.name, func(b *testing.B) {
			page := fullPage(b, c.schema, storage.PageSize32K)
			ae, err := accessengine.New(strider.PostgresLayout(storage.PageSize32K), c.schema, 1)
			if err != nil {
				b.Fatal(err)
			}
			arena := accessengine.NewArena(page.NumItems() * c.schema.NumCols())
			var res accessengine.PageResult
			b.SetBytes(int64(page.NumItems() * c.schema.DataWidth()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.fresh {
					arena.Reset()
					res = accessengine.PageResult{Arena: arena}
				}
				if err := ae.ExtractPage(0, page, &res); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Rows))*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkEngineUpdateRule measures the execution-engine simulator's
// per-tuple update throughput (linear regression, 54 features, 8-way
// merge).
func BenchmarkEngineUpdateRule(b *testing.B) {
	w, _ := datagen.ByName("Remote Sensing LR")
	d, err := datagen.Generate(w, 0.001, storage.PageSize32K, 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := d.DSLAlgo(8)
	if err != nil {
		b.Fatal(err)
	}
	g, err := hdfg.Translate(a)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := compiler.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	m, err := engine.NewMachine(prog, engine.Config{
		Threads: 8, ACsPerThread: 2, AUsPerAC: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([][]float32, 8)
	for i := range batch {
		batch[i] = make([]float32, 55)
		for j := range batch[i] {
			batch[i][j] = float32(j)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkInterpreterUpdateRule is the float64 golden model's
// throughput on the same update rule, for comparison.
func BenchmarkInterpreterUpdateRule(b *testing.B) {
	w, _ := datagen.ByName("Remote Sensing LR")
	d, err := datagen.Generate(w, 0.001, storage.PageSize32K, 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := d.DSLAlgo(8)
	if err != nil {
		b.Fatal(err)
	}
	g, err := hdfg.Translate(a)
	if err != nil {
		b.Fatal(err)
	}
	it, err := hdfg.NewInterp(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([][]float64, 8)
	for i := range batch {
		batch[i] = make([]float64, 55)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := it.StepBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBufferPoolPin measures hit-path pin/unpin latency.
func BenchmarkBufferPoolPin(b *testing.B) {
	schema := storage.NumericSchema(9)
	rel := storage.NewRelation("bench", schema, storage.PageSize8K)
	if _, err := rel.Insert(make([]float64, 10)); err != nil {
		b.Fatal(err)
	}
	pool := bufpool.New(16, storage.PageSize8K, cost.Default().Disk)
	if err := pool.AttachRelation(rel); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Pin("bench", 0); err != nil {
			b.Fatal(err)
		}
		if err := pool.Unpin("bench", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBufferPoolMiss measures miss-path pin/unpin latency: a
// one-frame pool alternates two 32 KB pages, so every pin evicts the
// other page and reads its own (the disk time is charged to the I/O
// clock, not spent).
func BenchmarkBufferPoolMiss(b *testing.B) {
	rel := storage.NewRelation("bench", storage.NumericSchema(9), storage.PageSize32K)
	for rel.NumPages() < 2 {
		if _, err := rel.Insert(make([]float64, 10)); err != nil {
			b.Fatal(err)
		}
	}
	pool := bufpool.New(1, storage.PageSize32K, cost.Default().Disk)
	if err := pool.AttachRelation(rel); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pn := uint32(i & 1)
		if _, err := pool.Pin("bench", pn); err != nil {
			b.Fatal(err)
		}
		if err := pool.Unpin("bench", pn); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := pool.Stats(); st.Hits != 0 || st.Misses != int64(b.N) {
		b.Fatalf("%d hits, %d misses in %d pins: want every pin to miss", st.Hits, st.Misses, b.N)
	}
}

// BenchmarkSQLSeqScan measures the volcano executor's scan rate.
func BenchmarkSQLSeqScan(b *testing.B) {
	db := sql.NewDB(storage.PageSize8K, 16<<20, cost.Default().Disk)
	if _, err := db.Exec("CREATE TABLE t (a float4, b float4, c float4)"); err != nil {
		b.Fatal(err)
	}
	stmt := "INSERT INTO t VALUES "
	for i := 0; i < 1000; i++ {
		if i > 0 {
			stmt += ", "
		}
		stmt += fmt.Sprintf("(%d, %d, %d)", i, i+1, i+2)
	}
	if _, err := db.Exec(stmt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec("SELECT COUNT(*) FROM t WHERE a >= 500")
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0][0] != 500 {
			b.Fatal("wrong count")
		}
	}
	b.ReportMetric(1000*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkDAnAFunctionalEpoch measures the full functional pipeline:
// buffer pool -> striders -> execution engine, per epoch.
func BenchmarkDAnAFunctionalEpoch(b *testing.B) {
	eng, err := Open(Config{PageSize: 32 << 10, PoolBytes: 128 << 20})
	if err != nil {
		b.Fatal(err)
	}
	d, err := eng.LoadWorkload("Remote Sensing LR", 0.005, 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := d.DSLAlgo(64)
	if err != nil {
		b.Fatal(err)
	}
	a.SetEpochs(1)
	if err := eng.RegisterUDF(a, 64); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Train(a.Name, d.Rel.Name); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkScorePass is one warm batch-scoring pass, a server score job's
// work: System.Score over Remote Sensing LR at scale 0.02, every heap page
// decoded by the walker of the UDF's accelerator and every row scored by
// backend.RowScorer, on the pass the first Score left kept. allocs/op is
// the row to watch: it does not grow with the table.
func BenchmarkScorePass(b *testing.B) {
	eng, d, a := openTrainBench(b, "Remote Sensing LR", 0.02, 64, hostrt.GOMAXPROCS(0), 1)
	if _, err := eng.sys.Score(a.Name, d.Rel.Name, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.sys.Score(a.Name, d.Rel.Name, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// --- Host-parallel executor benchmarks ---------------------------------------

// openTrainBench deploys a multi-page workload on an engine, registers
// its UDF, and sets GOMAXPROCS — where extraction takes its walker count
// from — to procs until the benchmark ends.
func openTrainBench(b *testing.B, workload string, scale float64, mergeCoef, procs, epochs int) (*Engine, *Dataset, *Algo) {
	b.Helper()
	prev := hostrt.GOMAXPROCS(procs)
	b.Cleanup(func() { hostrt.GOMAXPROCS(prev) })
	eng, err := Open(Config{PageSize: 32 << 10, PoolBytes: 128 << 20})
	if err != nil {
		b.Fatal(err)
	}
	d, err := eng.LoadWorkload(workload, scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := d.DSLAlgo(mergeCoef)
	if err != nil {
		b.Fatal(err)
	}
	a.SetEpochs(epochs)
	if err := eng.RegisterUDF(a, mergeCoef); err != nil {
		b.Fatal(err)
	}
	return eng, d, a
}

// BenchmarkParallelExtract measures the wall-clock of one full cold
// extraction epoch (disk read -> buffer pool -> Strider walk -> deformat
// -> engine, filling the record cache): every iteration drops the caches
// first, so it re-reads and re-walks every page — one goroutine
// (GOMAXPROCS 1) vs four walkers (GOMAXPROCS 4). Modeled cycle counts
// are identical across the variants.
func BenchmarkParallelExtract(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, d, a := openTrainBench(b, "Remote Sensing LR", 0.02, 64, workers, 1)
			b.SetBytes(int64(d.Rel.NumPages()) * int64(storage.PageSize32K))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.ColdCache(); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Train(a.Name, d.Rel.Name); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.Tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkAccelConfigure is the fixed cost a train job pays before its
// first tuple on the backend its tenant's last good Train of the UDF left
// configured: Accel.Configure (a Reset of the machine built for the same
// program — scratchpads zeroed, constants copied back — plus the epoch
// stream) and Close, on the four programs of the benchmark's server_mix
// as its tenants register them (scale 0.002, merge coefficient 1024, 2
// epochs). B/op is the row to watch: building the machine each job was
// 9.6-73 KB of it, a scratchpad per model thread 191-911 KB.
func BenchmarkAccelConfigure(b *testing.B) {
	for _, wl := range []struct{ name, workload string }{
		{"WLAN", "WLAN"}, {"Patient", "Patient"}, {"Blog", "Blog Feedback"}, {"RemoteSensingLR", "Remote Sensing LR"},
	} {
		b.Run(wl.name, func(b *testing.B) {
			eng, err := Open(Defaults())
			if err != nil {
				b.Fatal(err)
			}
			d, err := eng.LoadWorkload(wl.workload, 0.002, 1)
			if err != nil {
				b.Fatal(err)
			}
			a, err := d.DSLAlgo(1024)
			if err != nil {
				b.Fatal(err)
			}
			a.SetEpochs(2)
			if _, err := eng.sys.Register(a, 1024, d.Tuples); err != nil {
				b.Fatal(err)
			}
			udf, err := eng.Catalog().UDF(a.Name)
			if err != nil {
				b.Fatal(err)
			}
			acc, ok := eng.Catalog().Accelerator(a.Name)
			if !ok {
				b.Fatalf("no accelerator for %q", a.Name)
			}
			prog := backend.Program{
				Graph: udf.Graph, Engine: acc.Program, EngineCfg: acc.Design.Engine,
				Striders:  backend.InProcessStriders(acc.Design.NumStriders),
				MergeCoef: udf.Graph.MergeCoef, PageSize: Defaults().PageSize, Tuples: d.Tuples,
			}
			be := backend.NewAccel(backend.Env{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := be.Configure(prog); err != nil {
					b.Fatal(err)
				}
				be.Close()
			}
		})
	}
}

// BenchmarkTrainWallClock measures a multi-epoch training query end to
// end, at GOMAXPROCS 1 (one extraction goroutine), 4 and 8. The
// first iteration's first epoch fills the cross-epoch record cache;
// everything after replays it (the buffer pool and the Strider walk are
// skipped entirely), so the steady state is the engine's.
func BenchmarkTrainWallClock(b *testing.B) {
	const epochs = 8
	workloads := []struct {
		name      string
		workload  string
		scale     float64
		mergeCoef int
	}{
		{"LR", "Remote Sensing LR", 0.02, 64},
		{"LRMF", "Netflix", 0.004, 1},
	}
	configs := []struct {
		name  string
		procs int
	}{
		{"serial", 1},
		{"parallel4+cache", 4},
		{"parallel8+cache", 8},
	}
	for _, wl := range workloads {
		for _, cfg := range configs {
			b.Run(wl.name+"/"+cfg.name, func(b *testing.B) {
				eng, d, a := openTrainBench(b, wl.workload, wl.scale, wl.mergeCoef, cfg.procs, epochs)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Train(a.Name, d.Rel.Name); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(epochs*d.Tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
			})
		}
	}
}

// BenchmarkCompilePipeline measures DSL -> hDFG -> program -> design.
func BenchmarkCompilePipeline(b *testing.B) {
	env := experiments.DefaultEnv()
	w, _ := datagen.ByName("S/N Logistic")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CompileWorkload(w, env, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTupleCodec measures heap tuple encode+decode.
func BenchmarkTupleCodec(b *testing.B) {
	schema := storage.NumericSchema(54)
	vals := make([]float64, 55)
	for i := range vals {
		vals[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := storage.EncodeTuple(schema, vals, 1, storage.TID{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := storage.DecodeTuple(schema, nil, raw); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(schema.DataWidth()))
}

// BenchmarkListScheduler measures the §6.2 list scheduler on a compiled
// per-tuple program.
func BenchmarkListScheduler(b *testing.B) {
	env := experiments.DefaultEnv()
	w, _ := datagen.ByName("S/N Logistic")
	c, err := experiments.CompileWorkload(w, env, 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ilp float64
	for i := 0; i < b.N; i++ {
		s := compiler.ScheduleProgram(c.Program, c.Design.Engine)
		ilp = s.ILP()
	}
	b.ReportMetric(ilp, "ilp")
}

// BenchmarkCatalogSerialization times an accelerator's round trip
// through the catalog's export format: ExportAccelerator, then
// ImportAccelerator.
func BenchmarkCatalogSerialization(b *testing.B) {
	env := experiments.DefaultEnv()
	w, _ := datagen.ByName("Remote Sensing LR")
	c, err := experiments.CompileWorkload(w, env, 64)
	if err != nil {
		b.Fatal(err)
	}
	sprog, scfg, err := strider.Generate(strider.PostgresLayout(storage.PageSize32K))
	if err != nil {
		b.Fatal(err)
	}
	acc := &catalog.Accelerator{
		UDFName: "bench", Program: c.Program, StriderProg: sprog, StriderCfg: scfg, Design: c.Design,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := catalog.ExportAccelerator(acc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := catalog.ImportAccelerator(data); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

// --- Engine rooflines ------------------------------------------------------

// BenchmarkEngineRowKernel names the roofline of the engine's row kernel
// (ROADMAP item 12): the compiled Netflix program — two gathered rows of a
// 9 992 × 10 model, a dot, two SGD steps, two row writes per tuple —
// through RunEpoch at merge coefficient 1 ("plan"), beside the same
// tuple written by hand against a flat model ("hand": the same
// float32 operations and roundings, no plan, no charging; the two models
// must end bit-equal). frac_of_gather = hand / plan is the share of the
// plan's time the arithmetic and the two row copies account for.
func BenchmarkEngineRowKernel(b *testing.B) {
	const tuplesPerEpoch = 4096
	w, err := datagen.ByName("Netflix")
	if err != nil {
		b.Fatal(err)
	}
	users, items, rank := w.Topology[0], w.Topology[1], w.Topology[2]
	g, err := hdfg.Translate(algos.LRMF(users, items, rank, algos.Hyper{LR: w.LR}))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := compiler.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	init := make([]float32, prog.ModelSlot.Len)
	for i := range init {
		init[i] = float32(rng.NormFloat64() * 0.1)
	}
	tuples := make([][]float32, tuplesPerEpoch)
	for i := range tuples {
		tuples[i] = []float32{float32(rng.Intn(users)), float32(users + rng.Intn(items)), float32(1 + rng.Intn(5))}
	}
	newMachine := func(b *testing.B) *engine.Machine {
		m, err := engine.NewMachine(prog, engine.Config{Threads: 1, ACsPerThread: 2, AUsPerAC: 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.SetModel(init); err != nil {
			b.Fatal(err)
		}
		return m
	}
	lr := prog.Consts[0]

	// One epoch each way from the same model: the hand loop is the plan's
	// arithmetic or the ratio below compares two different kernels.
	m, hand := newMachine(b), append([]float32(nil), init...)
	if err := m.RunEpoch(tuples, 1); err != nil {
		b.Fatal(err)
	}
	if !handRowKernel(hand, rank, lr, tuples) {
		b.Fatal("hand loop rejected a row index")
	}
	for i, v := range m.Model() {
		if math.Float32bits(v) != math.Float32bits(hand[i]) {
			b.Fatalf("model[%d]: plan %v, hand loop %v", i, v, hand[i])
		}
	}

	var handNs float64
	b.Run("hand", func(b *testing.B) {
		model := append([]float32(nil), init...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !handRowKernel(model, rank, lr, tuples) {
				b.Fatal("hand loop rejected a row index")
			}
		}
		handNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N*tuplesPerEpoch)
		b.ReportMetric(handNs, "ns/tuple")
	})
	b.Run("plan", func(b *testing.B) {
		m := newMachine(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.RunEpoch(tuples, 1); err != nil {
				b.Fatal(err)
			}
		}
		planNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N*tuplesPerEpoch)
		b.ReportMetric(planNs, "ns/tuple")
		if handNs > 0 { // "hand" was not filtered out
			b.ReportMetric(handNs/planNs, "frac_of_gather")
		}
	})
}

// handRowKernel runs LRMF's update over tuples of (u, v, rating) against
// a flat rows × rank model: round and bounds-check both indexes, dot,
// the two steps from the rows as gathered, then the two row writes.
func handRowKernel(model []float32, rank int, lr float32, tuples [][]float32) bool {
	var uNew, vNew [16]float32
	rows := len(model) / rank
	for _, t := range tuples {
		iu, iv := int(math.Round(float64(t[0]))), int(math.Round(float64(t[1])))
		if iu < 0 || iu >= rows || iv < 0 || iv >= rows {
			return false
		}
		u, v := model[iu*rank:(iu+1)*rank], model[iv*rank:(iv+1)*rank]
		dot := float32(u[0] * v[0])
		for i := 1; i < rank; i++ {
			dot = dot + float32(u[i]*v[i])
		}
		e := dot - t[2]
		for i := range u {
			uNew[i] = u[i] - float32(lr*float32(e*v[i]))
		}
		for i := range v {
			vNew[i] = v[i] - float32(lr*float32(e*u[i]))
		}
		copy(u, uNew[:rank])
		copy(v, vNew[:rank])
	}
	return true
}

// BenchmarkEngineMergeKernel names the roofline of the engine's direct
// merge batch (ROADMAP item 12): the compiled Remote Sensing LR program — a
// 54-feature dot, a logistic, a subtract and a scalar × row accumulate per
// tuple, the optimizer step per batch — at 64 threads through RunEpoch at
// merge coefficient 64 ("plan"), beside the same batches written by hand
// against a flat model ("hand": runDirect's grouping — four tuples a
// sweep, op-major, the accumulator met once per group — and the same
// float32 operations and roundings, no plan, no charging; the two models
// must end bit-equal). frac_of_hand = hand / plan is the share of the
// plan's time the arithmetic accounts for.
func BenchmarkEngineMergeKernel(b *testing.B) {
	const tuplesPerEpoch, threads = 4096, 64
	w, err := datagen.ByName("Remote Sensing LR")
	if err != nil {
		b.Fatal(err)
	}
	nf := w.Topology[0]
	g, err := hdfg.Translate(algos.Logistic(nf, algos.Hyper{LR: w.LR, MergeCoef: threads}))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := compiler.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	init := make([]float32, nf)
	for i := range init {
		init[i] = float32(rng.NormFloat64() * 0.1)
	}
	tuples := make([][]float32, tuplesPerEpoch)
	for i := range tuples {
		tuples[i] = make([]float32, nf+1)
		for j := range tuples[i][:nf] {
			tuples[i][j] = float32(rng.NormFloat64() * 0.5)
		}
		tuples[i][nf] = float32(rng.Intn(2))
	}
	newMachine := func(b *testing.B) *engine.Machine {
		m, err := engine.NewMachine(prog, engine.Config{Threads: threads, ACsPerThread: 2, AUsPerAC: 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.SetModel(init); err != nil {
			b.Fatal(err)
		}
		return m
	}
	lr := prog.Consts[0]

	// One epoch each way from the same model: the hand loop is the plan's
	// arithmetic or the ratio below compares two different kernels.
	m, hand := newMachine(b), append([]float32(nil), init...)
	if err := m.RunEpoch(tuples, threads); err != nil {
		b.Fatal(err)
	}
	handMergeKernel(hand, lr, tuples, threads)
	for i, v := range m.Model() {
		if math.Float32bits(v) != math.Float32bits(hand[i]) {
			b.Fatalf("model[%d]: plan %v, hand loop %v", i, v, hand[i])
		}
	}

	var handNs float64
	b.Run("hand", func(b *testing.B) {
		model := append([]float32(nil), init...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			handMergeKernel(model, lr, tuples, threads)
		}
		handNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N*tuplesPerEpoch)
		b.ReportMetric(handNs, "ns/tuple")
	})
	b.Run("plan", func(b *testing.B) {
		m := newMachine(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.RunEpoch(tuples, threads); err != nil {
				b.Fatal(err)
			}
		}
		planNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N*tuplesPerEpoch)
		b.ReportMetric(planNs, "ns/tuple")
		if handNs > 0 { // "hand" was not filtered out
			b.ReportMetric(handNs/planNs, "frac_of_hand")
		}
	})
}

// handMergeKernel runs logistic regression's merge batches over tuples of
// (x[0:f], y) against a flat model of f ≤ 64 weights: batch tuples a
// batch, four a group (both divide evenly: every group is full), the four
// dots as four chains, then the four logistics, the four errors, and one
// pass over the gradient sum per group — the batch's first group storing
// its first tuple's — then model −= lr · sum.
func handMergeKernel(model []float32, lr float32, tuples [][]float32, batch int) {
	var sum [64]float32
	f := len(model)
	acc := sum[:f]
	for lo := 0; lo < len(tuples); lo += batch {
		for t := lo; t < lo+batch; t += 4 {
			x0, x1, x2, x3 := tuples[t][:f+1], tuples[t+1][:f+1], tuples[t+2][:f+1], tuples[t+3][:f+1]
			s0, s1, s2, s3 := float32(model[0]*x0[0]), float32(model[0]*x1[0]), float32(model[0]*x2[0]), float32(model[0]*x3[0])
			for i := 1; i < f; i++ {
				s0 = s0 + float32(model[i]*x0[i])
				s1 = s1 + float32(model[i]*x1[i])
				s2 = s2 + float32(model[i]*x2[i])
				s3 = s3 + float32(model[i]*x3[i])
			}
			s0 = float32(1 / (1 + math.Exp(-float64(s0))))
			s1 = float32(1 / (1 + math.Exp(-float64(s1))))
			s2 = float32(1 / (1 + math.Exp(-float64(s2))))
			s3 = float32(1 / (1 + math.Exp(-float64(s3))))
			s0, s1, s2, s3 = s0-x0[f], s1-x1[f], s2-x2[f], s3-x3[f]
			if t == lo {
				for j := range acc {
					acc[j] = ((float32(s0*x0[j]) + float32(s1*x1[j])) + float32(s2*x2[j])) + float32(s3*x3[j])
				}
				continue
			}
			for j := range acc {
				acc[j] = (((acc[j] + float32(s0*x0[j])) + float32(s1*x1[j])) + float32(s2*x2[j])) + float32(s3*x3[j])
			}
		}
		for j := range acc {
			model[j] = model[j] - float32(lr*acc[j])
		}
	}
}

// BenchmarkEnginePartitionBatch times the merge batch the benchmark's
// server_mix spends most of its engine time in: the compiled Patient
// program (384 features) at 64 threads over a batch of 107 tuples, so that
// threads 0–42 run two tuples and 43–63 one, and lane group 40–43 holds
// both. The engine's TestPlanMatchesReferenceOnOracleC holds this batch's
// plan bit-equal, model and Stats, to the reference executor; this
// benchmark only times it.
func BenchmarkEnginePartitionBatch(b *testing.B) {
	const n, threads = 107, 64
	w, err := datagen.ByName("Patient")
	if err != nil {
		b.Fatal(err)
	}
	a, err := algos.Build(w.Kind, w.Topology, algos.Hyper{LR: w.LR, Lambda: w.Lambda, MergeCoef: n, Epochs: 1})
	if err != nil {
		b.Fatal(err)
	}
	g, err := hdfg.Translate(a)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := compiler.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	init := make([]float32, prog.ModelSlot.Len)
	for i := range init {
		init[i] = float32(rng.NormFloat64() * 0.1)
	}
	batch := make([][]float32, n)
	for i := range batch {
		batch[i] = make([]float32, prog.InputSlot.Len)
		for j := range batch[i] {
			batch[i][j] = float32(rng.NormFloat64() * 0.5)
		}
	}
	pm, err := engine.NewMachine(prog, engine.Config{Threads: threads, ACsPerThread: 2, AUsPerAC: 8})
	if err != nil {
		b.Fatal(err)
	}
	if err := pm.SetModel(init); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pm.RunBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
}

// --- Observability benchmarks ------------------------------------------------

// BenchmarkObsOverhead measures the cost of the observability layer on
// an end-to-end LR training query over a pool smaller than the table
// (every epoch re-reads and re-extracts every page): identical runs with
// the counters enabled (default) and disabled (obs.Noop).
// TestObsOverheadBudget gates the delta at < 5%.
func BenchmarkObsOverhead(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"obs=on", false}, {"obs=off", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			eng, err := Open(Config{
				PageSize: 32 << 10, PoolBytes: 1 << 20, DisableObs: cfg.disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			d, err := eng.LoadWorkload("Remote Sensing LR", 0.02, 1)
			if err != nil {
				b.Fatal(err)
			}
			a, err := d.DSLAlgo(64)
			if err != nil {
				b.Fatal(err)
			}
			a.SetEpochs(2)
			if err := eng.RegisterUDF(a, 64); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Train(a.Name, d.Rel.Name); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(2*d.Tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// --- Any-precision weave path -----------------------------------------------

// weaveBenchRows materialises the bench workload weave_k8's input: Remote
// Sensing LR at scale 0.005 (54 features, about 2 900 tuples), narrowed
// to the float32 rows the weave stage receives, with the page row count
// the cost model gives them at 32 KB.
func weaveBenchRows(b *testing.B) (rows [][]float32, pageRows int) {
	b.Helper()
	w, _ := datagen.ByName("Remote Sensing LR")
	d, err := datagen.Generate(w, 0.005, storage.PageSize32K, 1)
	if err != nil {
		b.Fatal(err)
	}
	rows, err = storage.NarrowedRows[float32](d.Rel)
	if err != nil {
		b.Fatal(err)
	}
	return rows, storage.WeavePageRows(storage.PageSize32K, len(rows[0])-1)
}

// BenchmarkReweaveRows measures one epoch's requantisation — quantize,
// weave into pages, decode the top k planes — as the weave stage and the
// bench replica call it.
func BenchmarkReweaveRows(b *testing.B) {
	rows, pageRows := weaveBenchRows(b)
	for _, bits := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			_, ranges, err := weaving.ReweaveRows(rows, nil, bits, pageRows)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(rows) * len(rows[0]) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := weaving.ReweaveRows(rows, ranges, bits, pageRows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildWeavePage measures the build half alone: the same rows
// woven into their pages, one op per relation pass.
func BenchmarkBuildWeavePage(b *testing.B) {
	rows, pageRows := weaveBenchRows(b)
	nfeat := len(rows[0]) - 1
	feats, labels := make([][]float32, len(rows)), make([]float32, len(rows))
	for i, r := range rows {
		feats[i], labels[i] = r[:nfeat], r[nfeat]
	}
	ranges := storage.WeaveRanges(feats, nfeat)
	b.SetBytes(int64(len(rows) * len(rows[0]) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for at := 0; at < len(rows); at += pageRows {
			end := min(at+pageRows, len(rows))
			if _, err := storage.BuildWeavePage(ranges, feats[at:end], labels[at:end]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWeaveTrain measures a warm two-epoch Precision 8 Train on the
// bench workload weave_k8's shape: the first Train wove the table's
// pages and left their decoded rows beside the record cache, so each
// measured one neither weaves nor decodes and is otherwise the engine's.
func BenchmarkWeaveTrain(b *testing.B) {
	const epochs = 2
	eng, err := Open(Config{PageSize: 32 << 10, PoolBytes: 128 << 20, Precision: 8})
	if err != nil {
		b.Fatal(err)
	}
	d, err := eng.LoadWorkload("Remote Sensing LR", 0.005, 1)
	if err != nil {
		b.Fatal(err)
	}
	a, err := d.DSLAlgo(64)
	if err != nil {
		b.Fatal(err)
	}
	a.SetEpochs(epochs)
	if err := eng.RegisterUDF(a, 64); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Train(a.Name, d.Rel.Name); err != nil { // fill the record cache, weave the pages
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Train(a.Name, d.Rel.Name); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(epochs*float64(d.Tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}
