package main

import (
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"dana"
	"dana/internal/catalog"
	"dana/internal/compiler"
	"dana/internal/datagen"
	"dana/internal/dsl"
	"dana/internal/experiments"
	"dana/internal/hdfg"
	"dana/internal/hwgen"
	"dana/internal/obs"
	"dana/internal/strider"
	"dana/internal/weaving"
)

// The layer ledger is valid only while the replica is the program: these
// are the limits the traced pass enforces on itself.
const (
	replicaOverTrainMin = 0.90
	replicaOverTrainMax = 1.15
	coverageMin         = 0.95
)

const (
	spanSetup     = "setup"
	spanGenerate  = "datagen.Generate"
	spanParse     = "dsl.Parse"
	spanTranslate = "hdfg.Translate"
	spanCompile   = "compiler.Compile"
	spanHwgen     = "hwgen.Generate"
	spanStriderGV = "strider.Generate+Verify"
	spanAttach    = "Catalog.AttachTable"
	spanRegister  = "Catalog.RegisterUDF"
	spanStore     = "Catalog.StoreAccelerator"
	spanServerNew = "server.New"
	spanReplan    = "Server.Replan"

	// Roots of the separately timed calls.
	spanPlan       = "plan"
	spanPickRoot   = "pick"
	spanWeaveParts = "weave_parts"
)

// obsInts and obsFloats are the modeled counters the traced pass reads, as
// deltas around untraced operations, from the program's own registries.
var (
	obsInts = []string{
		obs.PoolHits, obs.PoolMisses, obs.PoolEvictions, obs.PoolBytesRead,
		obs.RuntimeCacheHits, obs.RuntimeCacheMisses,
		obs.StriderPages, obs.StriderBytes, obs.StriderInstrs, obs.StriderCycles, obs.StriderCyclesTotal,
		obs.EngineCycles, obs.EngineCyclesLoad, obs.EngineCyclesCompute, obs.EngineCyclesMerge, obs.EngineTuples,
	}
	obsFloats = []string{obs.PoolIOSeconds}
)

func (in *trainInst) registries() []*obs.Registry { return []*obs.Registry{in.eng.Obs()} }

func (in *serverInst) registries() []*obs.Registry {
	var regs []*obs.Registry
	for _, name := range in.srv.TenantNames() {
		regs = append(regs, in.srv.TenantObs(name))
	}
	return regs
}

// addObs adds sign × the registries' current counters into acc.
func addObs(acc map[string]float64, regs []*obs.Registry, sign float64) {
	for _, r := range regs {
		for _, n := range obsInts {
			acc[n] += sign * float64(r.Get(n))
		}
		for _, n := range obsFloats {
			acc[n] += sign * r.GetFloat(n)
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// traceSetup rebuilds the set-up chain from the layers' public functions
// under one "setup" root span: what LoadWorkload and RegisterUDF do for a
// train workload, and what a fresh tenant pays per distinct workload of the
// mix on the server.
func traceSetup(tr *tracer, w *workload, seed int64) error {
	root := tr.begin(layerBench, spanSetup)
	defer func() { tr.end(root, 0) }()
	eng, err := dana.Open(w.config())
	if err != nil {
		return err
	}
	if w.table != "" {
		return traceChain(tr, eng, w.table, w.scale, w.merge, w.epochs, seed)
	}
	s := tr.begin(layerServer, spanServerNew)
	_, err = newServer(seed)
	tr.end(s, 0)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, sp := range serverMix() {
		if seen[sp.Workload] {
			continue
		}
		seen[sp.Workload] = true
		if err := traceChain(tr, eng, sp.Workload, sp.Scale, experiments.DefaultEnv().MergeCoef, sp.Epochs, seed); err != nil {
			return err
		}
	}
	return nil
}

func traceChain(tr *tracer, eng *dana.Engine, table string, scale float64, merge, epochs int, seed int64) error {
	wl, err := datagen.ByName(table)
	if err != nil {
		return err
	}
	cat, pageSize := eng.Catalog(), eng.Pool().PageSize()

	s := tr.begin("datagen", spanGenerate)
	d, err := datagen.Generate(wl, scale, pageSize, seed)
	tr.end(s, 0)
	if err != nil {
		return err
	}
	s = tr.begin(layerCatalog, spanAttach)
	err = cat.AttachTable(d.Rel)
	if err == nil {
		err = eng.Pool().AttachRelation(d.Rel)
	}
	tr.end(s, 0)
	if err != nil {
		return err
	}

	a, err := d.DSLAlgo(merge)
	if err != nil {
		return err
	}
	a.SetEpochs(epochs)
	src := dsl.Render(a)
	a.Name += "@" + d.Rel.Name // algo names repeat across workloads
	s = tr.begin("dsl", spanParse)
	_, err = dsl.Parse(src)
	tr.end(s, 0)
	if err != nil {
		return err
	}
	s = tr.begin("hdfg", spanTranslate)
	_, err = hdfg.Translate(a)
	tr.end(s, 0)
	if err != nil {
		return err
	}
	s = tr.begin(layerCatalog, spanRegister) // translates once more inside
	udf, err := cat.RegisterUDF(a)
	tr.end(s, 0)
	if err != nil {
		return err
	}
	s = tr.begin("compiler", spanCompile)
	prog, err := compiler.Compile(udf.Graph)
	tr.end(s, 0)
	if err != nil {
		return err
	}
	s = tr.begin("hwgen", spanHwgen)
	design, err := hwgen.Generate(prog, eng.FPGA(), hwgen.Params{PageSize: pageSize, MergeCoef: merge, NumTuples: 1 << 16})
	tr.end(s, 0)
	if err != nil {
		return err
	}
	s = tr.begin(layerStrider, spanStriderGV)
	sprog, scfg, err := strider.Generate(strider.PostgresLayout(pageSize))
	if err == nil {
		err = strider.Verify(sprog, scfg, strider.VerifyOptions{PageSize: pageSize}).Err(false)
	}
	tr.end(s, 0)
	if err != nil {
		return err
	}
	s = tr.begin("compiler", "compiler.ScheduleProgram")
	sched := compiler.ScheduleProgram(prog, design.Engine)
	opMap := compiler.OperationMap(prog.PerTuple, sched)
	tr.end(s, 0)
	s = tr.begin(layerCatalog, spanStore)
	err = cat.StoreAccelerator(&catalog.Accelerator{
		UDFName: udf.Name, Program: prog, StriderProg: sprog, StriderCfg: scfg,
		Design: design, OperationMap: opMap, ScheduledCycles: sched.MakespanCycles,
	})
	tr.end(s, 0)
	return err
}

// variant is one way of running the workload's operation in the traced
// pass; all variants alternate inside one loop so that a noisy stretch of
// the host lands on each of them.
type variant struct {
	run    func() (opResult, error)
	scores []float64
	wallMs []float64
}

func (v *variant) ms() float64 { return calibratedMs(v.scores) }

// over pairs two variants alternation by alternation: v's score over w's in
// the same alternation, where both saw the same stretch of the host.
func (v *variant) over(w *variant) []float64 {
	out := make([]float64, len(v.scores))
	for k := range out {
		out[k] = v.scores[k] / w.scores[k]
	}
	return out
}

// tracedRun is what the traced pass of one workload gathered.
type tracedRun struct {
	in         instance
	warm, last opResult // the warm-up and the latest untraced operation

	// The variants: the untraced operation, its replica without and with
	// spans and, for a train workload, the same Train on an engine with
	// observability off and through the SQL front end.
	train, replica, traced, dark, viaSQL *variant

	// Readings around the untraced operations only.
	counts map[string]float64 // deltas of the program's modeled counters
	cpu    time.Duration      // rusage user+sys
	gcs    uint64             // completed GC cycles
}

// tracedPass measures the per-layer metrics of one workload: it rebuilds
// the set-up chain under spans, sets the workload up, alternates the
// variants (at least reps times, and until budget is spent when one is
// set), times on their own the calls no outside span can separate, and
// reads the ledger off the spans.
func (s *session) tracedPass(tr *tracer, reps int, budget time.Duration) (map[string]float64, error) {
	started := time.Now()
	w := s.w
	tr.workload = w.name
	chainReps := 3
	if s.quick {
		chainReps = 1
	}
	for i := 0; i < chainReps; i++ {
		if err := traceSetup(tr, w, s.seed); err != nil {
			return nil, fmt.Errorf("%s: traced set-up: %w", w.name, err)
		}
	}
	in, warm, err := w.setup(s.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	s.record("warm-up", &s.warmRef, warm, nil, true)

	t := &tracedRun{in: in, warm: warm, counts: map[string]float64{}}
	t.train = &variant{run: in.op}
	t.replica = &variant{run: func() (opResult, error) { return in.replica(nil) }}
	t.traced = &variant{run: func() (opResult, error) { tr.op++; return in.replica(tr) }}
	variants := []*variant{t.train, t.replica, t.traced}
	if ti, ok := in.(*trainInst); ok {
		darkIn, _, err := w.setup(s.seed, func(c *dana.Config) { c.DisableObs = true })
		if err != nil {
			return nil, fmt.Errorf("%s: set-up without obs: %w", w.name, err)
		}
		t.dark = &variant{run: darkIn.op}
		query := fmt.Sprintf("SELECT * FROM dana.%s('%s')", ti.algo.Name, ti.d.Rel.Name)
		t.viaSQL = &variant{run: func() (opResult, error) {
			if w.cold {
				if err := ti.eng.ColdCache(); err != nil {
					return opResult{}, err
				}
			}
			_, err := ti.eng.SQL(query)
			return t.last, err // the result set carries no full model to hash
		}}
		variants = append(variants, t.dark, t.viaSQL)
	}

	regs := in.registries()
	before := s.cal()
	for rep := 0; rep < reps || (budget > 0 && time.Since(started) < budget); rep++ {
		for i := range variants {
			// Each alternation starts one variant later, so that every
			// variant runs in every position after every other.
			v := variants[(i+rep)%len(variants)]
			if v == t.train {
				addObs(t.counts, regs, -1)
				t.cpu -= cpuTime()
				t.gcs -= gcCycles()
			}
			start := time.Now()
			res, err := v.run()
			wall := time.Since(start)
			if v == t.train {
				t.gcs += gcCycles()
				t.cpu += cpuTime()
				addObs(t.counts, regs, +1)
				t.last = res
			}
			after := s.cal()
			v.scores = append(v.scores, score(wall, before, after))
			v.wallMs = append(v.wallMs, ms(wall))
			s.record("traced pass", &s.opRef, res, err, false)
			before = after
		}
	}

	microReps := 3
	if s.quick {
		microReps = 1
	}
	for i := 0; i < microReps; i++ {
		if err := t.micro(tr); err != nil {
			return nil, fmt.Errorf("%s: micro pass: %w", w.name, err)
		}
	}
	m := s.ledgerMetrics(tr, t)

	// The ledger validates itself: outside these limits the layer shares
	// describe a different program than the one the end-to-end metrics time.
	// One alternation's replica/Train ratio scatters by ±15 % on a shared
	// host (a GC cycle lands on one side of the pair), so the rule is on the
	// pairs' quartiles: it fails when even the quartile nearer the window is
	// outside it. A replica that is a different program (a serial rebuild of
	// glm_cold runs 1.5-1.9x) puts every pair outside.
	if !s.quick {
		s.attempted++
		pairs := t.replica.over(t.train)
		lo, hi := quantile(pairs, 0.25), quantile(pairs, 0.75)
		switch {
		case w.table != "" && w.bits == 0 && (hi < replicaOverTrainMin || lo > replicaOverTrainMax):
			s.fail("runtime.replica_over_train quartiles [%.3f, %.3f] outside [%.2f, %.2f]", lo, hi, replicaOverTrainMin, replicaOverTrainMax)
		case m["trace.coverage"] < coverageMin:
			s.fail("trace.coverage %.3f below %.2f", m["trace.coverage"], coverageMin)
		}
	}
	return m, nil
}

// extracts reports whether the workload's timed operation walks pages (as
// opposed to replaying the record cache).
func (in *trainInst) extracts() bool { return in.w.cold || !in.rep.fits }

// micro times, each under its own root span, the calls the operation makes
// too deep for a span from outside to separate.
func (t *tracedRun) micro(tr *tracer) error {
	if srv, ok := t.in.(*serverInst); ok {
		root := tr.begin(layerBench, spanPlan)
		sp := tr.begin(layerServer, spanReplan)
		_, err := srv.srv.Replan(srv.specs, srv.srv.Policy())
		tr.end(sp, 1)
		tr.end(root, 0)
		return err
	}
	ti := t.in.(*trainInst)
	root := tr.begin(layerBench, spanPickRoot)
	sp := tr.begin(layerBackend, spanPick)
	_, _, _, err := ti.rep.disp.Pick(ti.rep.job)
	tr.end(sp, 1)
	tr.end(root, 0)
	if err == nil && ti.extracts() {
		err = ti.rep.walkPages(tr)
	}
	if err == nil && ti.w.bits > 0 {
		err = ti.rep.weaveParts(tr)
	}
	return err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledgerMetrics turns the spans and counters of one traced pass into the
// per-layer metrics. A metric reads 0 where its layer is not on the
// workload's path or cannot be seen from outside.
func (s *session) ledgerMetrics(tr *tracer, t *tracedRun) map[string]float64 {
	name := s.w.name
	setup, op := tr.read(name, spanSetup), tr.read(name, spanOp)
	walk, parts := tr.read(name, spanWalk), tr.read(name, spanWeaveParts)
	pick, plan := tr.read(name, spanPickRoot), tr.read(name, spanPlan)
	nTrain := float64(len(t.train.scores))
	counts := t.counts
	perSetup := func(name string) float64 { return float64(setup.nameNs[name]) / float64(max(setup.roots, 1)) }
	perOp := func(ns int64) float64 { return float64(ns) / float64(max(op.roots, 1)) }
	count := func(name string) float64 { return counts[name] / nTrain }

	m := map[string]float64{
		"runtime.op_wall_ms_p50":        quantile(t.train.wallMs, 0.5),
		"runtime.op_wall_ms_p90":        quantile(t.train.wallMs, 0.9),
		"runtime.cpu_ms_per_op":         ms(t.cpu) / nTrain,
		"runtime.gc_cycles_per_op":      float64(t.gcs) / nTrain,
		"runtime.record_cache_hit_rate": ratio(counts[obs.RuntimeCacheHits], counts[obs.RuntimeCacheHits]+counts[obs.RuntimeCacheMisses]),
		"runtime.sim_seconds":           t.warm.sim,
		"runtime.sim_seconds_steady":    t.last.sim,
		"runtime.replica_over_train":    quantile(t.replica.over(t.train), 0.5),

		"bufpool.pin_ns_per_page":       op.per(spanPin),
		"bufpool.hit_rate":              ratio(counts[obs.PoolHits], counts[obs.PoolHits]+counts[obs.PoolMisses]),
		"bufpool.evictions_per_op":      count(obs.PoolEvictions),
		"bufpool.bytes_read_per_op":     count(obs.PoolBytesRead),
		"bufpool.io_sim_seconds_per_op": count(obs.PoolIOSeconds),

		"strider.vm_ns_per_page":  walk.per(spanVMRun),
		"strider.instrs_per_page": ratio(counts[obs.StriderInstrs], counts[obs.StriderPages]),
		"strider.cycles_per_page": ratio(counts[obs.StriderCyclesTotal], counts[obs.StriderPages]),
		"strider.gen_verify_us":   perSetup(spanStriderGV) / 1e3,

		"accessengine.extract_ns_per_tuple":  op.per(spanExtract),
		"accessengine.deformat_ns_per_tuple": 0,
		"accessengine.payload_mb_per_s":      0,
		"accessengine.frac_of_memcpy":        0,
		"accessengine.cycles_per_op":         count(obs.StriderCycles),
		"accessengine.share":                 op.share(layerAccessEngine),

		"engine.feed_ns_per_tuple_epoch":      op.per(spanFeed),
		"engine.run_epoch_ns_per_tuple_epoch": op.per(spanRunRows),
		"engine.host_ns_per_sim_cycle":        ratio(perOp(op.selfNs[layerEngine]), count(obs.EngineCycles)),
		"engine.frac_of_dot":                  0,
		"engine.cycles_per_tuple":             ratio(counts[obs.EngineCycles], counts[obs.EngineTuples]),
		"engine.span_load_share":              ratio(counts[obs.EngineCyclesLoad], counts[obs.EngineCycles]),
		"engine.span_compute_share":           ratio(counts[obs.EngineCyclesCompute], counts[obs.EngineCycles]),
		"engine.merge_share":                  ratio(counts[obs.EngineCyclesMerge], counts[obs.EngineCycles]),
		"engine.utilization":                  0,
		"engine.share":                        op.share(layerEngine),

		"backend.pick_us":      pick.per(spanPick) / 1e3,
		"backend.configure_us": perOp(op.nameNs[spanConfigure]) / 1e3,

		"weaving.reweave_ns_per_tuple":    op.per(spanReweave),
		"weaving.build_page_ns_per_tuple": parts.per(spanBuildPage),
		"weaving.decode_ns_per_tuple":     parts.per(spanDecodeRows),
		"weaving.link_bytes_per_epoch":    0,
		"weaving.share":                   op.share(layerWeaving),

		"server.plan_ms":           plan.per(spanReplan) / 1e6,
		"server.execute_ms":        0,
		"server.jobs_per_host_s":   0,
		"server.p99_sojourn_sim_s": 0,
		"server.reuse_rate":        0,
		"server.new_ms":            perSetup(spanServerNew) / 1e6,

		"datagen.generate_ms": perSetup(spanGenerate) / 1e6,
		"dsl.parse_us":        perSetup(spanParse) / 1e3,
		"hdfg.translate_us":   perSetup(spanTranslate) / 1e3,
		"compiler.compile_us": perSetup(spanCompile) / 1e3,
		"hwgen.generate_us":   perSetup(spanHwgen) / 1e3,
		// RegisterUDF translates once more inside; take that out.
		"catalog.register_us": max(0, perSetup(spanAttach)+perSetup(spanRegister)+perSetup(spanStore)-perSetup(spanTranslate)) / 1e3,

		"sql.udf_query_overhead_us": 0,
		"obs.overhead_share":        0,
		"trace.overhead_share":      quantile(t.traced.over(t.replica), 0.5) - 1,
		"trace.coverage":            op.coverage(),
	}
	switch in := t.in.(type) {
	case *trainInst:
		r := in.rep
		if in.extracts() {
			walkNsPerTuple := float64(walk.nameNs[spanVMRun]) / float64(max(walk.roots, 1)) / float64(r.rel.NumTuples())
			m["accessengine.deformat_ns_per_tuple"] = m["accessengine.extract_ns_per_tuple"] - walkNsPerTuple
			payload := ratio(count(obs.StriderBytes), perOp(op.nameNs[spanExtract])/1e9) // bytes per second
			m["accessengine.payload_mb_per_s"] = payload / 1e6
			m["accessengine.frac_of_memcpy"] = ratio(payload, quantile(s.copyBPerS, 0.5))
		}
		macs := float64(r.job.FlopsPerTuple) / 2 * count(obs.EngineTuples)
		m["engine.frac_of_dot"] = ratio(ratio(macs, perOp(op.selfNs[layerEngine])/1e9), quantile(s.macPerS, 0.5))
		m["engine.utilization"] = in.last.Engine.Utilization(in.last.Design.Engine.Threads)
		if in.w.bits > 0 {
			g := weaving.RelationGeometry(r.rel.NumTuples(), r.rel.Schema.NumCols()-1, r.pageSize)
			m["weaving.link_bytes_per_epoch"] = float64(g.EffectiveBytes(in.w.bits))
		}
		m["sql.udf_query_overhead_us"] = (t.viaSQL.ms() - t.train.ms()) * 1e3
		m["obs.overhead_share"] = quantile(t.train.over(t.dark), 0.5) - 1
	case *serverInst:
		wall := quantile(t.train.wallMs, 0.5)
		m["server.execute_ms"] = wall - m["server.plan_ms"]
		m["server.jobs_per_host_s"] = ratio(float64(len(in.specs)), wall/1e3)
		m["server.p99_sojourn_sim_s"] = t.last.modeled.server[1]
		m["server.reuse_rate"] = t.last.modeled.server[2]
	}
	return m
}
