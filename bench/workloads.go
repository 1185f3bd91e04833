package main

import (
	"fmt"
	"math"
	"math/rand"

	"dana"
	"dana/internal/accessengine"
	"dana/internal/backend"
	"dana/internal/datagen"
	"dana/internal/engine"
	"dana/internal/obs"
	"dana/internal/runtime"
	"dana/internal/server"
	"dana/internal/verify"
)

// workload is one named benchmark input. A train workload is a table, a
// UDF and at most one engine setting that defines it; server_mix is a
// generated job schedule on a long-lived server. Sizes are constants, not
// flags: the same name always means the same work.
type workload struct {
	name string
	ops  int // timed operations per round

	// Train workloads.
	table     string // Table 3 workload name ("" marks server_mix)
	scale     float64
	merge     int
	epochs    int
	cold      bool      // ColdCache() before every Train
	poolBytes int64     // Config.PoolBytes, where the workload is defined by it
	bits      int       // Config.Precision, where the workload is defined by it
	backend   string    // the backend every Train must report
	sibling   *workload // its model hash must equal this workload's, bit for bit
}

// workloads builds the six workloads. quick shrinks every input to a
// quarter (the pool of glm_spill with it, so the table still does not fit):
// a smoke run of the same code paths, not a measurement.
func workloads(quick bool) []*workload {
	cold := &workload{name: "glm_cold", ops: 12, table: "Remote Sensing LR", scale: 0.2, merge: 64, epochs: 1,
		cold: true, backend: backend.NameAccelerator}
	spill := &workload{name: "glm_spill", ops: 12, table: "Remote Sensing LR", scale: 0.2, merge: 64, epochs: 1,
		poolBytes: 8 << 20, backend: backend.NameAccelerator}
	cold.sibling, spill.sibling = spill, cold
	ws := []*workload{
		{name: "glm_cached", ops: 12, table: "Remote Sensing LR", scale: 0.05, merge: 64, epochs: 8,
			backend: backend.NameAccelerator},
		{name: "lrmf_cached", ops: 12, table: "Netflix", scale: 0.02, merge: 1, epochs: 8,
			backend: backend.NameAccelerator},
		cold,
		spill,
		{name: "weave_k8", ops: 12, table: "Remote Sensing LR", scale: 0.005, merge: 64, epochs: 2,
			bits: 8, backend: backend.NameWeave},
		{name: "server_mix", ops: 16},
	}
	if quick {
		for _, w := range ws {
			w.ops, w.scale, w.poolBytes = 2, w.scale/4, w.poolBytes/4
		}
	}
	return ws
}

// server_mix's traffic: 48 jobs from 4 tenants on 2 instances, arriving at
// 6 jobs per virtual second, over four small GLM workloads at scale 0.002
// with 2 epochs. The schedule is part of the workload's definition, not of
// the seed: Zipf weights 1/(i+1) give 23/12/8/5 jobs per workload, every
// fourth job of a workload scores, a workload's jobs go round its tenants,
// and the order and the Poisson arrival times come from a fixed draw. The
// run's seed generates the tables. Host-time metrics are compared across
// seeds, so the seed may not change how much work an operation is, nor
// which jobs the two instance executors overlap.
var (
	serverWorkloads = []string{"WLAN", "Patient", "Blog Feedback", "Remote Sensing LR"}
	serverJobs      = []int{23, 12, 8, 5}
)

const (
	serverTenants      = 4
	serverInstances    = 2
	serverRate         = 6.0
	serverScheduleSeed = 1
)

func serverMix() []server.JobSpec {
	var specs []server.JobSpec
	for wi, name := range serverWorkloads {
		for j := 0; j < serverJobs[wi]; j++ {
			kind := server.KindTrain
			if j%4 == 3 {
				kind = server.KindScore
			}
			specs = append(specs, server.JobSpec{
				Tenant: server.TenantName(j % serverTenants), Kind: kind,
				Workload: name, Scale: 0.002, Epochs: 2,
			})
		}
	}
	rng := rand.New(rand.NewSource(serverScheduleSeed))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	now := 0.0
	for i := range specs {
		now += rng.ExpFloat64() / serverRate
		specs[i].ArriveSec = now
	}
	return specs
}

// modeled is what the modeled clock says about one operation. It is
// comparable: every operation of a workload must produce the same value,
// bit for bit, or the model changed.
type modeled struct {
	engine engine.Stats
	access accessengine.Stats
	server [3]float64 // makespan, p99 sojourn, reuse rate (server_mix)
}

// opResult is one operation's checked outcome.
type opResult struct {
	hash    uint64  // FNV-1a over the float32 bits of every model produced
	sim     float64 // SimulatedSeconds (server_mix: Report.MakespanSec)
	modeled modeled
	// check is the first correctness check the operation failed by itself
	// ("" = none); cross-operation checks are the caller's.
	check string
}

// instance is a set-up workload: an open engine (or server) that runs the
// workload's operation, and its rebuilt twin for the traced pass.
type instance interface {
	op() (opResult, error)
	// replica rebuilds op from the layers' public functions, recording a
	// span around each call (none when tr is nil).
	replica(tr *tracer) (opResult, error)
	// registries are the program's own observability registries, whose
	// modeled counters the traced pass reads from outside.
	registries() []*obs.Registry
}

// hashHook lets the test corrupt a model hash, to prove the check can fail.
var hashHook = func(h uint64) uint64 { return h }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FNV-1a by hand and not hash/fnv: the hash runs inside the timed blocks,
// and the stdlib hasher would add an allocation per operation to
// allocs_per_op.
func fnvUint32(h uint64, v uint32) uint64 {
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

func hashModel(h uint64, model []float32) uint64 {
	for _, v := range model {
		h = fnvUint32(h, math.Float32bits(v))
	}
	return h
}

// --- train workloads -----------------------------------------------------

type trainInst struct {
	w    *workload
	eng  *dana.Engine
	d    *datagen.Dataset
	algo *dana.Algo
	last *runtime.TrainResult // the latest op's full result
	rep  *trainReplica        // built on first use, see replicaOnce
}

// setup is what an analyst pays before the first result: open the engine,
// generate and deploy the table, register the UDF (dsl -> hdfg -> compiler
// -> hwgen -> strider generate+verify), and run the first operation.
func (w *workload) setup(seed int64, cfgEdit func(*dana.Config)) (instance, opResult, error) {
	if w.table == "" {
		return setupServer(seed)
	}
	cfg := w.config()
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	eng, err := dana.Open(cfg)
	if err != nil {
		return nil, opResult{}, err
	}
	d, err := eng.LoadWorkload(w.table, w.scale, seed)
	if err != nil {
		return nil, opResult{}, err
	}
	a, err := d.DSLAlgo(w.merge)
	if err != nil {
		return nil, opResult{}, err
	}
	a.SetEpochs(w.epochs)
	if err := eng.RegisterUDF(a, w.merge); err != nil {
		return nil, opResult{}, err
	}
	in := &trainInst{w: w, eng: eng, d: d, algo: a}
	warm, err := in.op()
	return in, warm, err
}

// config is the program's defaults plus the one setting that defines the
// workload, if any.
func (w *workload) config() dana.Config {
	cfg := dana.Defaults()
	if w.poolBytes != 0 {
		cfg.PoolBytes = w.poolBytes
	}
	cfg.Precision = w.bits
	return cfg
}

func (in *trainInst) op() (opResult, error) {
	if in.w.cold {
		if err := in.eng.ColdCache(); err != nil {
			return opResult{}, err
		}
	}
	res, err := in.eng.Train(in.algo.Name, in.d.Rel.Name)
	if err != nil {
		return opResult{}, err
	}
	in.last = res
	return in.result(res), nil
}

func (in *trainInst) result(res *runtime.TrainResult) opResult {
	r := opResult{
		hash:    hashHook(hashModel(fnvOffset, res.Model)),
		sim:     res.SimulatedSeconds,
		modeled: modeled{engine: res.Engine, access: res.Access},
	}
	switch {
	case res.Backend != in.w.backend:
		r.check = fmt.Sprintf("ran on backend %q, want %q", res.Backend, in.w.backend)
	case res.Degraded:
		r.check = "training degraded to a failover backend"
	case res.Epochs != in.w.epochs:
		r.check = fmt.Sprintf("ran %d epochs, want %d", res.Epochs, in.w.epochs)
	}
	return r
}

// verifyOnce runs the checks that need a second engine, once per workload
// and outside every timed region: the model is within the backend's
// declared tolerance of the float64 cpu backend on the same table, and a
// workload with a sibling (glm_cold / glm_spill: one table through the two
// extraction forks) produces the sibling's model bit for bit.
func (w *workload) verifyOnce(seed int64, got opResult, in instance) error {
	if w.table == "" {
		return nil
	}
	ti := in.(*trainInst)
	ref, err := w.reference(seed, ti)
	if err != nil {
		return err
	}
	tol := backend.NewAccel(backend.Env{}).Capabilities().ModelTolerance
	if err := verify.CompareModels(w.name+" vs cpu backend", widen(ti.last.Model), ref, tol); err != nil {
		return err
	}
	if w.sibling != nil {
		_, sib, err := w.sibling.setup(seed, nil)
		if err != nil {
			return err
		}
		if sib.hash != got.hash {
			return fmt.Errorf("%s model hash %016x != %s model hash %016x", w.name, got.hash, w.sibling.name, sib.hash)
		}
	}
	return nil
}

// reference trains the workload's table on the golden float64 cpu backend.
// A k-bit weave job is not admissible there, so its reference trains on
// the rows rewoven at k bits, the weave registration's declared semantics.
func (w *workload) reference(seed int64, ti *trainInst) ([]float64, error) {
	if w.bits == 0 {
		cpu, _, err := w.setup(seed, func(c *dana.Config) { c.Backend = backend.NameCPU })
		if err != nil {
			return nil, err
		}
		return widen(cpu.(*trainInst).last.Model), nil
	}
	rep, err := ti.replicaOnce()
	if err != nil {
		return nil, err
	}
	return rep.weaveReference()
}

func widen(m []float32) []float64 {
	out := make([]float64, len(m))
	for i, v := range m {
		out[i] = float64(v)
	}
	return out
}

// --- server_mix ------------------------------------------------------------

type serverInst struct {
	srv   *server.Server
	specs []server.JobSpec
}

func newServer(seed int64) (*server.Server, error) {
	return server.New(server.Config{
		Tenants: server.DefaultTenants(serverTenants), Instances: serverInstances, Seed: seed,
	})
}

func setupServer(seed int64) (instance, opResult, error) {
	srv, err := newServer(seed)
	if err != nil {
		return nil, opResult{}, err
	}
	in := &serverInst{srv: srv, specs: serverMix()}
	warm, err := in.op()
	return in, warm, err
}

func (in *serverInst) op() (opResult, error) {
	rep, err := in.srv.Run(in.specs)
	if err != nil {
		return opResult{}, err
	}
	return in.result(rep), nil
}

func (in *serverInst) replica(tr *tracer) (opResult, error) {
	root := tr.begin(layerBench, spanOp)
	s := tr.begin(layerServer, "server.Run")
	rep, err := in.srv.Run(in.specs)
	tr.end(s, int64(len(in.specs)))
	tr.end(root, 0)
	if err != nil {
		return opResult{}, err
	}
	return in.result(rep), nil
}

func (in *serverInst) result(rep *server.Report) opResult {
	r := opResult{
		sim:     rep.MakespanSec,
		modeled: modeled{server: [3]float64{rep.MakespanSec, rep.P99Sojourn, rep.ReuseRate}},
	}
	h := uint64(fnvOffset)
	for _, jr := range rep.Results {
		h = hashModel(h, jr.Model)
		h = fnvUint32(h, uint32(jr.ScoredRows))
		r.modeled.engine.Cycles += jr.EngineCycles
		r.modeled.access.TotalCycles += jr.StriderCycles
	}
	r.hash = hashHook(h)
	switch {
	case rep.Errors != 0:
		r.check = fmt.Sprintf("%d of %d jobs returned an error", rep.Errors, rep.Jobs)
	case len(rep.Results) != len(in.specs):
		r.check = fmt.Sprintf("%d results for %d jobs", len(rep.Results), len(in.specs))
	case rep.Degraded != 0:
		r.check = fmt.Sprintf("%d jobs degraded to a failover backend", rep.Degraded)
	}
	if r.check == "" {
		if err := in.srv.IdentityError(); err != nil {
			r.check = err.Error()
		}
	}
	return r
}
