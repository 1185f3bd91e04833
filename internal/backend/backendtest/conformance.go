// Package backendtest is the backend conformance harness, in the
// net/http/httptest idiom: a non-test package that only tests and the
// experiment harness import, so no production binary links it.
//
// Every registered backend is run through seeded scenarios (the
// differential generator) and held to the trichotomy its Capabilities
// declare:
//
//   - bit-identical where promised: DeterministicCounters backends must
//     produce bit-identical modeled counters AND model bits across
//     repeat runs — including across different Stream delivery forms
//     (page-order batch stream vs materialized rows, and materialized
//     rows with a lent holder vs without), the invariant the runtime's
//     record cache replays depend on; BitExactModel backends
//     must match their declared reference semantics bit for bit;
//   - toleranced elsewhere: float32-datapath backends must land within
//     Capabilities.ModelTolerance of the reference (Oracle-C scaled
//     comparison) for the trained model;
//   - typed errors for unsupported jobs: out-of-capability jobs fail
//     with ErrUnsupported, pre-Configure use with ErrNotConfigured —
//     never untyped, never silently wrong.
//
// The conformance tests and the mutation meta-tests (which prove each
// check can fail) share the harness through this package.
package backendtest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dana/internal/algos"
	"dana/internal/backend"
	"dana/internal/compiler"
	"dana/internal/cost"
	"dana/internal/engine"
	"dana/internal/golden"
	"dana/internal/hdfg"
	"dana/internal/hwgen"
	"dana/internal/ml"
	"dana/internal/obs"
	"dana/internal/storage"
	"dana/internal/weaving"
)

// Scenario is one seeded conformance instance: a golden spec, its
// initial model, and a float32-quantized training set (both widths name
// the same values).
type Scenario struct {
	Seed   int64
	Spec   golden.Spec
	Init   []float64
	Tuples [][]float64
	Rows32 [][]float32
	// Bits is the weave read precision the scenario requests (0 = full
	// width). GenScenario leaves it 0; the precision-sweep tests set it
	// explicitly.
	Bits int
}

// GenScenario draws a scenario from one seed. Same seed, same scenario.
func GenScenario(seed int64) Scenario {
	g := rand.New(rand.NewSource(seed)) // the stream verify.NewGen(seed) draws from
	kinds := []algos.Kind{algos.KindLinear, algos.KindLogistic, algos.KindSVM, algos.KindLRMF}
	sp := golden.Spec{
		Kind:      kinds[g.Intn(len(kinds))],
		LR:        []float64{0.1, 0.05, 0.025}[g.Intn(3)],
		MergeCoef: []int{1, 1, 4, 8}[g.Intn(4)],
		Epochs:    2 + g.Intn(3),
	}
	if sp.Kind == algos.KindLRMF {
		sp.Users, sp.Items, sp.Rank = 4+g.Intn(5), 3+g.Intn(4), 2+g.Intn(3)
		sp.MergeCoef = 1 // row-sparse updates cannot merge-batch
	} else {
		sp.NFeat = 3 + g.Intn(8)
	}
	if sp.Kind == algos.KindSVM {
		sp.Lambda = 0.01
	}
	n := 24 + g.Intn(40)
	sc := Scenario{
		Seed:   seed,
		Spec:   sp,
		Tuples: golden.TrainingTuples(g, sp, n),
		Init:   golden.InitModelFor(g, sp),
	}
	sc.Rows32 = make([][]float32, len(sc.Tuples))
	for i, t := range sc.Tuples {
		sc.Rows32[i] = make([]float32, len(t))
		for j, v := range t {
			sc.Rows32[i][j] = float32(v)
		}
	}
	return sc
}

// Env is the fixed environment the conformance suite runs backends
// under.
func Env() backend.Env {
	return backend.Env{Obs: obs.Noop, Cost: cost.Default(), FPGA: hwgen.VU9P(), Segments: 4}
}

// BuildProgram compiles the scenario's algorithm down to a backend
// Program: DSL -> hDFG -> engine program -> hardware design point.
func BuildProgram(sc Scenario, env backend.Env) (backend.Program, error) {
	const pageSize = 8192
	a, err := algos.Build(sc.Spec.Kind, sc.Spec.Topology(), sc.Spec.Hyper())
	if err != nil {
		return backend.Program{}, err
	}
	graph, err := hdfg.Translate(a)
	if err != nil {
		return backend.Program{}, err
	}
	prog, err := compiler.Compile(graph)
	if err != nil {
		return backend.Program{}, err
	}
	design, err := hwgen.Generate(prog, env.FPGA, hwgen.Params{
		PageSize: pageSize, MergeCoef: max(sc.Spec.MergeCoef, 1), NumTuples: len(sc.Tuples),
	})
	if err != nil {
		return backend.Program{}, err
	}
	return backend.Program{
		Graph:     graph,
		Engine:    prog,
		EngineCfg: design.Engine,
		Striders:  backend.InProcessStriders(design.NumStriders),
		MergeCoef: sc.Spec.MergeCoef,
		PageSize:  pageSize,
		Tuples:    len(sc.Tuples),
		Bits:      sc.Bits,
		Init:      append([]float64(nil), sc.Init...),
	}, nil
}

// JobFor classifies the scenario's program into a dispatch job.
func JobFor(sc Scenario, p backend.Program) backend.Job {
	pages := len(sc.Tuples)/8 + 1
	class := backend.Classify(p.Graph)
	return backend.Job{
		Class:         class,
		Bits:          sc.Bits,
		Tuples:        len(sc.Tuples),
		Columns:       sc.Spec.TupleWidth(),
		Pages:         pages,
		PageSize:      p.PageSize,
		DatasetBytes:  int64(pages) * int64(p.PageSize),
		Epochs:        max(sc.Spec.Epochs, 1),
		MergeCoef:     max(sc.Spec.MergeCoef, 1),
		ModelParams:   sc.Spec.ModelSize(),
		FlopsPerTuple: backend.FlopsPerTuple(class, p.Graph),
		Engine:        p.Engine,
		Design:        hwgen.Design{Engine: p.EngineCfg, NumStriders: p.Striders},
		Warm:          true,
	}
}

// Violation is one conformance failure, tagged with the check that
// caught it so the mutation meta-tests can assert which check fired.
type Violation struct {
	Check string
	Err   error
}

func (v Violation) String() string { return fmt.Sprintf("[%s] %v", v.Check, v.Err) }

// Conformance check names.
const (
	CheckCapabilities  = "capabilities"
	CheckUnsupported   = "unsupported-typed"
	CheckNotConfigured = "not-configured"
	CheckTrain         = "train"
	CheckDeterminism   = "counter-determinism"
	CheckModeledTime   = "modeled-seconds"
	CheckReconfigure   = "reconfigure"
)

// classUnknown is a workload class no backend supports; every backend
// must reject it typed.
const classUnknown backend.Class = "conformance-unknown"

// primaryStream is the delivery form the runtime sends a backend of
// these capabilities: the page-order batch stream to a streaming
// backend, otherwise the materialized rows in its precision's width.
func primaryStream(caps backend.Capabilities, sc Scenario) *backend.Stream {
	switch {
	case caps.Streaming:
		return &backend.Stream{Batches: batchFeed(sc.Rows32, 7)}
	case caps.Precision == backend.PrecisionFloat64:
		return &backend.Stream{Rows64: sc.Tuples}
	}
	return &backend.Stream{Rows32: sc.Rows32}
}

// alternateStream is the other delivery of the same epoch the runtime
// sends a streaming backend, a cache replay's Rows32; a deterministic
// backend must not be able to tell them apart. A row-fed backend is sent
// one form only, so its alternate is a repeat of it.
func alternateStream(caps backend.Capabilities, sc Scenario) *backend.Stream {
	if caps.Streaming {
		return &backend.Stream{Rows32: sc.Rows32}
	}
	return primaryStream(caps, sc)
}

// batchFeed emits rows in fixed-size batches, modeling page-granular
// extraction (the size is deliberately coprime with common merge
// coefficients to cross batch boundaries).
func batchFeed(rows [][]float32, per int) func(emit func([][]float32) error) error {
	return func(emit func([][]float32) error) error {
		for at := 0; at < len(rows); at += per {
			end := at + per
			if end > len(rows) {
				end = len(rows)
			}
			if err := emit(rows[at:end]); err != nil {
				return err
			}
		}
		return nil
	}
}

// Reference computes the expected model for a scenario under the
// reference semantics the named registration declares (env carries the
// knobs a semantics depends on, the Sharded segment count):
//
//   - weave: the golden trainer over the tuples rewoven at the
//     scenario's precision (WeaveReference);
//   - sharded: per-segment golden epochs from the shared model, averaged
//     (shardedReference);
//   - every other backend: the golden trainer (GoldenReference).
func Reference(name string, env backend.Env, sc Scenario) ([]float64, error) {
	switch name {
	case backend.NameWeave:
		return WeaveReference(sc)
	case backend.NameSharded:
		return shardedReference(env, sc)
	}
	return GoldenReference(sc)
}

// GoldenReference trains the scenario on the golden float64 trainer —
// the default reference semantics a backend is compared against.
func GoldenReference(sc Scenario) ([]float64, error) {
	return trainGolden(sc.Spec, sc.Init, sc.Tuples)
}

// WeaveReference is the weave registration's reference semantics: the
// golden float64 trainer over the scenario's tuples rewoven at the
// scenario's precision — the same weaving.ReweaveRows call the weave
// stage makes, so backend and reference see identical feature values and
// only datapath width separates them. Quantization error lives in the
// reference, not in the backend's declared tolerance.
func WeaveReference(sc Scenario) ([]float64, error) {
	bits := sc.Bits
	if bits == 0 {
		bits = storage.WeaveMaxBits
	}
	rewoven, _, err := weaving.ReweaveRows(sc.Rows32, nil, bits, 0)
	if err != nil {
		return nil, err
	}
	tuples := make([][]float64, len(rewoven))
	for i, r := range rewoven {
		tuples[i] = make([]float64, len(r))
		for j, v := range r {
			tuples[i][j] = float64(v)
		}
	}
	return trainGolden(sc.Spec, sc.Init, tuples)
}

// shardedReference is the Sharded registration's reference semantics:
// shard the scenario round-robin, run each epoch as one golden epoch per
// segment from the shared model, average the non-empty segments. The
// inner CPU trainers are bit-identical to the golden trainer, so the
// comparison is bit-exact.
func shardedReference(env backend.Env, sc Scenario) ([]float64, error) {
	segs := env.Segments
	if segs < 1 {
		segs = backend.DefaultSegments
	}
	shards := make([][][]float64, segs)
	for i, t := range sc.Tuples {
		shards[i%segs] = append(shards[i%segs], t)
	}
	oneEpoch := sc.Spec
	oneEpoch.Epochs = 1
	model := append([]float64(nil), sc.Init...)
	for e := 0; e < max(sc.Spec.Epochs, 1); e++ {
		var seen [][]float64
		for _, shard := range shards {
			if len(shard) == 0 {
				continue
			}
			local, err := trainGolden(oneEpoch, model, shard)
			if err != nil {
				return nil, err
			}
			seen = append(seen, local)
		}
		if len(seen) > 0 {
			model = ml.AverageModels(seen)
		}
	}
	return model, nil
}

// trainGolden trains a copy of init on the golden trainer.
func trainGolden(sp golden.Spec, init []float64, tuples [][]float64) ([]float64, error) {
	model := append([]float64(nil), init...)
	if err := sp.Train(model, tuples); err != nil {
		return nil, err
	}
	return model, nil
}

// train configures a fresh instance and runs exactly the scenario's
// epoch budget through the given stream (convergence policy belongs to
// the integration layer, and the reference trainer runs uncapped).
func train(be backend.Backend, p backend.Program, sc Scenario, st *backend.Stream) error {
	if err := be.Configure(p); err != nil {
		return err
	}
	for e := 0; e < max(sc.Spec.Epochs, 1); e++ {
		if err := be.RunEpoch(st); err != nil {
			return fmt.Errorf("epoch %d: %w", e, err)
		}
	}
	return nil
}

// Check runs the full conformance suite for one registration on one
// scenario and returns every violation found (empty = conformant). The
// model is compared against Reference(reg.Name, env, sc).
func Check(reg backend.Registration, env backend.Env, sc Scenario) []Violation {
	var vs []Violation
	add := func(check string, format string, args ...interface{}) {
		vs = append(vs, Violation{Check: check, Err: fmt.Errorf(format, args...)})
	}

	be := reg.New(env)
	caps := be.Capabilities()

	// Capability declaration sanity: a backend must say what it is.
	if caps.Name == "" || caps.Name != reg.Name {
		add(CheckCapabilities, "capability name %q does not match registration %q", caps.Name, reg.Name)
	}
	if len(caps.Classes) == 0 {
		add(CheckCapabilities, "backend %q declares no workload classes", reg.Name)
	}
	if caps.Precision != backend.PrecisionFloat32 && caps.Precision != backend.PrecisionFloat64 {
		add(CheckCapabilities, "backend %q declares no precision", reg.Name)
	}
	if !caps.BitExactModel && !(caps.ModelTolerance > 0) {
		add(CheckCapabilities, "backend %q promises neither bit-exact models nor a tolerance", reg.Name)
	}

	p, err := BuildProgram(sc, env)
	if err != nil {
		add(CheckTrain, "building scenario program: %v", err)
		return vs
	}
	job := JobFor(sc, p)

	// Typed rejection of out-of-capability jobs: the fabricated unknown
	// class for every backend, plus the scenario's own class when the
	// backend genuinely doesn't support it.
	unknown := job
	unknown.Class = classUnknown
	if _, err := be.EstimateCost(unknown); !errors.Is(err, backend.ErrUnsupported) {
		add(CheckUnsupported, "EstimateCost(class=%s) = %v, want ErrUnsupported", classUnknown, err)
	}
	if !caps.Supports(job.Class) {
		if _, err := be.EstimateCost(job); !errors.Is(err, backend.ErrUnsupported) {
			add(CheckUnsupported, "EstimateCost(unsupported class %s) = %v, want ErrUnsupported", job.Class, err)
		}
		if err := be.Configure(p); !errors.Is(err, backend.ErrUnsupported) {
			add(CheckUnsupported, "Configure(unsupported class %s) = %v, want ErrUnsupported", job.Class, err)
		}
		return vs // nothing to train
	}

	// Pre-Configure use fails typed.
	fresh := reg.New(env)
	if err := fresh.RunEpoch(primaryStream(caps, sc)); !errors.Is(err, backend.ErrNotConfigured) {
		add(CheckNotConfigured, "RunEpoch before Configure = %v, want ErrNotConfigured", err)
	}

	// Train and compare against the declared reference semantics.
	if err := train(be, p, sc, primaryStream(caps, sc)); err != nil {
		add(CheckTrain, "training: %v", err)
		return vs
	}
	got := be.Model()
	want, err := Reference(reg.Name, env, sc)
	if err != nil {
		add(CheckTrain, "reference trainer: %v", err)
		return vs
	}
	if caps.BitExactModel {
		if err := compareBits("model vs reference", got, want); err != nil {
			add(CheckTrain, "%v", err)
		}
	} else if err := golden.CompareModels("model vs reference", want, got, caps.ModelTolerance); err != nil {
		add(CheckTrain, "%v", err)
	}

	// Determinism: a second instance fed the alternate stream form must
	// reproduce the model bits and, where promised, the modeled
	// counters, bit for bit.
	if caps.DeterministicCounters {
		cb, ok := be.(backend.CounterBackend)
		if !ok {
			add(CheckDeterminism, "backend %q promises deterministic counters but exposes none", reg.Name)
		} else {
			be2 := reg.New(env)
			if err := train(be2, p, sc, alternateStream(caps, sc)); err != nil {
				add(CheckDeterminism, "repeat run: %v", err)
			} else {
				if err := compareBits("repeat-run model", be2.Model(), got); err != nil {
					add(CheckDeterminism, "%v", err)
				}
				cb2 := be2.(backend.CounterBackend)
				if a, b := cb.Counters(), cb2.Counters(); a != b {
					add(CheckDeterminism, "modeled counters diverge across delivery forms:\n  a=%+v\n  b=%+v", a, b)
				}
			}
			// Rows32 with a lent holder against the same rows without one:
			// what a backend keeps in the holder must not show.
			if caps.Streaming {
				be3 := reg.New(env)
				if err := train(be3, p, sc, &backend.Stream{Rows32: sc.Rows32, Held: new(backend.Held)}); err != nil {
					add(CheckDeterminism, "run with a lent holder: %v", err)
				} else {
					if err := compareBits("model with a lent holder", be3.Model(), got); err != nil {
						add(CheckDeterminism, "%v", err)
					}
					if a, b := cb.Counters(), be3.(backend.CounterBackend).Counters(); a != b {
						add(CheckDeterminism, "modeled counters diverge with a lent holder:\n  without=%+v\n  with=%+v", a, b)
					}
				}
			}
		}
	}

	// Modeled time: a pure function of (job, run counters) per
	// registration — two instances, one of them never configured, must
	// agree bit for bit — and for row-fed backends, which have no
	// modeled page stream to integrate, exactly the analytic estimate.
	run := backend.Run{StriderCycles: 1 << 20, Pages: int64(3 * job.Pages), IOSeconds: 0.125}
	if cb, ok := be.(backend.CounterBackend); ok {
		run.EngineCycles = cb.Counters().Cycles
	}
	sec := be.ModeledSeconds(job, run)
	if again := reg.New(env).ModeledSeconds(job, run); math.Float64bits(again) != math.Float64bits(sec) {
		add(CheckModeledTime, "ModeledSeconds is not deterministic: %v then %v for the same job and counters", sec, again)
	}
	if !(sec > 0) {
		add(CheckModeledTime, "ModeledSeconds = %v, want a positive modeled time", sec)
	}
	if !caps.Streaming {
		if c, err := be.EstimateCost(job); err != nil {
			add(CheckModeledTime, "EstimateCost on a trained job: %v", err)
		} else if math.Float64bits(sec) != math.Float64bits(c.Seconds) {
			add(CheckModeledTime, "row-fed ModeledSeconds = %v, want EstimateCost(job).Seconds = %v exactly", sec, c.Seconds)
		}
	}

	// Reconfigure: be, configured again with its program left to the
	// canonical initial model (as the runtime leaves it), then with the
	// next scenario's, is a fresh instance (%v of a float64 round-trips).
	// It compares instances, so it runs only if fresh ones passed above.
	if len(vs) > 0 {
		return vs
	}
	trained := func(b backend.Backend, p backend.Program, sc Scenario) string {
		err := train(b, p, sc, primaryStream(caps, sc))
		var counters engine.Stats
		if cb, ok := b.(backend.CounterBackend); ok {
			counters = cb.Counters()
		}
		sec := b.ModeledSeconds(JobFor(sc, p), backend.Run{EngineCycles: counters.Cycles})
		return fmt.Sprintf("model %v counters %+v seconds %v error %v", b.Model(), counters, sec, err)
	}
	next := GenScenario(sc.Seed + 1)
	np, err := BuildProgram(next, env)
	if err != nil {
		add(CheckReconfigure, "building the next scenario's program: %v", err)
	}
	p.Init = nil
	for i, p := range []backend.Program{p, np} {
		if sc := []Scenario{sc, next}[i]; p.Graph != nil && caps.Supports(backend.Classify(p.Graph)) {
			if got, want := trained(be, p, sc), trained(reg.New(env), p, sc); got != want {
				add(CheckReconfigure, "seed %d: reconfigured %s, fresh %s", sc.Seed, got, want)
			}
		}
	}
	return vs
}

// compareBits demands float64 bit-identity.
func compareBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: [%d] = %v != %v (bit-identity required)", what, i, got[i], want[i])
		}
	}
	return nil
}
