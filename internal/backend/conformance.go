package backend

// Backend conformance harness. Every registered backend is run through
// seeded scenarios (the PR-2 differential generator) and held to the
// trichotomy its Capabilities declare:
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
// The harness lives in non-test code so the conformance tests and the
// mutation meta-tests (which prove each check can fail) share it.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dana/internal/algos"
	"dana/internal/compiler"
	"dana/internal/cost"
	"dana/internal/engine"
	"dana/internal/golden"
	"dana/internal/hdfg"
	"dana/internal/hwgen"
	"dana/internal/obs"
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
		sc.Rows32[i] = narrow32(t)
	}
	return sc
}

// ConformanceEnv is the fixed environment the conformance suite runs
// backends under.
func ConformanceEnv() Env {
	return Env{Obs: obs.Noop, Cost: cost.Default(), FPGA: hwgen.VU9P(), Segments: 4}
}

// BuildProgram compiles the scenario's algorithm down to a backend
// Program: DSL -> hDFG -> engine program -> hardware design point.
func BuildProgram(sc Scenario, env Env) (Program, error) {
	const pageSize = 8192
	a, err := algos.Build(sc.Spec.Kind, sc.Spec.Topology(), sc.Spec.Hyper())
	if err != nil {
		return Program{}, err
	}
	graph, err := hdfg.Translate(a)
	if err != nil {
		return Program{}, err
	}
	prog, err := compiler.Compile(graph)
	if err != nil {
		return Program{}, err
	}
	design, err := hwgen.Generate(prog, env.FPGA, hwgen.Params{
		PageSize: pageSize, MergeCoef: max1(sc.Spec.MergeCoef), NumTuples: len(sc.Tuples),
	})
	if err != nil {
		return Program{}, err
	}
	return Program{
		Graph:     graph,
		Engine:    prog,
		EngineCfg: design.Engine,
		Striders:  InProcessStriders(design.NumStriders),
		MergeCoef: sc.Spec.MergeCoef,
		PageSize:  pageSize,
		Tuples:    len(sc.Tuples),
		Bits:      sc.Bits,
		Init:      append([]float64(nil), sc.Init...),
	}, nil
}

// JobFor classifies the scenario's program into a dispatch job.
func JobFor(sc Scenario, p Program) Job {
	pages := len(sc.Tuples)/8 + 1
	class := Classify(p.Graph)
	return Job{
		Class:         class,
		Bits:          sc.Bits,
		Tuples:        len(sc.Tuples),
		Columns:       sc.Spec.TupleWidth(),
		Pages:         pages,
		PageSize:      p.PageSize,
		DatasetBytes:  int64(pages) * int64(p.PageSize),
		Epochs:        max1(sc.Spec.Epochs),
		MergeCoef:     max1(sc.Spec.MergeCoef),
		ModelParams:   sc.Spec.ModelSize(),
		FlopsPerTuple: FlopsPerTuple(class, p.Graph),
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
const classUnknown Class = "conformance-unknown"

// primaryStream is the delivery form matching the backend's
// capabilities: the page-order batch stream for streaming backends,
// materialized rows (both widths) otherwise.
func primaryStream(caps Capabilities, sc Scenario) *Stream {
	if caps.Streaming {
		return &Stream{Batches: batchFeed(sc.Rows32, 7)}
	}
	return &Stream{Rows32: sc.Rows32, Rows64: sc.Tuples}
}

// alternateStream is a different legal delivery of the same epoch; a
// deterministic backend must not be able to tell them apart.
func alternateStream(caps Capabilities, sc Scenario) *Stream {
	if caps.Streaming {
		return &Stream{Rows32: sc.Rows32}
	}
	return &Stream{Rows64: sc.Tuples}
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

// reference resolves the registration's declared reference semantics
// (default: the golden trainer).
func reference(reg Registration, env Env, sc Scenario) ([]float64, error) {
	if reg.Reference != nil {
		return reg.Reference(env, sc)
	}
	return GoldenReference(sc)
}

// GoldenReference trains the scenario on the golden float64 trainer —
// the default reference semantics a backend is compared against.
func GoldenReference(sc Scenario) ([]float64, error) {
	model := append([]float64(nil), sc.Init...)
	if err := sc.Spec.Train(model, sc.Tuples); err != nil {
		return nil, err
	}
	return model, nil
}

// train configures a fresh instance and runs exactly the scenario's
// epoch budget through the given stream (convergence policy belongs to
// the integration layer, and the reference trainer runs uncapped).
func train(be Backend, p Program, sc Scenario, st *Stream) error {
	if err := be.Configure(p); err != nil {
		return err
	}
	for e := 0; e < max1(sc.Spec.Epochs); e++ {
		if err := be.RunEpoch(st); err != nil {
			return fmt.Errorf("epoch %d: %w", e, err)
		}
	}
	return nil
}

// Check runs the full conformance suite for one registration on one
// scenario and returns every violation found (empty = conformant).
func Check(reg Registration, env Env, sc Scenario) []Violation {
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
	if caps.Precision != PrecisionFloat32 && caps.Precision != PrecisionFloat64 {
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
	if _, err := be.EstimateCost(unknown); !errors.Is(err, ErrUnsupported) {
		add(CheckUnsupported, "EstimateCost(class=%s) = %v, want ErrUnsupported", classUnknown, err)
	}
	if !caps.Supports(job.Class) {
		if _, err := be.EstimateCost(job); !errors.Is(err, ErrUnsupported) {
			add(CheckUnsupported, "EstimateCost(unsupported class %s) = %v, want ErrUnsupported", job.Class, err)
		}
		if err := be.Configure(p); !errors.Is(err, ErrUnsupported) {
			add(CheckUnsupported, "Configure(unsupported class %s) = %v, want ErrUnsupported", job.Class, err)
		}
		return vs // nothing to train
	}

	// Pre-Configure use fails typed.
	fresh := reg.New(env)
	if err := fresh.RunEpoch(&Stream{Rows64: sc.Tuples}); !errors.Is(err, ErrNotConfigured) {
		add(CheckNotConfigured, "RunEpoch before Configure = %v, want ErrNotConfigured", err)
	}

	// Train and compare against the declared reference semantics.
	if err := train(be, p, sc, primaryStream(caps, sc)); err != nil {
		add(CheckTrain, "training: %v", err)
		return vs
	}
	got := be.Model()
	want, err := reference(reg, env, sc)
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
		cb, ok := be.(CounterBackend)
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
				cb2 := be2.(CounterBackend)
				if a, b := cb.Counters(), cb2.Counters(); a != b {
					add(CheckDeterminism, "modeled counters diverge across delivery forms:\n  a=%+v\n  b=%+v", a, b)
				}
			}
			// Rows32 with a lent holder against the same rows without one:
			// what a backend keeps in the holder must not show.
			if caps.Streaming {
				be3 := reg.New(env)
				if err := train(be3, p, sc, &Stream{Rows32: sc.Rows32, Held: new(Held)}); err != nil {
					add(CheckDeterminism, "run with a lent holder: %v", err)
				} else {
					if err := compareBits("model with a lent holder", be3.Model(), got); err != nil {
						add(CheckDeterminism, "%v", err)
					}
					if a, b := cb.Counters(), be3.(CounterBackend).Counters(); a != b {
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
	run := Run{StriderCycles: 1 << 20, Pages: int64(3 * job.Pages), IOSeconds: 0.125}
	if cb, ok := be.(CounterBackend); ok {
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
	trained := func(b Backend, p Program, sc Scenario) string {
		err := train(b, p, sc, primaryStream(caps, sc))
		var counters engine.Stats
		if cb, ok := b.(CounterBackend); ok {
			counters = cb.Counters()
		}
		sec := b.ModeledSeconds(JobFor(sc, p), Run{EngineCycles: counters.Cycles})
		return fmt.Sprintf("model %v counters %+v seconds %v error %v", b.Model(), counters, sec, err)
	}
	next := GenScenario(sc.Seed + 1)
	np, err := BuildProgram(next, env)
	if err != nil {
		add(CheckReconfigure, "building the next scenario's program: %v", err)
	}
	p.Init = nil
	for i, p := range []Program{p, np} {
		if sc := []Scenario{sc, next}[i]; p.Graph != nil && caps.Supports(Classify(p.Graph)) {
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
