package backend_test

// The backend conformance suite: every registered backend — the DAnA
// accelerator, the TABLA design point, the golden CPU trainer, and the
// greenplum Sharded wrapper — runs through the seeded scenario
// generator and is held to the trichotomy its Capabilities declare
// (bit-identical where promised, toleranced elsewhere, typed errors for
// unsupported jobs). The mutation meta-tests in meta_test.go prove each
// check can fail.

import (
	"errors"
	"math"
	"testing"

	"dana/internal/backend"
	"dana/internal/greenplum"
)

// conformanceSeeds covers all four workload classes (linear, logistic,
// svm, lrmf) and merge coefficients 1/4/8 — see GenScenario.
var conformanceSeeds = []int64{1, 2, 3, 4, 5, 9, 10, 13, 15, 16}

// allRegistrations is the full dispatch registry the runtime assembles:
// the package builtins plus greenplum's Sharded.
func allRegistrations() []backend.Registration {
	return append(backend.Builtins(), greenplum.ShardedRegistration())
}

func TestBackendConformance(t *testing.T) {
	env := backend.ConformanceEnv()
	for _, reg := range allRegistrations() {
		reg := reg
		t.Run(reg.Name, func(t *testing.T) {
			trained := 0
			for _, seed := range conformanceSeeds {
				sc := backend.GenScenario(seed)
				if vs := backend.Check(reg, env, sc); len(vs) > 0 {
					for _, v := range vs {
						t.Errorf("seed %d (%s): %s", seed, sc.Spec.Kind, v)
					}
					continue
				}
				be := reg.New(env)
				if be.Capabilities().Supports(backend.Class(string(sc.Spec.Kind))) {
					trained++
				}
			}
			if trained == 0 {
				t.Fatalf("backend %q trained no conformance scenario (all skipped as unsupported)", reg.Name)
			}
		})
	}
}

// TestConformanceClassCoverage pins the seed set to keep covering every
// workload class: a generator change that silently drops a class from
// the suite should fail here, not go unnoticed.
func TestConformanceClassCoverage(t *testing.T) {
	seen := map[backend.Class]bool{}
	for _, seed := range conformanceSeeds {
		sc := backend.GenScenario(seed)
		p, err := backend.BuildProgram(sc, backend.ConformanceEnv())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seen[backend.Classify(p.Graph)] = true
	}
	for _, class := range backend.AllClasses() {
		if !seen[class] {
			t.Errorf("conformance seeds cover no %s scenario", class)
		}
	}
}

// TestScenarioDeterminism: same seed, same scenario — the property that
// makes every conformance failure reproducible from its seed.
func TestScenarioDeterminism(t *testing.T) {
	a, b := backend.GenScenario(7), backend.GenScenario(7)
	if a.Spec != b.Spec || len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("seed 7 scenarios differ: %+v vs %+v", a.Spec, b.Spec)
	}
	for i := range a.Tuples {
		for j := range a.Tuples[i] {
			if a.Tuples[i][j] != b.Tuples[i][j] {
				t.Fatalf("seed 7 tuple [%d][%d] differs", i, j)
			}
		}
	}
}

// TestShardedRejectsLRMF pins the typed-error leg for a backend with a
// genuinely restricted class set: model averaging over factor models is
// out of capability, and both EstimateCost and Configure must say so
// with ErrUnsupported.
func TestShardedRejectsLRMF(t *testing.T) {
	env := backend.ConformanceEnv()
	sc := backend.GenScenario(15) // lrmf
	p, err := backend.BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	job := backend.JobFor(sc, p)
	if job.Class != backend.ClassLRMF {
		t.Fatalf("seed 15 classified as %s, want lrmf", job.Class)
	}
	be := greenplum.NewSharded(env)
	if _, err := be.EstimateCost(job); !errors.Is(err, backend.ErrUnsupported) {
		t.Errorf("EstimateCost(lrmf) = %v, want ErrUnsupported", err)
	}
	if err := be.Configure(p); !errors.Is(err, backend.ErrUnsupported) {
		t.Errorf("Configure(lrmf) = %v, want ErrUnsupported", err)
	}
}

// TestFloat64BackendsRefuseFloat32Streams: the reference-precision
// backends train Rows64 only. A stream carrying only a float32 form —
// materialized rows or a page-order batch stream — fails typed and
// leaves the model as it was, bit for bit.
func TestFloat64BackendsRefuseFloat32Streams(t *testing.T) {
	env := backend.ConformanceEnv()
	sc := backend.GenScenario(3) // linear: both backends run it
	p, err := backend.BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	batches := func(emit func([][]float32) error) error { return emit(sc.Rows32) }
	for _, be := range []backend.Backend{backend.NewCPU(env), greenplum.NewSharded(env)} {
		name := be.Capabilities().Name
		if err := be.Configure(p); err != nil {
			t.Fatal(err)
		}
		if err := be.RunEpoch(&backend.Stream{Rows64: sc.Tuples}); err != nil {
			t.Fatal(err)
		}
		want := be.Model()
		for _, c := range []struct {
			form string
			st   backend.Stream
		}{{"Rows32", backend.Stream{Rows32: sc.Rows32}}, {"Batches", backend.Stream{Batches: batches}}} {
			if err := be.RunEpoch(&c.st); !errors.Is(err, backend.ErrUnsupported) {
				t.Errorf("%s: RunEpoch(%s) = %v, want ErrUnsupported", name, c.form, err)
			}
			for i, v := range be.Model() {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("%s: model[%d] = %v after a refused %s epoch, %v before", name, i, v, c.form, want[i])
				}
			}
		}
	}
}
