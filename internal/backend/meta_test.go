package backend_test

// Mutation meta-tests for the conformance harness: each test plants one
// deliberate defect behind a delegating wrapper and asserts that the
// one conformance check built to catch it — and no other — fires. A
// harness whose checks cannot fail proves nothing.

import (
	"errors"
	"testing"

	"dana/internal/backend"
	"dana/internal/engine"
)

// wrapper delegates to a real backend; each hook injects one defect.
type wrapper struct {
	inner backend.Backend

	capsHook  func(backend.Capabilities) backend.Capabilities
	costHook  func(backend.Cost, error) (backend.Cost, error)
	runHook   func(err error) error
	modelHook func([]float64) []float64

	countersDelta int64
	secondsDelta  float64

	// reconfigure, when set, runs in place of every Configure after the
	// first; stale is a counter ledger it left uncleared.
	reconfigure func(w *wrapper, p backend.Program) error
	configured  int
	stale       engine.Stats
}

func (w *wrapper) Capabilities() backend.Capabilities {
	c := w.inner.Capabilities()
	if w.capsHook != nil {
		c = w.capsHook(c)
	}
	return c
}

func (w *wrapper) EstimateCost(job backend.Job) (backend.Cost, error) {
	c, err := w.inner.EstimateCost(job)
	if w.costHook != nil {
		return w.costHook(c, err)
	}
	return c, err
}

func (w *wrapper) ModeledSeconds(job backend.Job, run backend.Run) float64 {
	return w.inner.ModeledSeconds(job, run) + w.secondsDelta
}

func (w *wrapper) Configure(p backend.Program) error {
	if w.configured++; w.configured > 1 && w.reconfigure != nil {
		return w.reconfigure(w, p)
	}
	return w.inner.Configure(p)
}

func (w *wrapper) RunEpoch(st *backend.Stream) error {
	err := w.inner.RunEpoch(st)
	if w.runHook != nil {
		return w.runHook(err)
	}
	return err
}

func (w *wrapper) Model() []float64 {
	m := w.inner.Model()
	if w.modelHook != nil {
		m = w.modelHook(m)
	}
	return m
}

func (w *wrapper) SetModel(m []float64) error { return w.inner.SetModel(m) }

func (w *wrapper) Counters() engine.Stats {
	var st engine.Stats
	if cb, ok := w.inner.(backend.CounterBackend); ok {
		st = cb.Counters()
	}
	st.Cycles += w.countersDelta
	return addStats(st, w.stale)
}

// addStats sums two counter ledgers field by field.
func addStats(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Cycles: a.Cycles + b.Cycles, ComputeCycles: a.ComputeCycles + b.ComputeCycles,
		MergeCycles: a.MergeCycles + b.MergeCycles, LoadCycles: a.LoadCycles + b.LoadCycles,
		Tuples: a.Tuples + b.Tuples, Batches: a.Batches + b.Batches, Instructions: a.Instructions + b.Instructions,
		SpanLoadCycles: a.SpanLoadCycles + b.SpanLoadCycles, SpanComputeCycles: a.SpanComputeCycles + b.SpanComputeCycles,
		IdleCycles: a.IdleCycles + b.IdleCycles,
	}
}

// metaScenario is the fixed scenario the mutants run on: seed 3 is a
// small linear job every backend supports.
func metaScenario() backend.Scenario { return backend.GenScenario(3) }

// runMutant asserts the mutated registration fails conformance with the
// expected check — and only that check.
func runMutant(t *testing.T, reg backend.Registration, wantCheck string) {
	t.Helper()
	vs := backend.Check(reg, backend.ConformanceEnv(), metaScenario())
	if len(vs) == 0 {
		t.Fatalf("mutant passed conformance: check %q cannot fail", wantCheck)
	}
	for _, v := range vs {
		if v.Check != wantCheck {
			t.Errorf("mutant tripped %s, want only %s", v, wantCheck)
		}
	}
}

// cpuMutant wraps the golden CPU backend with one hook set.
func cpuMutant(mutate func(*wrapper)) backend.Registration {
	return backend.Registration{
		Name: backend.NameCPU,
		New: func(env backend.Env) backend.Backend {
			w := &wrapper{inner: backend.NewCPU(env)}
			mutate(w)
			return w
		},
	}
}

// TestMetaWrapperTransparent proves the delegating wrapper itself is
// conformant, so mutant failures are attributable to the planted defect.
func TestMetaWrapperTransparent(t *testing.T) {
	reg := cpuMutant(func(w *wrapper) {})
	if vs := backend.Check(reg, backend.ConformanceEnv(), metaScenario()); len(vs) > 0 {
		t.Fatalf("transparent wrapper fails conformance: %v", vs)
	}
}

func TestMetaCapabilitiesCheckFires(t *testing.T) {
	runMutant(t, cpuMutant(func(w *wrapper) {
		w.capsHook = func(c backend.Capabilities) backend.Capabilities {
			c.Name = "impostor" // lies about its identity
			return c
		}
	}), backend.CheckCapabilities)
}

func TestMetaUnsupportedCheckFires(t *testing.T) {
	runMutant(t, cpuMutant(func(w *wrapper) {
		w.costHook = func(c backend.Cost, err error) (backend.Cost, error) {
			if errors.Is(err, backend.ErrUnsupported) {
				return c, errors.New("backend busy") // untyped rejection
			}
			return c, err
		}
	}), backend.CheckUnsupported)
}

func TestMetaNotConfiguredCheckFires(t *testing.T) {
	runMutant(t, cpuMutant(func(w *wrapper) {
		w.runHook = func(err error) error {
			if errors.Is(err, backend.ErrNotConfigured) {
				return nil // silently accepts pre-Configure use
			}
			return err
		}
	}), backend.CheckNotConfigured)
}

func TestMetaTrainCheckFires(t *testing.T) {
	runMutant(t, cpuMutant(func(w *wrapper) {
		w.modelHook = func(m []float64) []float64 {
			mm := append([]float64(nil), m...)
			mm[0] += 1 // trains to the wrong model
			return mm
		}
	}), backend.CheckTrain)
}

// TestMetaDeterminismCheckFires wraps the accelerator (the backend that
// promises DeterministicCounters) so each instance reports counters
// offset by its creation order: bit-identity across delivery forms must
// catch the divergence.
func TestMetaDeterminismCheckFires(t *testing.T) {
	instances := int64(0)
	reg := backend.Registration{
		Name: backend.NameAccelerator,
		New: func(env backend.Env) backend.Backend {
			instances++
			return &wrapper{inner: backend.NewAccel(env), countersDelta: instances}
		},
	}
	runMutant(t, reg, backend.CheckDeterminism)
}

// TestMetaModeledTimeCheckFires plants both defects the modeled-seconds
// leg exists for: a row-fed backend whose reported time drifts from its
// own analytic estimate, and a streaming backend whose reported time
// depends on the instance rather than on (job, counters) alone.
func TestMetaModeledTimeCheckFires(t *testing.T) {
	runMutant(t, cpuMutant(func(w *wrapper) {
		w.secondsDelta = 1e-9 // no longer EstimateCost(job).Seconds exactly
	}), backend.CheckModeledTime)

	instances := 0.0
	runMutant(t, backend.Registration{
		Name: backend.NameAccelerator,
		New: func(env backend.Env) backend.Backend {
			instances++
			return &wrapper{inner: backend.NewAccel(env), secondsDelta: instances}
		},
	}, backend.CheckModeledTime)
}

// TestMetaReconfigureCheckFires plants, one at a time, what an
// accelerator whose Reset forgot a step would show when configured
// again, and requires the reconfigure leg alone to catch it: the last
// run's model where the program sets none (the scratchpads, whose model
// words a job reads before it writes them), zero constants (the
// constants, copied back after the scratchpads are zeroed), and counters
// that carry on from the last run (the stats ledger). Reset's other two
// steps leave nothing a job reads; the engine's TestResetEqualsNewMachine
// catches their omission.
func TestMetaReconfigureCheckFires(t *testing.T) {
	for _, c := range []struct {
		step        string
		reconfigure func(w *wrapper, p backend.Program) error
	}{
		{"scratch", func(w *wrapper, p backend.Program) error {
			last := w.inner.Model()
			if err := w.inner.Configure(p); err != nil || p.Init != nil {
				return err
			}
			return w.inner.SetModel(last)
		}},
		{"constants", func(w *wrapper, p backend.Program) error {
			prog := *p.Engine
			prog.Consts = make([]float32, len(prog.Consts))
			p.Engine = &prog
			return w.inner.Configure(p)
		}},
		{"stats ledger", func(w *wrapper, p backend.Program) error {
			w.stale = addStats(w.stale, w.inner.(backend.CounterBackend).Counters())
			return w.inner.Configure(p)
		}},
	} {
		t.Run(c.step, func(t *testing.T) {
			runMutant(t, backend.Registration{
				Name: backend.NameAccelerator,
				New: func(env backend.Env) backend.Backend {
					return &wrapper{inner: backend.NewAccel(env), reconfigure: c.reconfigure}
				},
			}, backend.CheckReconfigure)
		})
	}
}
