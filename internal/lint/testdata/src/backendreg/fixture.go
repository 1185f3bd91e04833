// Package fixture exercises the backendreg analyzer: concrete
// backend.Backend implementations must be constructed by some
// backend.Registration in the package and must declare Capabilities
// with both Name and Classes. Lines without `want` must stay silent.
package fixture

import "dana/internal/backend"

// base provides the method set shared by the fixture backends.
type base struct{}

func (base) EstimateCost(backend.Job) (backend.Cost, error) { return backend.Cost{}, nil }
func (base) Configure(backend.Program) error                { return nil }
func (base) RunEpoch(*backend.Stream) error                 { return nil }
func (base) Model() []float64                               { return nil }
func (base) SetModel([]float64) error                       { return nil }
func (base) ModeledSeconds(backend.Job, backend.Run) float64 {
	return 0
}

// Good is registered through a function-literal factory and declares
// complete capabilities.
type Good struct{ base }

func (Good) Capabilities() backend.Capabilities {
	return backend.Capabilities{
		Name:          "good",
		Classes:       backend.AllClasses(),
		Precision:     backend.PrecisionFloat64,
		BitExactModel: true,
	}
}

// CtorBacked is registered through a named constructor reference.
type CtorBacked struct{ base }

func (CtorBacked) Capabilities() backend.Capabilities {
	return backend.Capabilities{
		Name:      "ctor",
		Classes:   []backend.Class{backend.ClassLinear},
		Precision: backend.PrecisionFloat64,
	}
}

// NewCtorBacked is the registered factory for CtorBacked.
func NewCtorBacked(backend.Env) backend.Backend { return &CtorBacked{} }

// Orphan implements Backend but no Registration constructs it.
type Orphan struct{ base } // want `type Orphan implements backend.Backend but no backend.Registration constructs it`

func (Orphan) Capabilities() backend.Capabilities {
	return backend.Capabilities{
		Name:    "orphan",
		Classes: backend.AllClasses(),
	}
}

// Hollow is registered but its capability declaration omits Classes,
// so the dispatcher's admissibility filter can never match it.
type Hollow struct{ base }

func (Hollow) Capabilities() backend.Capabilities { // want `Capabilities of Hollow must declare Name and workload Classes`
	return backend.Capabilities{Name: "hollow"}
}

// Registrations assembles this package's dispatch registry.
func Registrations() []backend.Registration {
	return []backend.Registration{
		{Name: "good", New: func(backend.Env) backend.Backend { return &Good{} }},
		{Name: "ctor", New: NewCtorBacked},
		{Name: "hollow", New: func(backend.Env) backend.Backend { return &Hollow{} }},
	}
}
