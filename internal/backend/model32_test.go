package backend_test

import (
	"math"
	"testing"

	"dana/internal/backend"
	"dana/internal/backend/backendtest"
)

// TestModel32IsTheModel: a float32 backend's Model32 is its Model
// narrowed, bit for bit, before and after an epoch, and a copy the caller
// may write without touching the backend; an unconfigured one returns nil.
func TestModel32IsTheModel(t *testing.T) {
	env := backendtest.Env()
	sc := backendtest.GenScenario(1)
	p, err := backendtest.BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []interface {
		backend.Backend
		Model32() []float32
	}{backend.NewAccel(env), backend.NewTabla(env), backend.NewWeaveAccel(env)} {
		name := be.Capabilities().Name
		if m := be.Model32(); m != nil {
			t.Errorf("%s: unconfigured Model32 %v, want nil", name, m)
		}
		if err := be.Configure(p); err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 2; epoch++ {
			m32, m64 := be.Model32(), be.Model()
			if len(m32) != len(m64) || len(m32) == 0 {
				t.Fatalf("%s: Model32 has %d values, Model %d", name, len(m32), len(m64))
			}
			for i := range m32 {
				if math.Float32bits(m32[i]) != math.Float32bits(float32(m64[i])) {
					t.Fatalf("%s epoch %d: Model32[%d] %v, Model %v", name, epoch, i, m32[i], m64[i])
				}
			}
			m32[0] = float32(math.NaN())
			if v := be.Model()[0]; math.IsNaN(v) {
				t.Fatalf("%s: a write to Model32's slice reached the backend", name)
			}
			if err := be.RunEpoch(&backend.Stream{Rows32: sc.Rows32}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
