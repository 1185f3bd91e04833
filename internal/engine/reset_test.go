package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestResetEqualsNewMachine: a machine that has run direct and
// partitioned merge batches, a convergence check and a published epoch,
// then Reset, holds exactly what a fresh NewMachine holds — scratchpads,
// accumulators, stats, the published ledger, the batch run-length, the
// frames — and trains the fresh machine's model bits and counters. A
// Reset that forgets any one of its steps (planted by putting back, after
// Reset, what the step cleared) is caught. The accumulators and the
// frames hold nothing a job reads — a batch stores its first merge value
// rather than adding it, and binds the frames it runs — so only this test
// sees them; the backend conformance suite's reconfigure leg sees the
// other three.
func TestResetEqualsNewMachine(t *testing.T) {
	cfg := Config{Threads: 8, ACsPerThread: 1, AUsPerAC: 8}
	rng := rand.New(rand.NewSource(5))
	forgets := map[string]func(m, before *Machine){
		"scratch": func(m, before *Machine) { copy(m.scratch, before.scratch) },
		"constants": func(m, _ *Machine) {
			for i := 0; i < m.pads; i++ {
				clear(m.thread(i)[m.Prog.ConstSlot.Base:][:m.Prog.ConstSlot.Len])
			}
		},
		"accumulators": func(m, before *Machine) { copy(m.accs, before.accs) },
		"stats ledger": func(m, before *Machine) {
			m.stats, m.published, m.runSize, m.runLen = before.stats, before.published, before.runSize, before.runLen
		},
		"frames": func(m, before *Machine) { m.frames = before.frames },
	}
	for _, c := range []struct {
		name   string
		prog   *Program
		tuples [][]float32
	}{
		{"glm", glmProg(6, true), diffTuples(rng, 40, 7, 0)},
		{"lrmf", lrmfProg(12, 3), diffTuples(rng, 40, 3, 12)},
	} {
		run := func(m *Machine) error {
			for _, batch := range []int{5, 20} { // n < threads runs direct, n > threads partitions
				if err := m.RunEpoch(c.tuples, batch); err != nil {
					return err
				}
				m.PublishObs()
			}
			_, err := m.Converged()
			return err
		}
		diff := func(forget func(m, before *Machine)) error {
			fresh, err := NewMachine(c.prog, cfg)
			if err != nil {
				return err
			}
			used, _ := NewMachine(c.prog, cfg)
			if err := run(used); err != nil {
				return err
			}
			before := *used
			before.scratch, before.accs = slices.Clone(used.scratch), slices.Clone(used.accs)
			used.Reset()
			if forget != nil {
				forget(used, &before)
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"scratch", bitsOf(used.scratch), bitsOf(fresh.scratch)},
				{"accumulators", bitsOf(used.accs), bitsOf(fresh.accs)},
				{"stats", used.stats, fresh.stats},
				{"published", used.published, fresh.published},
				{"run-length", [2]int64{used.runSize, used.runLen}, [2]int64{fresh.runSize, fresh.runLen}},
				{"frames", used.frames, fresh.frames},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					return fmt.Errorf("%s after Reset differ from a fresh machine's", f.name)
				}
			}
			if err := run(used); err != nil {
				return err
			}
			if err := run(fresh); err != nil {
				return err
			}
			return sameMachine("trained after Reset", "reset", used, "fresh", fresh)
		}
		if err := diff(nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.prog.HasMerge() {
			continue // no accumulators to forget
		}
		for step, forget := range forgets {
			if err := diff(forget); err == nil {
				t.Errorf("%s: a Reset without its %s passed", c.name, step)
			}
		}
	}
}

func bitsOf(v []float32) []uint32 {
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}
