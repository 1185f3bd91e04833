package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// RunEpoch against the two other ways to run an epoch. A caller that
// holds its rows gets them run in place; that must form the batches
// EpochStream forms out of any page cut of the same rows, which are the
// batches TrainReference runs on the interpreter.

// epochCase is one program at one merge coefficient.
type epochCase struct {
	name  string
	prog  *Program
	cfg   Config
	batch int
	width int // tuple width
	rows  int // row-index range of the first two words (LRMF), 0 for GLMs
}

func epochCases() []epochCase {
	cfg := func(k int) Config { return Config{Threads: k, ACsPerThread: 1, AUsPerAC: 8} }
	return []epochCase{
		{"glm/merge64", glmProg(12, true), cfg(8), 64, 13, 0},
		{"lrmf/merge1", lrmfProg(6, 3), cfg(1), 1, 3, 6},
	}
}

// epochRowCounts are the shapes around the batch boundary: nothing, one
// row, a lone short batch, exactly one batch, one batch and a tail, and
// several batches and a tail.
func epochRowCounts(batch int) []int {
	return []int{0, 1, batch - 1, batch, batch + 1, 3*batch + 7}
}

// checkRunEpoch runs one epoch of n rows through runEpoch (RunEpoch, or a
// mutant of it) and demands the model bits and Stats of the same rows
// fed through StreamEpoch in pages of 1, 7 and 129 rows, and of
// TrainReference.
func checkRunEpoch(c epochCase, n int, runEpoch func(m *Machine, rows [][]float32, batch int) error) error {
	rng := rand.New(rand.NewSource(int64(31 + n)))
	rows := diffTuples(rng, n, c.width, c.rows)
	init := make([]float32, c.prog.ModelSlot.Len)
	for i := range init {
		init[i] = float32(rng.NormFloat64() * 0.1)
	}
	machine := func() (*Machine, error) {
		m, err := NewMachine(c.prog, c.cfg)
		if err != nil {
			return nil, err
		}
		return m, m.SetModel(init)
	}
	// One epoch on the plan, then the convergence step TrainReference
	// takes after every epoch.
	planEpoch := func(epoch func(m *Machine) error) (*Machine, error) {
		m, err := machine()
		if err != nil {
			return nil, err
		}
		if err := epoch(m); err != nil {
			return nil, err
		}
		_, err = m.Converged()
		return m, err
	}
	got, err := planEpoch(func(m *Machine) error { return runEpoch(m, rows, c.batch) })
	if err != nil {
		return err
	}
	same := func(what string, want *Machine) error {
		return sameMachine(fmt.Sprintf("%s, %d rows", c.name, n), "RunEpoch", got, what, want)
	}
	for _, page := range []int{1, 7, 129} {
		want, err := planEpoch(func(m *Machine) error {
			s := m.StreamEpoch(c.batch)
			for lo := 0; lo < n; lo += page {
				if err := s.Feed(rows[lo:min(lo+page, n)]); err != nil {
					return err
				}
			}
			return s.Finish()
		})
		if err != nil {
			return err
		}
		if err := same(fmt.Sprintf("StreamEpoch(pages of %d)", page), want); err != nil {
			return err
		}
	}
	ref, err := machine()
	if err != nil {
		return err
	}
	if _, err := ref.TrainReference(rows, c.batch, 1); err != nil {
		return err
	}
	return same("TrainReference", ref)
}

func TestRunEpochRowsInPlace(t *testing.T) {
	for _, c := range epochCases() {
		for _, n := range epochRowCounts(c.batch) {
			if err := checkRunEpoch(c, n, (*Machine).RunEpoch); err != nil {
				t.Error(err)
			}
		}
		// In place means no copy to make room for: nothing is allocated,
		// whatever the tail.
		m, err := NewMachine(c.prog, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := diffTuples(rand.New(rand.NewSource(5)), 3*c.batch+7, c.width, c.rows)
		epoch := func() {
			if err := m.RunEpoch(rows, c.batch); err != nil {
				t.Fatal(err)
			}
		}
		epoch()
		if a := testing.AllocsPerRun(5, epoch); a != 0 {
			t.Errorf("%s: RunEpoch over %d held rows allocates %.0f times", c.name, len(rows), a)
		}
	}
}

// TestMetaDroppedTailCaught: RunEpoch that stops at the last full batch —
// the final short slice dropped — must fail the identity on every row
// count that has a tail, and only there.
func TestMetaDroppedTailCaught(t *testing.T) {
	dropTail := func(m *Machine, rows [][]float32, batch int) error {
		for ; len(rows) >= batch; rows = rows[batch:] {
			if err := m.RunBatch(rows[:batch]); err != nil {
				return err
			}
		}
		return nil
	}
	c := epochCases()[0]
	for _, n := range epochRowCounts(c.batch) {
		if err := checkRunEpoch(c, n, (*Machine).RunEpoch); err != nil {
			t.Fatalf("pre-mutation: %v", err)
		}
		err := checkRunEpoch(c, n, dropTail)
		switch tail := n%c.batch != 0; {
		case tail && err == nil:
			t.Errorf("%d rows: the mutant passed the identity: the check cannot fail", n)
		case tail && !strings.Contains(err.Error(), "model["):
			t.Errorf("%d rows: mutant tripped %q, want a model divergence", n, err)
		case !tail && err != nil:
			t.Errorf("%d rows, no tail to drop: %v", n, err)
		}
	}
}
