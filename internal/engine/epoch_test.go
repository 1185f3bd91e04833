package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dana/internal/obs"
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

// A merge-free program runs a whole epoch in runSerial's one loop, counted
// and charged in closed form. That must be the epoch RunBatch runs a batch
// at a time — model bits, every Stats field and the published obs,
// engine.batch_tuples.hist included — and the one Feed + Finish run over
// pages that cut the batches anywhere. A tuple that fails ends the run: its
// batch is counted, and only the batches before it are charged.

// serialCase is a merge-free program, its tuple width and the row range of
// its first two words (0 for a GLM).
type serialCase struct {
	name        string
	prog        *Program
	width, rows int
}

func serialCases() []serialCase {
	return []serialCase{{"lrmf", lrmfProg(6, 3), 3, 6}, {"linear", linearProg(5), 6, 0}}
}

// serialRun is one way to run an epoch of rows in batches of b.
type serialRun struct {
	name string
	run  func(m *Machine, rows [][]float32, b int) error
}

// batchAtATime is RunBatch over consecutive b-slices of rows.
func batchAtATime(m *Machine, rows [][]float32, b int) error {
	for lo := 0; lo < len(rows); lo += b {
		if err := m.RunBatch(rows[lo:min(lo+b, len(rows))]); err != nil {
			return err
		}
	}
	return nil
}

// unevenPages feeds rows through a stream in pages of 2, 5, 1 and 7 rows,
// round and round, then finishes it.
func unevenPages(m *Machine, rows [][]float32, b int) error {
	s := m.StreamEpoch(b)
	for i, lo := 0, 0; lo < len(rows); i++ {
		hi := min(lo+[]int{2, 5, 1, 7}[i%4], len(rows))
		if err := s.Feed(rows[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return s.Finish()
}

// serialEpochs runs epochs epochs of rows through run on a fresh machine
// with an obs registry, publishing it after each. It returns the machine,
// the registry's snapshot and the error that ended the run.
func serialEpochs(c serialCase, rows [][]float32, b, epochs int, run func(*Machine, [][]float32, int) error) (*Machine, *obs.Snapshot, error) {
	m, err := NewMachine(c.prog, Config{Threads: 1, ACsPerThread: 1, AUsPerAC: 8})
	if err != nil {
		return nil, nil, err
	}
	reg := obs.New()
	m.SetObs(reg)
	init := make([]float32, c.prog.ModelSlot.Len)
	for i := range init {
		init[i] = float32(i%7) * 0.03
	}
	if err := m.SetModel(init); err != nil {
		return nil, nil, err
	}
	for e := 0; e < epochs && err == nil; e++ {
		err = run(m, rows, b)
		m.PublishObs()
	}
	return m, reg.Snapshot(), err
}

// sameSerial runs want and got for two epochs over the same rows and
// reports the first difference: error text, model bits, Stats, obs
// snapshot.
func sameSerial(c serialCase, rows [][]float32, b int, want, got serialRun) error {
	what := fmt.Sprintf("%s, %d rows in batches of %d", c.name, len(rows), b)
	wm, ws, werr := serialEpochs(c, rows, b, 2, want.run)
	gm, gs, gerr := serialEpochs(c, rows, b, 2, got.run)
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		return fmt.Errorf("%s: %s error %v, %s error %v", what, want.name, werr, got.name, gerr)
	}
	if err := sameMachine(what, want.name, wm, got.name, gm); err != nil {
		return err
	}
	if !reflect.DeepEqual(ws, gs) {
		return fmt.Errorf("%s: obs diverge:\n  %s %+v\n  %s %+v", what, want.name, *ws, got.name, *gs)
	}
	return nil
}

func TestSerialEpochIsItsBatches(t *testing.T) {
	perBatch := serialRun{"RunBatch per batch", batchAtATime}
	for _, c := range serialCases() {
		rows := diffTuples(rand.New(rand.NewSource(41)), 23, c.width, c.rows)
		for _, b := range []int{1, 3, len(rows)} {
			for _, got := range []serialRun{{"RunEpoch", (*Machine).RunEpoch}, {"Feed + Finish", unevenPages}} {
				if err := sameSerial(c, rows, b, perBatch, got); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// badGatherRows is lrmf's rows with tuple 10 — the middle of its batch of
// 3 — gathering a row outside the model.
func badGatherRows() (serialCase, [][]float32) {
	c := serialCases()[0]
	rows := diffTuples(rand.New(rand.NewSource(42)), 23, c.width, c.rows)
	rows[10] = []float32{2, float32(c.rows + 3), 0.5}
	return c, rows
}

// TestSerialEpochFailedBatchCountedNotCharged: the run stops at tuple 10
// with the gather's error, however the epoch was run, having counted four
// batches of 3 and charged what a clean run of the three before it
// charges.
func TestSerialEpochFailedBatchCountedNotCharged(t *testing.T) {
	c, rows := badGatherRows()
	perBatch := serialRun{"RunBatch per batch", batchAtATime}
	for _, got := range []serialRun{{"RunEpoch", (*Machine).RunEpoch}, {"Feed + Finish", unevenPages}} {
		if err := sameSerial(c, rows, 3, perBatch, got); err != nil {
			t.Error(err)
		}
	}
	m, _, err := serialEpochs(c, rows, 3, 1, (*Machine).RunEpoch)
	if want := "engine: gather row 9 outside model of 6 rows"; fmt.Sprint(err) != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	clean, _, err := serialEpochs(c, rows[:9], 3, 1, batchAtATime)
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Stats()
	want.Batches, want.Tuples = 4, 12
	if got := m.Stats(); got != want {
		t.Errorf("stats after the failed batch %+v, want %+v", got, want)
	}
}

// TestMetaSerialChargedFailedBatchCaught: a runSerial that also charged
// the batch its failed tuple is in must fail the identity.
func TestMetaSerialChargedFailedBatchCaught(t *testing.T) {
	c, rows := badGatherRows()
	chargesFailed := serialRun{"RunEpoch charging its failed batch", func(m *Machine, rows [][]float32, b int) error {
		err := m.RunEpoch(rows, b)
		if err != nil {
			m.est.chargeSerial(&m.stats, b)
		}
		return err
	}}
	err := sameSerial(c, rows, 3, serialRun{"RunBatch per batch", batchAtATime}, chargesFailed)
	if err == nil || !strings.Contains(err.Error(), "stats diverge") {
		t.Errorf("the mutant read %v, want a stats divergence", err)
	}
}
