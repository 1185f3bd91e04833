package engine

import (
	hostrt "runtime"
	"testing"
)

// TestSetHostWorkersClampsToHostCores pins the PR-10 hotcall fix:
// RunBatch used to query runtime.GOMAXPROCS on every batch to cap the
// fan-out, which put a host-runtime call on the //dana:hotpath. The cap
// now lives in SetHostWorkers, so over-asking for workers is clamped at
// configuration time and the hot loop reads a plain field.
func TestSetHostWorkersClampsToHostCores(t *testing.T) {
	old := hostrt.GOMAXPROCS(2)
	defer hostrt.GOMAXPROCS(old)

	p := mergeProg(fannedFeatures)
	cfg := Config{Threads: 4, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6}
	m, err := NewMachine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	m.SetHostWorkers(1 << 16)
	if m.hostWorkers != 2 {
		t.Fatalf("hostWorkers = %d after asking for 1<<16 with GOMAXPROCS=2, want 2", m.hostWorkers)
	}
	m.SetHostWorkers(0)
	if m.hostWorkers != 1 {
		t.Fatalf("hostWorkers = %d after asking for 0, want 1", m.hostWorkers)
	}
	m.SetHostWorkers(2)
	if m.hostWorkers != 2 {
		t.Fatalf("hostWorkers = %d after asking for 2, want 2", m.hostWorkers)
	}

	// The clamped machine must still run batches correctly, on the
	// fanned path: one helper beside the caller.
	if err := m.RunBatch(randTuples(32, fannedFeatures, 1)); err != nil {
		t.Fatal(err)
	}
	if len(m.helperCh) != 1 {
		t.Fatalf("%d helpers after a batch of 32 × %d cycles (floor %d), want 1",
			len(m.helperCh), m.cycPerTuple, fanOutFloorCycles)
	}
}

// TestRunBatchBelowFloorRunsInline: a batch whose static modeled cost is
// under fanOutFloorCycles never forks, whatever the configured worker
// count — the fork/join costs more than the batch.
func TestRunBatchBelowFloorRunsInline(t *testing.T) {
	old := hostrt.GOMAXPROCS(2)
	defer hostrt.GOMAXPROCS(old)

	m, err := NewMachine(linearProgWithMerge(), Config{Threads: 4, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetHostWorkers(2)
	if 32*m.cycPerTuple >= fanOutFloorCycles {
		t.Fatalf("test program costs %d cycles a tuple; not below the floor", m.cycPerTuple)
	}
	if err := m.RunEpoch(randTuples(300, 4, 1), 32); err != nil {
		t.Fatal(err)
	}
	if len(m.helperCh) != 0 {
		t.Fatalf("below-floor machine spawned %d helpers", len(m.helperCh))
	}
}

// TestFannedSharedPadsMatchInline: a merge batch of a program whose pads
// lowering proved shareable, fanned over host workers, against the inline
// run of the same tuples — model bits and Stats equal. Under -race this is
// what shows no two workers ever write one pad or one accumulator: worker
// w owns pad w and the accumulators of threads w, w+W, ... At 6 workers
// the first fanned batch has to grow the slab past runDirect's dotLanes
// pads, carrying the model in pad 0 across.
func TestFannedSharedPadsMatchInline(t *testing.T) {
	old := hostrt.GOMAXPROCS(8)
	defer hostrt.GOMAXPROCS(old)
	p := glmProg(fannedFeatures, true)
	cfg := Config{Threads: 16, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6}
	tuples := randTuples(200, fannedFeatures, 3)
	run := func(workers int) *Machine {
		m, err := NewMachine(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !m.plan.sharePads || m.pads != dotLanes {
			t.Fatalf("sharePads=%v on %d pads; want the pads shared, %d of them", m.plan.sharePads, m.pads, dotLanes)
		}
		m.SetHostWorkers(workers)
		for e := 0; e < 2; e++ {
			// 96 tuples fan, the 8 left over run direct, on the same pads.
			if err := m.RunEpoch(tuples, 96); err != nil {
				t.Fatal(err)
			}
		}
		if len(m.helperCh) != workers-1 {
			t.Fatalf("workers=%d: %d helpers (96 × %d cycles vs floor %d)", workers, len(m.helperCh), m.cycPerTuple, fanOutFloorCycles)
		}
		m.Close()
		wantPads, wantAccs := dotLanes, 2 // the inline layout: a pad per lane, the merged vector and the spare
		if workers > 1 {
			wantPads, wantAccs = max(dotLanes, workers), cfg.Threads
		}
		if m.pads != wantPads || len(m.scratch) != wantPads*p.Slots || len(m.accs) != wantAccs*p.MergeSrc.Len {
			t.Errorf("workers=%d: %d pads in %d words, %d accumulator words; want %d pads, %d accumulators",
				workers, m.pads, len(m.scratch), len(m.accs), wantPads, wantAccs)
		}
		return m
	}
	inline := run(1)
	for _, w := range []int{2, 6} {
		if err := sameMachine("two epochs", "fanned", run(w), "inline", inline); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
	}
}
