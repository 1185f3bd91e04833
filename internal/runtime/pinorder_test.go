package runtime

// Host parallelism may change wall-clock time only. These two tests hold
// the extraction pipeline to that where it used to leak: the order pages
// are pinned in (the pool's float I/O ledger sums in that order, and
// clock-sweep victims depend on it), and which Strider walks which page
// (a persistent trap follows the (Strider, page) pair). Both sweep
// GOMAXPROCS, which is where the executor takes its walker count from.

import (
	"errors"
	"fmt"
	"math"
	hostrt "runtime"
	"testing"

	"dana/internal/backend"
	"dana/internal/bufpool"
	"dana/internal/datagen"
	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/storage"
)

// TestPoolLedgerIgnoresHostParallelism: under latency spikes and transient
// read faults, with a second relation filling the pool so that every pin
// of the training table evicts, a cold Train reads back the same
// SimulatedSeconds, pool Stats (hits, misses, evictions, retries and the
// I/O and backoff sums), access and engine stats and model bits at
// GOMAXPROCS 1, 2, 4 and 8, run after run.
func TestPoolLedgerIgnoresHostParallelism(t *testing.T) {
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(0))
	gen := func(name string, scale float64) *datagen.Dataset {
		w, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := datagen.Generate(w, scale, storage.PageSize8K, 42)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d, filler := gen(ftWorkload, ftScale), gen("Remote Sensing SVM", 2*ftScale)
	inj := fault.New(fault.Config{
		Seed:              41,
		Rates:             [fault.NumPoints]float64{fault.PoolLatency: 0.3, fault.PoolRead: 0.1},
		TransientAttempts: 1,
		LatencySpikeSec:   3e-3,
	})
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.Cost.PoolBytes = int64(d.Rel.NumPages()) * storage.PageSize8K // the table fits, with no frame to spare
	opts.Faults = inj
	s := New(opts)
	for _, ds := range []*datagen.Dataset{d, filler} {
		if err := s.Deploy(ds); err != nil {
			t.Fatal(err)
		}
	}
	if filler.Rel.NumPages() < s.Pool().NumFrames() {
		t.Fatalf("the filler's %d pages cannot fill %d frames", filler.Rel.NumPages(), s.Pool().NumFrames())
	}
	a, err := d.DSLAlgo(ftMergeCoef)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(1)
	if _, err := s.Register(a, ftMergeCoef, d.Tuples); err != nil {
		t.Fatal(err)
	}
	var want *TrainResult
	for _, procs := range []int{1, 2, 4, 8} {
		hostrt.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			name := fmt.Sprintf("GOMAXPROCS=%d run %d", procs, rep+1)
			inj.Reset()
			if err := s.DropCaches(); err != nil {
				t.Fatal(err)
			}
			if err := s.Pool().Warm(filler.Rel.Name); err != nil {
				t.Fatal(err)
			}
			res, err := s.Train(a.Name, d.Rel.Name)
			if err != nil {
				t.Fatal(err)
			}
			if s.Pool().PinnedCount() != 0 {
				t.Fatalf("%s: leaked page pins", name)
			}
			if want == nil {
				if res.Pool.Evictions != int64(d.Rel.NumPages()) || res.Pool.Retries == 0 || inj.Count(fault.PoolLatency) == 0 {
					t.Fatalf("%s: the schedule does not exercise the ledger: %+v, %d spikes", name, res.Pool, inj.Count(fault.PoolLatency))
				}
				want = res
				continue
			}
			requireSameModeled(t, name, res, want, want)
			if math.Float64bits(res.SimulatedSeconds) != math.Float64bits(want.SimulatedSeconds) {
				t.Errorf("%s: simulated seconds %#x != %#x", name, math.Float64bits(res.SimulatedSeconds), math.Float64bits(want.SimulatedSeconds))
			}
			if res.Pool != want.Pool {
				t.Errorf("%s: pool stats %+v != %+v", name, res.Pool, want.Pool)
			}
		}
	}
}

// TestTrapOutcomesIgnoreHostParallelism: slot j of a pinned group runs on
// Strider healthy[j mod h] whichever goroutine walks it, so under a
// persistent trap the same Striders are quarantined after the same page
// and epoch retries, and the same bits, modeled stats and pool traffic
// come out, at every GOMAXPROCS.
func TestTrapOutcomesIgnoreHostParallelism(t *testing.T) {
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(0))
	type outcome struct {
		quarantines, pageRetries, epochRetries int64
		degraded                               bool
	}
	var want outcome
	var wantRes *TrainResult
	for _, procs := range []int{1, 2, 4, 8} {
		hostrt.GOMAXPROCS(procs)
		s, udf, table := ftSystem(t, func(o *Options) {
			o.Faults = fault.New(fault.Config{
				Seed:              persistentTrapSeed,
				Rates:             rate(fault.StriderTrap, persistentTrapRate),
				TransientAttempts: -1,
			})
		})
		res, err := s.Train(udf, table)
		if err != nil {
			t.Fatal(err)
		}
		if s.Pool().PinnedCount() != 0 {
			t.Fatalf("GOMAXPROCS=%d: leaked page pins", procs)
		}
		got := outcome{
			quarantines:  obsCount(t, s, obs.RuntimeQuarantines),
			pageRetries:  obsCount(t, s, obs.RuntimePageRetries),
			epochRetries: obsCount(t, s, obs.RuntimeEpochRetries),
			degraded:     res.Degraded,
		}
		if wantRes == nil {
			if got.quarantines == 0 || got.degraded {
				t.Fatalf("GOMAXPROCS=1: %+v; the schedule must quarantine without degrading", got)
			}
			want, wantRes = got, res
			continue
		}
		if got != want {
			t.Errorf("GOMAXPROCS=%d: %+v, GOMAXPROCS=1 read %+v", procs, got, want)
		}
		// A failed slot ends the epoch with nothing after its group
		// pinned, so the failed epochs' pool traffic matches too.
		requireSameModeled(t, fmt.Sprintf("GOMAXPROCS=%d", procs), res, wantRes, wantRes)
		if res.Pool != wantRes.Pool {
			t.Errorf("GOMAXPROCS=%d: pool stats %+v != %+v", procs, res.Pool, wantRes.Pool)
		}
	}
}

// TestTrapOutcomesIgnorePinGroup (white box): page pn runs on Strider
// healthy[pn mod Striders mod h] whatever the pin group, so under a
// persistent trap a spilling run quarantines the same Striders after the
// same page and epoch retries, and trains the same bits from the same
// modeled stats, at 16 frames (a group of 15) as at 17 (a group of 16).
func TestTrapOutcomesIgnorePinGroup(t *testing.T) {
	type outcome struct {
		healthy                                string
		quarantines, pageRetries, epochRetries int64
	}
	var want outcome
	var wantRes *TrainResult
	for _, frames := range []int{17, 16} {
		s, udfName, table := ftSystem(t, func(o *Options) {
			o.Cost.PoolBytes = int64(frames) * storage.PageSize8K
			o.Faults = fault.New(fault.Config{
				Seed:              persistentTrapSeed,
				Rates:             rate(fault.StriderTrap, persistentTrapRate),
				TransientAttempts: -1,
			})
		})
		udf, rel, acc, job, err := s.resolve(udfName, table, 0)
		if err != nil {
			t.Fatal(err)
		}
		reg, job, err := s.disp.Resolve(s.Opts.Backend, job)
		if err != nil {
			t.Fatal(err)
		}
		be := s.disp.Build(reg)
		defer be.(backend.Closer).Close()
		prog := s.programFor(udf, rel, acc, job.Bits)
		if err := be.Configure(prog); err != nil {
			t.Fatal(err)
		}
		feed, err := s.newEpochFeed(rel, be, prog.Striders)
		if err != nil {
			t.Fatal(err)
		}
		if feed.fits || feed.group != frames-1 {
			t.Fatalf("%d frames: fits=%v, a pin group of %d for %d pages", frames, feed.fits, feed.group, rel.NumPages())
		}
		res := &TrainResult{}
		if err := trainLoop(res, be, ftEpochs, feed.runEpochRecover); err != nil {
			t.Fatalf("%d frames: %v", frames, err)
		}
		res.Model, res.Engine, res.Access = model32(be), be.(backend.CounterBackend).Counters(), feed.ae.Stats()
		if s.Pool().PinnedCount() != 0 {
			t.Fatalf("%d frames: leaked page pins", frames)
		}
		got := outcome{
			healthy:      fmt.Sprint(feed.healthy),
			quarantines:  obsCount(t, s, obs.RuntimeQuarantines),
			pageRetries:  obsCount(t, s, obs.RuntimePageRetries),
			epochRetries: obsCount(t, s, obs.RuntimeEpochRetries),
		}
		if wantRes == nil {
			if got.quarantines == 0 {
				t.Fatalf("%d frames: %+v; the schedule must quarantine", frames, got)
			}
			want, wantRes = got, res
			continue
		}
		if got != want {
			t.Errorf("%d frames: %+v, 17 frames read %+v", frames, got, want)
		}
		requireSameModeled(t, fmt.Sprintf("%d frames", frames), res, wantRes, nil)
	}
}

// TestPinFailureIgnoresHostParallelism: with W > 1 walker 0 pins each
// group while the coordinator sinks the one before, so a page whose read
// never succeeds is found off the coordinator. The run must still end
// where one goroutine's would: the same error, the same pool traffic,
// no pin left behind, at every GOMAXPROCS. The failing page sits past
// the first groups, so groups before it are pinned, walked and sunk.
func TestPinFailureIgnoresHostParallelism(t *testing.T) {
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(0))
	var wantErr string
	var wantPool bufpool.Stats
	for _, procs := range []int{1, 2, 4, 8} {
		hostrt.GOMAXPROCS(procs)
		s, udf, table := ftSystem(t, func(o *Options) {
			o.Faults = fault.New(fault.Config{
				Seed:              pinFailureSeed,
				Rates:             rate(fault.PoolRead, 0.01),
				TransientAttempts: -1,
			})
		})
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		s.Pool().ResetStats()
		_, err := s.Train(udf, table)
		if !errors.Is(err, fault.ErrIOTransient) {
			t.Fatalf("GOMAXPROCS=%d: got %v, want ErrIOTransient", procs, err)
		}
		if s.Pool().PinnedCount() != 0 {
			t.Fatalf("GOMAXPROCS=%d: failed run leaked page pins", procs)
		}
		got := s.Pool().Stats()
		if wantErr == "" {
			if got.Misses < 16 {
				t.Fatalf("the failing page is among the first %d read: pick another seed", got.Misses)
			}
			wantErr, wantPool = err.Error(), got
			continue
		}
		if err.Error() != wantErr || got != wantPool {
			t.Errorf("GOMAXPROCS=%d: %v, pool %+v; GOMAXPROCS=1: %v, pool %+v", procs, err, got, wantErr, wantPool)
		}
	}
}

// pinFailureSeed puts the first page whose read never succeeds past the
// first groups of ftSystem's table.
const pinFailureSeed = 3
