package runtime

// Characterisation of the Backend seam's modeled outputs, recorded at
// the commit before modeled time moved behind Backend.ModeledSeconds:
// the exact SimulatedSeconds bits, epoch count, model hash, and the
// engine and access counters of one fixed-seed Patient train on every
// registration. A refactor that moves the timing formula, the weave
// stage, or the epoch loop must reproduce every row bit for bit — and a
// pool the table does not fit (three serial walks instead of one
// extracting epoch and two replays) must reproduce everything but the
// simulated seconds, which then carry three epochs of disk reads. Every
// row trains a second time on the same System, on the backend the first
// Train left configured: everything but the simulated seconds, which no
// longer carry the first Train's disk reads, must equal the row again.
// The tabla, cpu and sharded seconds were re-pinned when a cold row-fed
// Train, whose seconds are its estimate, began charging its disk reads.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"dana/internal/backend"
	"dana/internal/obs"
)

func TestSeamCharacterisation(t *testing.T) {
	type key struct {
		backend string
		bits    int
	}
	want := map[key]string{
		{"accelerator", 0}: "3fc749d7a9388cd5 e3 mcdd92142ebaea09b {111756 99114 77184 157290 3210 402 13644 19698 14874 0} {642 3210 4943400 25680 42210 645210}",
		{"weave", 8}:       "3fc9f68915b54062 e3 mf2a6ac9bff9b35c2 {111756 99114 77184 157290 3210 402 13644 19698 14874 0} {642 3210 4943400 25680 42210 645210}",
		{"weave", 32}:      "3fd0c4a7c0b4f7ab e3 m1f6346986d5eccba {111756 99114 77184 157290 3210 402 13644 19698 14874 0} {642 3210 4943400 25680 42210 645210}",
		{"tabla", 0}:       "3fc90f1169ce9492 e3 mcdd92142ebaea09b {284124 107538 19296 157290 3210 402 13644 157290 107538 0} {0 0 0 0 0 0}",
		{"cpu", 0}:         "3fadda260e6f413e e3 m76cdcb58ed3e8c5d {0 0 0 0 0 0 0 0 0 0} {0 0 0 0 0 0}",
		{"sharded", 0}:     "3fb5c777e991b904 e3 m132429b6be890633 {0 0 0 0 0 0 0 0 0 0} {0 0 0 0 0 0}",
	}
	for _, tc := range []struct {
		backend   string
		bits      int
		streaming bool
	}{
		{backend.NameAccelerator, 0, true},
		{backend.NameWeave, 8, true},
		{backend.NameWeave, 32, true},
		{backend.NameTabla, 0, false},
		{backend.NameCPU, 0, false},
		{backend.NameSharded, 0, false},
	} {
		for _, spill := range []bool{false, true} {
			if spill && !tc.streaming {
				continue // row-fed backends never touch the pool
			}
			k := key{tc.backend, tc.bits}
			opts := precisionOpts(tc.bits)
			opts.Backend = tc.backend
			if spill {
				opts.Cost.PoolBytes = spillPoolBytes
			}
			opts.MaxEpochs = 3 // one extracting epoch, two replays (or three walks)
			if tc.bits == 32 {
				// Full-width weave is reached by the explicit override alone.
				opts.Precision = 0
			}
			s, first, _ := trainPatientWith(t, opts)
			again, err := s.Train(first.UDF, first.Table)
			if err != nil {
				t.Fatal(err)
			}
			if built, reused := s.Obs().Get(obs.RuntimeBackendsBuilt), s.Obs().Get(obs.RuntimeBackendsReused); built != 1 || reused != 1 {
				t.Errorf("%+v (spill=%v): %d backends built and %d reused over two Trains, want 1 and 1", k, spill, built, reused)
			}
			for i, res := range []*TrainResult{first, again} {
				if res.Backend != tc.backend {
					t.Errorf("%+v: trained on %q", k, res.Backend)
				}
				h := fnv.New64a()
				for _, v := range res.Model {
					binary.Write(h, binary.LittleEndian, math.Float32bits(v))
				}
				got := fmt.Sprintf("%016x e%d m%016x %v %v", math.Float64bits(res.SimulatedSeconds),
					res.Epochs, h.Sum64(), res.Engine, res.Access)
				row := want[k]
				if spill && res.Pool.Evictions == 0 {
					t.Errorf("%+v: the spill leg's table fit its pool", k)
				}
				if spill || i == 1 {
					got, row = got[16:], row[16:] // everything after the simulated-seconds bits
				}
				if got != row {
					t.Errorf("modeled outputs drifted for %+v (spill=%v, Train %d):\n got %s\nwant %s", k, spill, i+1, got, row)
				}
			}
		}
	}
}
