package cost

import (
	"math"
	"testing"
)

func sampleWorkload() Workload {
	return Workload{
		Tuples:                  581102,
		Columns:                 55,
		Epochs:                  3,
		DatasetBytes:            154 << 20,
		PageSize:                32 << 10,
		Pages:                   4924,
		FlopsPerTuple:           224,
		ModelParams:             54,
		EpochCycles:             5e6,
		SingleThreadEpochCycles: 6e7,
		StriderPageCycles:       4500,
		Striders:                32,
	}
}

func TestPGWarmVsCold(t *testing.T) {
	w := sampleWorkload()
	p := Default()
	warm := MADlibPostgres(w, p, true)
	cold := MADlibPostgres(w, p, false)
	if warm.IOSec != 0 {
		t.Errorf("warm IO = %v for a dataset smaller than the pool", warm.IOSec)
	}
	if cold.IOSec <= 0 {
		t.Error("cold run should pay I/O")
	}
	if cold.TotalSec <= warm.TotalSec {
		t.Error("cold must be slower than warm")
	}
}

func TestPGOutOfMemoryDatasetPaysIOEveryEpoch(t *testing.T) {
	w := sampleWorkload()
	w.DatasetBytes = 32 << 30 // 32 GB > 8 GB pool
	w.Pages = 1 << 20         // of 32 KB pages
	w.Epochs = 10
	p := Default()
	warm := MADlibPostgres(w, p, true)
	// The 24 GB the pool does not hold in the first epoch, then all 32 GB
	// every later epoch: a sequential scan floods the pool.
	reads := (1<<20 - 8<<30/(32<<10)) + 9*(1<<20)
	if want := float64(reads) * p.Disk.ReadTime(32<<10); warm.IOSec != want {
		t.Errorf("IO = %v, want %v (%d page reads)", warm.IOSec, want, reads)
	}
}

func TestDiskModelReadTime(t *testing.T) {
	d := DiskModel{SeqReadBytesPerSec: 100e6, ReadLatencySec: 1e-3}
	got := d.ReadTime(100e6 / 2)
	if got <= 0.5 || got > 0.502 {
		t.Errorf("ReadTime = %v", got)
	}
}

func TestGreenplumPeaksAtEight(t *testing.T) {
	p := Default()
	p4 := greenplumParallelism(p, 4)
	p8 := greenplumParallelism(p, 8)
	p16 := greenplumParallelism(p, 16)
	if !(p8 > p4 && p8 > p16) {
		t.Errorf("parallelism 4/8/16 = %v/%v/%v, want a peak at 8", p4, p8, p16)
	}
	if greenplumParallelism(p, 1) != 1 {
		t.Error("1 segment must be 1x")
	}
	// Figure 13 magnitude: ~2.1x at 8 segments.
	if p8 < 1.7 || p8 > 2.6 {
		t.Errorf("8-segment parallelism = %v, want ~2.1", p8)
	}
}

func TestDAnAFasterThanPG(t *testing.T) {
	w := sampleWorkload()
	p := Default()
	pg := MADlibPostgres(w, p, true)
	dana := DAnA(w, p, true)
	if dana.TotalSec >= pg.TotalSec {
		t.Errorf("DAnA %v >= PG %v", dana.TotalSec, pg.TotalSec)
	}
}

func TestStriderAblationOrdering(t *testing.T) {
	w := sampleWorkload()
	p := Default()
	with := DAnA(w, p, true)
	without := DAnANoStrider(w, p, true)
	if with.TotalSec >= without.TotalSec {
		t.Errorf("with striders %v >= without %v", with.TotalSec, without.TotalSec)
	}
	tabla := TABLA(w, p, true)
	if tabla.TotalSec < without.TotalSec {
		t.Error("TABLA (single-threaded) should not beat multi-threaded no-strider DAnA")
	}
}

func TestBandwidthScalingMonotone(t *testing.T) {
	w := sampleWorkload()
	w.DatasetBytes = 4 << 30 // transfer-bound
	p := Default()
	prev := math.Inf(1)
	for _, sc := range []float64{0.25, 0.5, 1, 2, 4} {
		pp := p
		pp.BandwidthScale = sc
		cur := DAnAPipelineSec(w, pp)
		if cur > prev {
			t.Errorf("pipeline time increased at scale %v", sc)
		}
		prev = cur
	}
	// The zero scale is the unscaled link, on every side that prices it.
	unset := p
	unset.BandwidthScale = 0
	if got, want := DAnAPipelineSec(w, unset), DAnAPipelineSec(w, p); got != want {
		t.Errorf("BandwidthScale 0 prices %v, scale 1 %v", got, want)
	}
}

// TestBandwidthDoesNotHelpComputeBound asserts the channel-model
// invariants on a compute-bound workload: neither the Figure-14 scale
// nor the channel count moves the pipeline time once the engine is the
// bottleneck; aggregate bandwidth is channels × per-channel; and the
// degenerate 1-channel configuration is bit-identical to the legacy
// scalar BandwidthScale numbers.
func TestBandwidthDoesNotHelpComputeBound(t *testing.T) {
	w := sampleWorkload()
	w.EpochCycles = 1e12 // dominate everything
	p := Default()
	base := DAnAPipelineSec(w, p)
	p.BandwidthScale = 4
	if DAnAPipelineSec(w, p) != base {
		t.Error("compute-bound workload should ignore bandwidth")
	}
	for _, ch := range []int{1, 4, 8, 32} {
		pc := p
		pc.Link.Channels = ch
		if got := DAnAPipelineSec(w, pc); got != base {
			t.Errorf("compute-bound pipeline moved with %d channels: %v != %v", ch, got, base)
		}
		// Aggregate bandwidth = channels × per-channel, exactly.
		if got, want := AggregateBandwidth(pc), float64(ch)*ChannelBandwidth(pc); got != want {
			t.Errorf("aggregate bandwidth %v != %d × per-channel %v", got, ch, want/float64(ch))
		}
	}
	// Degenerate 1-channel config: every DAnA-path transfer charge must
	// reproduce the legacy scalar formula bit-for-bit, for any scale.
	for _, sc := range []float64{0.25, 0.5, 1, 2, 4} {
		pp := Default()
		pp.BandwidthScale = sc
		legacy := float64(w.Epochs) * float64(w.DatasetBytes) / (pp.PCIeBytesPerSec * pp.BandwidthScale)
		if got := danaTransferSec(w, pp); got != legacy {
			t.Errorf("scale %v: 1-channel transfer %v != legacy %v (not bit-identical)", sc, got, legacy)
		}
		pp.Link = ChannelModel{Channels: 1}
		if got := danaTransferSec(w, pp); got != legacy {
			t.Errorf("scale %v: explicit 1-channel transfer %v != legacy %v", sc, got, legacy)
		}
	}
}

func TestDAnAEpochOverride(t *testing.T) {
	w := sampleWorkload()
	p := Default()
	base := DAnA(w, p, true).TotalSec
	w.DAnAEpochs = 1
	fast := DAnA(w, p, true).TotalSec
	if fast >= base {
		t.Errorf("epoch override did not reduce time: %v >= %v", fast, base)
	}
	// But PG ignores the override.
	if MADlibPostgres(w, p, true).TotalSec != MADlibPostgres(sampleWorkload(), p, true).TotalSec {
		t.Error("PG must not see the DAnA epoch override")
	}
}

func TestExternalLibraryPhases(t *testing.T) {
	w := sampleWorkload()
	p := Default()
	lb := ExternalLibrary(Liblinear, "logistic", w, p)
	if lb.ExportSec <= 0 || lb.TransformSec <= 0 || lb.ComputeSec <= 0 {
		t.Errorf("breakdown = %+v", lb)
	}
	// Export dominates transform (Figure 15a).
	if lb.ExportSec < 10*lb.TransformSec {
		t.Errorf("export %v should dwarf transform %v", lb.ExportSec, lb.TransformSec)
	}
	// Liblinear has no linear regression.
	lin := ExternalLibrary(Liblinear, "linear", w, p)
	if !math.IsNaN(lin.ComputeSec) {
		t.Error("Liblinear linear regression should be NaN")
	}
	if !math.IsNaN(ExternalLibrary(Liblinear, "linear", w, p).TotalSec) {
		t.Error("NaN compute should propagate to total")
	}
}

func TestSVMLibrariesSlowerThanMADlib(t *testing.T) {
	w := sampleWorkload()
	w.FlopsPerTuple = 6 * 54
	p := Default()
	pg := MADlibPostgres(w, p, true)
	lb := ExternalLibrary(Liblinear, "svm", w, p)
	dw := ExternalLibrary(DimmWitted, "svm", w, p)
	// §7.3: for SVM the external solvers lose to in-database IGD even on
	// compute time once the penalty applies at this scale.
	if lb.TotalSec < pg.TotalSec || dw.TotalSec < pg.TotalSec {
		t.Errorf("SVM libs should lose end-to-end: pg=%v lib=%v dw=%v", pg.TotalSec, lb.TotalSec, dw.TotalSec)
	}
}

func TestDiskBreakEven(t *testing.T) {
	// Crossover check: as the dataset grows past the pool, cold and warm
	// converge (everything is I/O).
	p := Default()
	w := sampleWorkload()
	w.DatasetBytes = 100 << 30
	w.Epochs = 5
	warm := MADlibPostgres(w, p, true)
	cold := MADlibPostgres(w, p, false)
	if (cold.TotalSec-warm.TotalSec)/cold.TotalSec > 0.05 {
		t.Errorf("out-of-memory warm %v vs cold %v should nearly match", warm.TotalSec, cold.TotalSec)
	}
}
