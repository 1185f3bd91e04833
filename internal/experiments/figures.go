package experiments

import (
	"fmt"

	"dana/internal/cost"
	"dana/internal/datagen"
)

// --- Table 3 -----------------------------------------------------------

// Table3Row reports one workload's dataset inventory.
type Table3Row struct {
	Name          string
	Algorithm     string
	Topology      []int
	Tuples        int
	Pages32K      int
	SizeMB        float64
	PaperPages32K int
	PaperSizeMB   int
}

// Table3 regenerates the dataset inventory under our page layout.
func Table3(env Env) []Table3Row {
	rows := make([]Table3Row, 0, len(datagen.Workloads))
	for _, w := range datagen.Workloads {
		rows = append(rows, Table3Row{
			Name:          w.Name,
			Algorithm:     string(w.Kind),
			Topology:      w.Topology,
			Tuples:        w.Tuples,
			Pages32K:      w.PagesAt(env.PageSize),
			SizeMB:        w.SizeMBAt(env.PageSize),
			PaperPages32K: w.PaperPages32K,
			PaperSizeMB:   w.PaperSizeMB,
		})
	}
	return rows
}

// --- Table 5 -----------------------------------------------------------

// Table5Row reports modeled absolute runtimes (warm cache).
type Table5Row struct {
	Name                  string
	PGSec, GPSec, DAnASec float64
}

// Table5 regenerates the absolute-runtime table.
func Table5(env Env) ([]Table5Row, error) {
	var rows []Table5Row
	for _, w := range datagen.Workloads {
		st, err := Model(w, env, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			Name: w.Name, PGSec: st.PG.TotalSec, GPSec: st.GP.TotalSec, DAnASec: st.DAnA.TotalSec,
		})
	}
	return rows, nil
}

// --- Figures 8, 9, 10: end-to-end speedups ------------------------------

// SpeedupRow is one bar group of Figures 8–10.
type SpeedupRow struct {
	Name     string
	GPvsPG   float64 // MADlib+Greenplum speedup over MADlib+PostgreSQL
	DAnAvsPG float64
	DAnAvsGP float64
}

// ClassSpeedups models one workload class at the given cache setting.
func ClassSpeedups(class string, env Env, warm bool) ([]SpeedupRow, SpeedupRow, error) {
	var ws []datagen.Workload
	switch class {
	case "real":
		ws = datagen.Real()
	case "S/N":
		ws = datagen.SyntheticNominal()
	case "S/E":
		ws = datagen.SyntheticExtensive()
	default:
		return nil, SpeedupRow{}, fmt.Errorf("experiments: unknown class %q", class)
	}
	var rows []SpeedupRow
	var gp, dpg, dgp []float64
	for _, w := range ws {
		st, err := Model(w, env, warm)
		if err != nil {
			return nil, SpeedupRow{}, err
		}
		r := SpeedupRow{
			Name:     w.Name,
			GPvsPG:   st.PG.TotalSec / st.GP.TotalSec,
			DAnAvsPG: st.SpeedupDAnAOverPG(),
			DAnAvsGP: st.SpeedupDAnAOverGP(),
		}
		rows = append(rows, r)
		gp = append(gp, r.GPvsPG)
		dpg = append(dpg, r.DAnAvsPG)
		dgp = append(dgp, r.DAnAvsGP)
	}
	gm := SpeedupRow{Name: "Geomean", GPvsPG: Geomean(gp), DAnAvsPG: Geomean(dpg), DAnAvsGP: Geomean(dgp)}
	return rows, gm, nil
}

// --- Figure 11: Strider ablation ----------------------------------------

// StriderRow compares DAnA with and without Striders (warm cache,
// MADlib+PostgreSQL as baseline 1.0).
type StriderRow struct {
	Name           string
	WithoutStrider float64
	WithStrider    float64
}

// StriderBenefit models the Figure 11 ablation over all 14 workloads.
func StriderBenefit(env Env) ([]StriderRow, StriderRow, error) {
	var rows []StriderRow
	var wo, wi []float64
	for _, w := range datagen.Workloads {
		st, err := Model(w, env, true)
		if err != nil {
			return nil, StriderRow{}, err
		}
		r := StriderRow{
			Name:           w.Name,
			WithoutStrider: st.PG.TotalSec / st.DAnANoStrider.TotalSec,
			WithStrider:    st.SpeedupDAnAOverPG(),
		}
		rows = append(rows, r)
		wo = append(wo, r.WithoutStrider)
		wi = append(wi, r.WithStrider)
	}
	gm := StriderRow{Name: "Geomean", WithoutStrider: Geomean(wo), WithStrider: Geomean(wi)}
	return rows, gm, nil
}

// --- Figure 12: merge-coefficient (thread) sweep -------------------------

// ThreadPoint is one point of the Figure 12 sweep.
type ThreadPoint struct {
	Coef        int
	Threads     int
	Utilization float64 // fraction of available compute units in use
	RelRuntime  float64 // accelerator runtime relative to coef=1
}

// Fig12Workloads lists the four workloads the paper sweeps.
var Fig12Workloads = []string{"Remote Sensing LR", "Remote Sensing SVM", "Netflix", "Patient"}

// ThreadSweep models accelerator runtime (access + execution engine)
// for increasing merge coefficients.
func ThreadSweep(name string, env Env, coefs []int) ([]ThreadPoint, error) {
	w, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	var pts []ThreadPoint
	var base float64
	for _, coef := range coefs {
		c, err := CompileWorkload(w, env, coef)
		if err != nil {
			return nil, err
		}
		cw := c.CostWorkload(env)
		t := cost.DAnAPipelineSec(cw, env.Cost)
		if base == 0 {
			base = t
		}
		pts = append(pts, ThreadPoint{
			Coef:        coef,
			Threads:     c.Design.Engine.Threads,
			Utilization: c.Design.Utilization,
			RelRuntime:  t / base,
		})
	}
	return pts, nil
}

// --- Figure 13: Greenplum segment sweep ----------------------------------

// SegmentRow is one workload's sweep, normalized to 8 segments.
type SegmentRow struct {
	Name string
	// Relative runtime speedup vs the 8-segment configuration, for
	// PostgreSQL (1 segment), 4, 8, and 16 segments.
	PG, Seg4, Seg8, Seg16 float64
}

// SegmentSweep models Figure 13 over the public datasets.
func SegmentSweep(env Env) ([]SegmentRow, SegmentRow, error) {
	var rows []SegmentRow
	var g1, g4, g16 []float64
	for _, w := range datagen.Real() {
		c, err := CompileWorkload(w, env, 0)
		if err != nil {
			return nil, SegmentRow{}, err
		}
		cw := c.CostWorkload(env)
		t := func(segments int) float64 {
			if segments <= 1 {
				return cost.MADlibPostgres(cw, env.Cost, true).TotalSec
			}
			return cost.MADlibGreenplum(cw, env.Cost, segments, true).TotalSec
		}
		ref := t(8)
		r := SegmentRow{Name: w.Name, PG: ref / t(1), Seg4: ref / t(4), Seg8: 1, Seg16: ref / t(16)}
		rows = append(rows, r)
		g1 = append(g1, r.PG)
		g4 = append(g4, r.Seg4)
		g16 = append(g16, r.Seg16)
	}
	gm := SegmentRow{Name: "Geomean", PG: Geomean(g1), Seg4: Geomean(g4), Seg8: 1, Seg16: Geomean(g16)}
	return rows, gm, nil
}

// --- Figure 14: bandwidth sweep -------------------------------------------

// BandwidthRow is one workload's FPGA-time speedup at each bandwidth
// multiplier, relative to the baseline bandwidth.
type BandwidthRow struct {
	Name     string
	Speedups map[float64]float64
}

// BandwidthScales are the paper's sweep points.
var BandwidthScales = []float64{0.25, 0.5, 1, 2, 4}

// BandwidthSweep models Figure 14 over all workloads.
func BandwidthSweep(env Env) ([]BandwidthRow, error) {
	var rows []BandwidthRow
	for _, w := range datagen.Workloads {
		c, err := CompileWorkload(w, env, 0)
		if err != nil {
			return nil, err
		}
		cw := c.CostWorkload(env)
		base := cost.DAnAPipelineSec(cw, env.Cost)
		r := BandwidthRow{Name: w.Name, Speedups: map[float64]float64{}}
		for _, sc := range BandwidthScales {
			p := env.Cost
			p.BandwidthScale = sc
			r.Speedups[sc] = base / cost.DAnAPipelineSec(cw, p)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// --- Figure 15: external libraries ----------------------------------------

// ExtLibRow compares one workload across MADlib, the external
// libraries, and DAnA.
type ExtLibRow struct {
	Name string
	Algo string

	// End-to-end seconds.
	PGSec, GPSec, DAnASec       float64
	LiblinearSec, DimmWittedSec float64 // NaN where unsupported

	// Compute-only seconds.
	PGComputeSec, LiblinearComputeSec, DimmWittedComputeSec, DAnAComputeSec float64

	// Phase breakdowns (Figure 15a), as fractions of the library total.
	LiblinearBreakdown, DimmWittedBreakdown cost.Breakdown
}

// Fig15Workloads lists the workloads §7.3 compares.
var Fig15Workloads = []string{
	"Remote Sensing LR", "WLAN", "S/N Logistic", // logistic
	"Remote Sensing SVM", "S/N SVM", // svm
	"Patient", "Blog Feedback", "S/N Linear", // linear
}

// ExternalLibraries models Figure 15. As in §7.3, every system runs
// exactly one epoch with identical hyper-parameters ("we maintain the
// same hyper-parameters ... to compare runtime of 1 epoch across all
// the systems"), which is what makes the export phase dominate the
// library pipelines (Figure 15a).
func ExternalLibraries(env Env) ([]ExtLibRow, error) {
	var rows []ExtLibRow
	for _, name := range Fig15Workloads {
		w, err := datagen.ByName(name)
		if err != nil {
			return nil, err
		}
		c, err := CompileWorkload(w, env, 0)
		if err != nil {
			return nil, err
		}
		cw := c.CostWorkload(env)
		cw.Epochs = 1
		cw.DAnAEpochs = 0
		pg := cost.MADlibPostgres(cw, env.Cost, true)
		gp := cost.MADlibGreenplum(cw, env.Cost, env.Segments, true)
		dana := cost.DAnA(cw, env.Cost, true)
		lib := cost.ExternalLibrary(cost.Liblinear, string(w.Kind), cw, env.Cost)
		dw := cost.ExternalLibrary(cost.DimmWitted, string(w.Kind), cw, env.Cost)
		rows = append(rows, ExtLibRow{
			Name: w.Name, Algo: string(w.Kind),
			PGSec: pg.TotalSec, GPSec: gp.TotalSec, DAnASec: dana.TotalSec,
			LiblinearSec: lib.TotalSec, DimmWittedSec: dw.TotalSec,
			PGComputeSec:         pg.ComputeSec,
			LiblinearComputeSec:  lib.ComputeSec,
			DimmWittedComputeSec: dw.ComputeSec,
			DAnAComputeSec:       cost.DAnAPipelineSec(cw, env.Cost),
			LiblinearBreakdown:   lib,
			DimmWittedBreakdown:  dw,
		})
	}
	return rows, nil
}

// --- Figure 16: TABLA comparison -------------------------------------------

// TablaRow compares DAnA's compute time against the TABLA baseline.
type TablaRow struct {
	Name    string
	Speedup float64 // TABLA time / DAnA time (compute)
}

// Fig16Workloads are the paper's 10 (real + S/N) workloads.
func Fig16Workloads() []datagen.Workload {
	return append(append([]datagen.Workload{}, datagen.Real()...), datagen.SyntheticNominal()...)
}

// tablaPipelineOverlap models TABLA's dataflow pipelining across
// consecutive tuples: although single-threaded, its statically scheduled
// datapath overlaps ~4 tuple computations in flight, which our
// sequential single-thread estimate does not capture.
const tablaPipelineOverlap = 4.0

// TablaComparison models Figure 16: the ratio of execution-engine
// compute time (TABLA's best single-threaded pipelined design vs DAnA's
// multi-threaded one), the "DAnA Compute" comparison of §7.3.
func TablaComparison(env Env) ([]TablaRow, TablaRow, error) {
	var rows []TablaRow
	var sp []float64
	for _, w := range Fig16Workloads() {
		c, err := CompileWorkload(w, env, 0)
		if err != nil {
			return nil, TablaRow{}, err
		}
		cw := c.CostWorkload(env)
		tabla := float64(cw.SingleThreadEpochCycles) / tablaPipelineOverlap
		r := TablaRow{Name: w.Name, Speedup: tabla / float64(cw.EpochCycles)}
		rows = append(rows, r)
		sp = append(sp, r.Speedup)
	}
	return rows, TablaRow{Name: "Geomean", Speedup: Geomean(sp)}, nil
}

// --- formatting helpers -----------------------------------------------------

// FormatSeconds renders a duration the way Table 5 does.
func FormatSeconds(sec float64) string {
	switch {
	case sec < 60:
		return fmt.Sprintf("%.2fs", sec)
	case sec < 3600:
		m := int(sec) / 60
		return fmt.Sprintf("%dm %ds", m, int(sec)%60)
	default:
		h := int(sec) / 3600
		m := (int(sec) % 3600) / 60
		return fmt.Sprintf("%dh %dm", h, m)
	}
}
