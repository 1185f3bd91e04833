// Command danabench regenerates the paper's evaluation tables and
// figures from the reproduction's models and simulators.
//
//	danabench -exp all          # everything
//	danabench -exp table5       # one experiment
//	danabench -exp fig12 -v     # with extra detail
//
// Experiments: table3 table4 table5 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 fig16, plus pagesweep (8/16/32 KB sensitivity), batch
// (batch-size vs epochs-to-converge, functional), ablation (design
// ablations), scorecard (headline paper-vs-measured summary), tenants
// (multi-tenant server: sequence-aware vs always-reconfigure), and
// precision (MLWeaving any-precision weave path: modeled transfer vs
// epochs-to-converge at 1..32 bits).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dana/internal/experiments"
	"dana/internal/hwgen"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table3, table4, table5, fig8..fig16)")
	bench := flag.String("bench", "", "benchmark regexp: run `go test -bench` instead of experiments and export BENCH_<name>.json")
	count := flag.Int("count", 5, "bench mode: repetitions per benchmark (median is exported)")
	pkgs := flag.String("benchpkgs", "./...", "bench mode: packages passed to go test")
	name := flag.String("name", "local", "bench mode: label; output file is BENCH_<name>.json")
	outDir := flag.String("outdir", ".", "bench mode: directory for BENCH_<name>.json")
	baseline := flag.String("baseline", "", "bench mode: baseline BENCH_*.json to gate modeled counters and allocs/op against")
	maxReg := flag.Float64("maxreg", 0.15, "bench mode: max tolerated allocs/op growth vs baseline")
	flag.Parse()
	if *bench != "" {
		if err := runBenchMode(*bench, *count, *pkgs, *name, *outDir, *baseline, *maxReg); err != nil {
			fail(err)
		}
		return
	}
	if err := runExperiments(os.Stdout, os.Stderr, *exp); err != nil {
		fail(err)
	}
}

// runExperiments writes experiment exp to w, or every experiment in name
// order for "all" — each one run even when another fails, so one broken
// scenario does not hide the state of the rest, its error reported on
// errw and the run failed at the end.
func runExperiments(w, errw io.Writer, exp string) error {
	env := experiments.DefaultEnv()
	runners := map[string]func(experiments.Env, io.Writer) error{
		"table3": table3, "table4": table4, "table5": table5,
		"fig8": figSpeedups("fig8", "real"), "fig9": figSpeedups("fig9", "S/N"),
		"fig10": figSpeedups("fig10", "S/E"),
		"fig11": fig11, "fig12": fig12, "fig13": fig13,
		"fig14": fig14, "fig15": fig15, "fig16": fig16,
		"pagesweep": pageSweep, "batch": batchConv, "ablation": ablations,
		"scorecard": scorecard, "schedule": schedule, "custom": custom,
		"channels": channelSweep, "tenants": tenants,
		"precision": precisionSweep,
	}
	if exp != "all" {
		r, ok := runners[exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", exp)
		}
		return r(env, w)
	}
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	var failed []string
	for _, n := range names {
		if err := runners[n](env, w); err != nil {
			fmt.Fprintf(errw, "danabench: %s: %v\n", n, err)
			failed = append(failed, n)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d experiment(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

func custom(env experiments.Env, w io.Writer) error {
	header(w, "Comparison with hand-coded FPGA designs (§7.3)")
	rows, err := experiments.CustomDesignComparison(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-34s %-20s %12s %10s %11s\n", "Custom design", "Workload", "DAnA/custom", "DAnA GOPS", "Custom GOPS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %-20s %11.2fx %10.2f %11.2f\n", r.Design, r.Workload, r.SpeedRatio, r.DAnAGOPS, r.CustomGOPS)
	}
	return nil
}

func schedule(env experiments.Env, w io.Writer) error {
	header(w, "List-scheduler throughput analysis (per-tuple program)")
	rows, err := experiments.SchedulerStudy(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %10s %10s %10s %6s\n", "Workload", "serial", "scheduled", "critpath", "ILP")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %10d %10d %10d %6.2f\n", r.Name, r.Serial, r.Makespan, r.CriticalPath, r.ILP)
	}
	return nil
}

func scorecard(env experiments.Env, w io.Writer) error {
	header(w, "Reproduction scorecard: headline paper numbers vs this reproduction")
	rows, err := experiments.Scorecard(env)
	if err != nil {
		return err
	}
	pass := 0
	for _, r := range rows {
		fmt.Fprintln(w, r)
		if r.OK() {
			pass++
		}
	}
	fmt.Fprintf(w, "%d/%d headline metrics within band\n", pass, len(rows))
	return nil
}

func pageSweep(env experiments.Env, w io.Writer) error {
	header(w, "Page-size sweep (paper §7: no significant impact): runtime relative to 32 KB")
	rows, err := experiments.PageSizeSweep(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %8s %8s %8s | %8s %8s %8s\n", "Workload", "PG 8K", "PG 16K", "PG 32K", "GP 8K", "GP 16K", "GP 32K")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f\n",
			r.Name, r.PG8K, r.PG16K, r.PG32K, r.GP8K, r.GP16K, r.GP32K)
	}
	return nil
}

func batchConv(env experiments.Env, w io.Writer) error {
	header(w, "Batch size vs epochs-to-converge (functional, scaled datasets)")
	names := []string{"Remote Sensing LR", "Remote Sensing SVM", "Patient", "Blog Feedback"}
	rows, err := experiments.BatchConvergence(names, env, 0.002, 0.5, 300)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s", "Workload")
	for _, b := range experiments.BatchSizes {
		fmt.Fprintf(w, " batch=%-4d", b)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s", r.Name)
		for _, b := range experiments.BatchSizes {
			fmt.Fprintf(w, " %-10d", r.Epochs[b])
		}
		fmt.Fprintln(w)
	}
	return nil
}

func ablations(env experiments.Env, w io.Writer) error {
	header(w, "Design ablations: speedup over MADlib+PG (warm)")
	rows, gm, err := experiments.Ablations(env)
	if err != nil {
		return err
	}
	for _, r := range append(rows, gm) {
		fmt.Fprintln(w, experiments.FormatAblation(r))
	}
	return nil
}

// channelSweep extends Figure 14 along the memory-channel axis and
// emits CSV (one row per workload × channel count × bandwidth scale).
// The experiment fails — and danabench exits non-zero — if any sweep
// point violates the channel model's charging identities (aggregate =
// channels × per-channel, 1-channel ≡ legacy scalar, transfer ≡ serial
// per-page recomputation).
func channelSweep(env experiments.Env, w io.Writer) error {
	header(w, "Channel sweep: epoch pipeline vs bandwidth × memory channels (Fig 14 extended, CSV)")
	rows, err := experiments.ChannelSweep(env)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "workload,channels,scale,aggregate_gb_s,transfer_s,pipeline_s,speedup,saturated")
	for _, r := range rows {
		fmt.Fprintf(w, "%s,%d,%g,%.3f,%.6g,%.6g,%.3f,%t\n",
			r.Name, r.Channels, r.Scale, r.AggregateBW/1e9,
			r.TransferSec, r.PipelineSec, r.Speedup, r.Saturated)
	}
	return nil
}

// precisionSweep trains the committed seeds through the MLWeaving-style
// any-precision weave path at 1..32 bits and prints the tradeoff curve:
// modeled link bytes/seconds per epoch against epochs-to-converge. The
// experiment errors — and danabench exits non-zero — if modeled
// transfer is not monotone non-increasing as precision drops, if the
// full-width run is not bit-identical to the accelerator path (model
// and counters), or if any reduced-precision run misses its epoch
// budget.
func precisionSweep(env experiments.Env, w io.Writer) error {
	header(w, "Precision sweep: any-precision weave path, transfer vs epochs-to-converge (MLWeaving tradeoff)")
	rows, err := experiments.PrecisionSweep(env)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintln(w, experiments.FormatPrecision(r))
	}
	return nil
}

// tenants runs the seeded many-tenant open-loop load through the
// multi-tenant server under sequence-aware scheduling and compares it
// against an always-reconfigure plan of the same schedule. The
// experiment errors — and -exp all exits non-zero — if any job fails,
// the per-tenant counter identity breaks, or sequence-aware fails to
// beat always-reconfigure on modeled makespan.
func tenants(env experiments.Env, w io.Writer) error {
	header(w, "Multi-tenant server: sequence-aware vs always-reconfigure (seeded open-loop load)")
	_, err := experiments.TenantExperiment(w)
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "danabench:", err)
	os.Exit(1)
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

func table3(env experiments.Env, w io.Writer) error {
	header(w, "Table 3: datasets and models (ours vs paper)")
	fmt.Fprintf(w, "%-20s %-9s %-18s %12s %10s %9s %10s %8s\n",
		"Workload", "Algo", "Topology", "Tuples", "Pages32K", "SizeMB", "PaperPgs", "PaperMB")
	for _, r := range experiments.Table3(env) {
		fmt.Fprintf(w, "%-20s %-9s %-18s %12d %10d %9.0f %10d %8d\n",
			r.Name, r.Algorithm, fmt.Sprint(r.Topology), r.Tuples, r.Pages32K, r.SizeMB,
			r.PaperPages32K, r.PaperSizeMB)
	}
	return nil
}

func table4(env experiments.Env, w io.Writer) error {
	header(w, "Table 4: FPGA specification")
	f := env.FPGA
	fmt.Fprintf(w, "%s\n  LUTs=%d  FFs=%d  clock=%.0f MHz  BRAM=%d MB  DSPs=%d  max AUs=%d\n",
		f.Name, f.LUTs, f.FlipFlops, f.ClockHz/1e6, f.BRAMBytes>>20, f.DSPs, f.MaxAUsAvailable())
	_ = hwgen.VU9P()
	return nil
}

func table5(env experiments.Env, w io.Writer) error {
	header(w, "Table 5: absolute runtimes (modeled, warm cache)")
	rows, err := experiments.Table5(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %14s %14s %14s\n", "Workload", "MADlib+PG", "MADlib+GP", "DAnA+PG")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %14s %14s %14s\n", r.Name,
			experiments.FormatSeconds(r.PGSec),
			experiments.FormatSeconds(r.GPSec),
			experiments.FormatSeconds(r.DAnASec))
	}
	return nil
}

func figSpeedups(fig, class string) func(experiments.Env, io.Writer) error {
	return func(env experiments.Env, w io.Writer) error {
		for _, warm := range []bool{true, false} {
			cache := "warm"
			if !warm {
				cache = "cold"
			}
			header(w, fmt.Sprintf("%s (%s datasets, %s cache): end-to-end speedup over MADlib+PostgreSQL", fig, class, cache))
			rows, gm, err := experiments.ClassSpeedups(class, env, warm)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-20s %12s %12s %12s\n", "Workload", "GP/PG", "DAnA/PG", "DAnA/GP")
			for _, r := range append(rows, gm) {
				fmt.Fprintf(w, "%-20s %11.1fx %11.1fx %11.1fx\n", r.Name, r.GPvsPG, r.DAnAvsPG, r.DAnAvsGP)
			}
		}
		return nil
	}
}

func fig11(env experiments.Env, w io.Writer) error {
	header(w, "Figure 11: DAnA with vs without Striders (speedup over MADlib+PG, warm)")
	rows, gm, err := experiments.StriderBenefit(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %14s %14s\n", "Workload", "w/o Strider", "with Strider")
	for _, r := range append(rows, gm) {
		fmt.Fprintf(w, "%-20s %13.1fx %13.1fx\n", r.Name, r.WithoutStrider, r.WithStrider)
	}
	return nil
}

func fig12(env experiments.Env, w io.Writer) error {
	header(w, "Figure 12: accelerator runtime vs merge coefficient (relative to 1 thread)")
	coefs := []int{1, 4, 16, 64, 256, 1024}
	for _, name := range experiments.Fig12Workloads {
		pts, err := experiments.ThreadSweep(name, env, coefs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s:\n", name)
		for _, p := range pts {
			bar := strings.Repeat("#", int(p.RelRuntime*40))
			fmt.Fprintf(w, "  coef %5d: threads %4d util %5.1f%% runtime %.3f %s\n",
				p.Coef, p.Threads, 100*p.Utilization, p.RelRuntime, bar)
		}
	}
	return nil
}

func fig13(env experiments.Env, w io.Writer) error {
	header(w, "Figure 13: Greenplum segment sweep (speedup relative to 8 segments)")
	rows, gm, err := experiments.SegmentSweep(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %10s %10s %10s %10s\n", "Workload", "PG", "4 seg", "8 seg", "16 seg")
	for _, r := range append(rows, gm) {
		fmt.Fprintf(w, "%-20s %9.2fx %9.2fx %9.2fx %9.2fx\n", r.Name, r.PG, r.Seg4, r.Seg8, r.Seg16)
	}
	return nil
}

func fig14(env experiments.Env, w io.Writer) error {
	header(w, "Figure 14: FPGA time vs link bandwidth (speedup over baseline bandwidth)")
	rows, err := experiments.BandwidthSweep(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s", "Workload")
	for _, sc := range experiments.BandwidthScales {
		fmt.Fprintf(w, " %7.2fx", sc)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s", r.Name)
		for _, sc := range experiments.BandwidthScales {
			fmt.Fprintf(w, " %7.2f ", r.Speedups[sc])
		}
		fmt.Fprintln(w)
	}
	return nil
}

func fig15(env experiments.Env, w io.Writer) error {
	rows, err := experiments.ExternalLibraries(env)
	if err != nil {
		return err
	}
	header(w, "Figure 15a: external library runtime breakdown (1 epoch)")
	fmt.Fprintf(w, "%-20s %-10s %10s %10s %10s\n", "Workload", "Library", "Export%", "Transform%", "Compute%")
	for _, r := range rows {
		if !isNaN(r.LiblinearSec) {
			b := r.LiblinearBreakdown
			fmt.Fprintf(w, "%-20s %-10s %9.1f%% %9.1f%% %9.1f%%\n", r.Name, "Liblinear",
				100*b.ExportSec/b.TotalSec, 100*b.TransformSec/b.TotalSec, 100*b.ComputeSec/b.TotalSec)
		}
		b := r.DimmWittedBreakdown
		fmt.Fprintf(w, "%-20s %-10s %9.1f%% %9.1f%% %9.1f%%\n", r.Name, "DimmWitted",
			100*b.ExportSec/b.TotalSec, 100*b.TransformSec/b.TotalSec, 100*b.ComputeSec/b.TotalSec)
	}
	header(w, "Figure 15b/c: compute and end-to-end times (1 epoch, seconds)")
	fmt.Fprintf(w, "%-20s %10s %10s %10s %10s | %10s %10s %10s\n",
		"Workload", "PGcomp", "LLcomp", "DWcomp", "DAnAcomp", "LLtotal", "DWtotal", "DAnAtotal")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %10.2f %10.2f %10.2f %10.4f | %10.2f %10.2f %10.3f\n",
			r.Name, r.PGComputeSec, r.LiblinearComputeSec, r.DimmWittedComputeSec, r.DAnAComputeSec,
			r.LiblinearSec, r.DimmWittedSec, r.DAnASec)
	}
	return nil
}

func isNaN(f float64) bool { return f != f }

func fig16(env experiments.Env, w io.Writer) error {
	header(w, "Figure 16: DAnA vs TABLA (execution-engine compute speedup)")
	rows, gm, err := experiments.TablaComparison(env)
	if err != nil {
		return err
	}
	for _, r := range append(rows, gm) {
		fmt.Fprintf(w, "%-20s %8.1fx\n", r.Name, r.Speedup)
	}
	return nil
}
