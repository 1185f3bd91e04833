// Command danactl drives a DAnA-enhanced database end to end: it loads
// a Table 3 workload (scaled), registers the matching UDF, and runs the
// accelerated training query, printing the hardware design and
// pipeline statistics.
//
//	danactl -workload "Remote Sensing LR" -scale 0.01 -merge 64 -epochs 3
//	danactl -sql "SELECT COUNT(*) FROM remote_sensing_lr" -workload "Remote Sensing LR" -scale 0.01
//	danactl -udf my_udf.dsl -workload Patient -scale 0.01   # custom DSL file
//	danactl -backend auto    # let the dispatcher pick the cheapest backend
//	                         # ("" = accelerator; or an explicit
//	                         # accelerator|tabla|cpu|sharded|weave override)
//	danactl -precision 8     # k-bit MLWeaving read path: features
//	                         # quantized to 8 bits, link ships 8/32 of
//	                         # the plane bytes (1-31; 0/32 = float path)
//
// Subcommands (same flags apply after the subcommand):
//
//	danactl stats            # train, then print the observability
//	                         # breakdown: per-component cycles (summing
//	                         # exactly to the modeled total) and
//	                         # compute/access utilization, Fig 10 style
//	danactl stats -channels 4  # adds the per-channel stream split:
//	                         # bytes, busy cycles, utilization skew
//	danactl stats -backend auto  # adds the dispatcher's per-backend cost
//	                         # table and marks the backend that served
//	danactl stats -json      # machine-readable obs snapshot instead
//	danactl trace            # train, then dump the trace-event ring
//
// The multi-tenant server has its own command, danasrv.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dana"
	"dana/internal/backend"
	"dana/internal/engine"
	"dana/internal/obs"
	"dana/internal/runtime"
)

func main() {
	args := os.Args[1:]
	mode := "train"
	if len(args) > 0 && (args[0] == "stats" || args[0] == "trace") {
		mode = args[0]
		args = args[1:]
	}
	check(run(os.Stdout, mode, args))
}

// run is danactl in mode train, stats or trace with the flags in args,
// writing its output to w.
func run(w io.Writer, mode string, args []string) error {
	fs := flag.NewFlagSet("danactl", flag.ExitOnError)
	var (
		workload = fs.String("workload", "Remote Sensing LR", "Table 3 workload name")
		scale    = fs.Float64("scale", 0.01, "fraction of the full tuple count to generate")
		merge    = fs.Int("merge", 64, "merge coefficient (max accelerator threads)")
		epochs   = fs.Int("epochs", 3, "training epochs")
		pageKB   = fs.Int("page", 32, "page size in KB (8, 16, 32)")
		channels = fs.Int("channels", 1, "modeled memory channels (1-32); scales link bandwidth and splits the channel.<i>.* counters")
		be       = fs.String("backend", "", `execution backend: "" = accelerator (paper path), "auto" = cheapest by modeled cost, or accelerator|tabla|cpu|sharded|weave`)
		segments = fs.Int("segments", 0, "sharded backend's segment fan-out (0 = Greenplum baseline's 8)")
		bits     = fs.Int("precision", 0, "weave read precision in bits per feature (0/32 = full-width float path, 1-31 = k-bit any-precision weave path)")
		seed     = fs.Int64("seed", 1, "dataset generator seed")
		udfFile  = fs.String("udf", "", "optional DSL source file overriding the built-in UDF")
		sqlStmt  = fs.String("sql", "", "optional SQL to run instead of training")
		listing  = fs.Bool("listing", false, "print the compiled accelerator program listing")
		asJSON   = fs.Bool("json", false, "with the stats subcommand: print the obs snapshot as JSON")
	)
	_ = fs.Parse(args) // ExitOnError: Parse returns only on success
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (subcommands: stats, trace)", fs.Arg(0))
	}

	eng, err := dana.Open(dana.Config{
		PageSize: *pageKB << 10, PoolBytes: 256 << 20, Channels: *channels,
		Backend: *be, Segments: *segments, Precision: *bits,
	})
	if err != nil {
		return err
	}

	ds, err := eng.LoadWorkload(*workload, *scale, *seed)
	if err != nil {
		return err
	}
	if mode == "train" {
		fmt.Fprintf(w, "loaded %q as table %q: %d tuples, %d pages of %d KB\n",
			ds.Workload.Name, ds.Rel.Name, ds.Tuples, ds.Rel.NumPages(), *pageKB)
	}

	if *sqlStmt != "" {
		res, err := eng.SQL(*sqlStmt)
		if err != nil {
			return err
		}
		printResult(w, res)
		return nil
	}

	var algo *dana.Algo
	if *udfFile != "" {
		src, err := os.ReadFile(*udfFile)
		if err != nil {
			return err
		}
		if algo, err = dana.ParseUDF(string(src)); err != nil {
			return err
		}
	} else {
		if algo, err = ds.DSLAlgo(*merge); err != nil {
			return err
		}
		algo.SetEpochs(*epochs)
	}
	if err := eng.RegisterUDF(algo, *merge); err != nil {
		return err
	}

	res, err := eng.Train(algo.Name, ds.Rel.Name)
	if err != nil {
		return err
	}

	switch mode {
	case "stats":
		if *asJSON {
			data, err := eng.Obs().Snapshot().MarshalJSON()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, string(data))
			return nil
		}
		return printStats(w, eng, res, algo.Name, ds.Rel.Name)
	case "trace":
		printTrace(w, eng.Obs())
		return nil
	}

	fmt.Fprintf(w, "\naccelerator design: %s\n", res.Design)
	fmt.Fprintf(w, "trained %q for %d epochs over %d tuples on backend %q\n",
		algo.Name, res.Epochs, res.Engine.Tuples, res.Backend)
	if res.Degraded {
		fmt.Fprintf(w, "degraded at epoch %d, completed on backend %q\n", res.DegradedAtEpoch, backend.NameCPU)
	}
	fmt.Fprintf(w, "engine:  %d cycles (%d compute, %d merge, %d load), %d instructions\n",
		res.Engine.Cycles, res.Engine.ComputeCycles, res.Engine.MergeCycles,
		res.Engine.LoadCycles, res.Engine.Instructions)
	fmt.Fprintf(w, "strider: %d pages, %d tuples, %d cycles across %d striders\n",
		res.Access.Pages, res.Access.Tuples, res.Access.Cycles, res.Design.NumStriders)
	fmt.Fprintf(w, "buffer pool: %d hits, %d misses, %.3fs simulated I/O\n",
		res.Pool.Hits, res.Pool.Misses, res.Pool.IOSeconds)
	fmt.Fprintf(w, "simulated end-to-end: %.4fs\n", res.SimulatedSeconds)
	if n := len(res.Model); n > 0 {
		show := n
		if show > 8 {
			show = 8
		}
		fmt.Fprintf(w, "model[0:%d] = %v\n", show, res.Model[:show])
	}
	if *listing {
		fmt.Fprintf(w, "\nUDF source (re-rendered from the catalog form):\n%s", dana.RenderUDF(algo))
		acc, ok := eng.Catalog().Accelerator(algo.Name)
		if ok {
			fmt.Fprintf(w, "\nstrider program:\n")
			for _, in := range acc.StriderProg {
				fmt.Fprintf(w, "  %s\n", in)
			}
			fmt.Fprintf(w, "\nexecution engine program:\n%s", engine.Listing(acc.Program))
			if pl, err := engine.PlanListing(acc.Program, acc.Design.Engine); err == nil {
				fmt.Fprintf(w, "\nlowered plan:\n%s", pl)
			}
			if mp, err := engine.Lower(acc.Program, acc.Design.Engine); err == nil {
				pt, pm, cv := mp.Count()
				fmt.Fprintf(w, "\nmicro-instruction footprint: %d per-tuple, %d post-merge, %d convergence\n", pt, pm, cv)
				show := mp.PerTuple
				if len(show) > 12 {
					show = show[:12]
				}
				for _, mi := range show {
					fmt.Fprintf(w, "  %s\n", mi)
				}
				if len(mp.PerTuple) > 12 {
					fmt.Fprintf(w, "  ... (%d more)\n", len(mp.PerTuple)-12)
				}
			}
		}
	}
	return nil
}

// printStats renders the Fig 10-style observability breakdown: where
// every modeled accelerator cycle went, per component, with the
// compute- and access-engine utilization of the generated design. The
// per-component engine cycles must sum exactly to the modeled total, and
// the channel split to the Strider totals: a broken identity is an error,
// on which danactl exits non-zero.
func printStats(w io.Writer, eng *dana.Engine, res *runtime.TrainResult, udfName, table string) error {
	r := eng.Obs()
	pct := func(part, whole int64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}

	fmt.Fprintf(w, "=== execution engine (%d threads) ===\n", res.Design.Engine.Threads)
	total := r.Get(obs.EngineCycles)
	load := r.Get(obs.EngineCyclesLoad)
	compute := r.Get(obs.EngineCyclesCompute)
	mergeCyc := r.Get(obs.EngineCyclesMerge)
	fmt.Fprintf(w, "  %-22s %14d cycles\n", "total (makespan)", total)
	fmt.Fprintf(w, "  %-22s %14d cycles %6.1f%%\n", "tuple load", load, pct(load, total))
	fmt.Fprintf(w, "  %-22s %14d cycles %6.1f%%\n", "compute", compute, pct(compute, total))
	fmt.Fprintf(w, "  %-22s %14d cycles %6.1f%%\n", "merge + broadcast", mergeCyc, pct(mergeCyc, total))
	sum := load + compute + mergeCyc
	if sum != total {
		return fmt.Errorf("cycle accounting broken: %d+%d+%d = %d != total %d",
			load, compute, mergeCyc, sum, total)
	}
	fmt.Fprintf(w, "  %-22s %14d cycles (sums exactly to total)\n", "sum of components", sum)
	fmt.Fprintf(w, "  %-22s %13.1f%% of %d-thread capacity (%d idle slot-cycles in merge batches)\n",
		"compute utilization", 100*res.Engine.Utilization(res.Design.Engine.Threads),
		res.Design.Engine.Threads, res.Engine.IdleCycles)

	fmt.Fprintf(w, "=== access engine (%d striders) ===\n", res.Design.NumStriders)
	fmt.Fprintf(w, "  %-22s %14d cycles (group-max critical path)\n", "strider cycles", r.Get(obs.StriderCycles))
	fmt.Fprintf(w, "  %-22s %14d cycles (work across striders)\n", "strider work", r.Get(obs.StriderCyclesTotal))
	fmt.Fprintf(w, "  %-22s %13.1f%% of %d-strider capacity\n",
		"access utilization", 100*res.Access.Utilization(res.Design.NumStriders), res.Design.NumStriders)
	fmt.Fprintf(w, "  %-22s %14d pages, %d tuples, %d bytes, %d Strider instructions\n",
		"walked", r.Get(obs.StriderPages), r.Get(obs.StriderTuples),
		r.Get(obs.StriderBytes), r.Get(obs.StriderInstrs))

	if n := r.Get(obs.ChannelCount); n > 0 {
		fmt.Fprintf(w, "=== memory channels (%d) ===\n", n)
		var sumBytes, sumBusy, maxBusy int64
		for c := 0; c < int(n); c++ {
			bytes := r.Get(obs.ChannelBytesStreamed(c))
			busy := r.Get(obs.ChannelBusyCycles(c))
			sumBytes += bytes
			sumBusy += busy
			if busy > maxBusy {
				maxBusy = busy
			}
			fmt.Fprintf(w, "  channel %-14d %14d bytes streamed, %d busy cycles\n", c, bytes, busy)
		}
		skew := 1.0
		if sumBusy > 0 {
			skew = float64(maxBusy) / (float64(sumBusy) / float64(n))
		}
		fmt.Fprintf(w, "  %-22s %14.3f (max/mean busy; 1.0 = perfectly balanced)\n", "utilization skew", skew)
		// The channel split is a partition of the Strider totals: every
		// streamed byte and every busy cycle belongs to exactly one channel.
		if sumBytes != r.Get(obs.StriderBytes) || sumBusy != r.Get(obs.StriderCyclesTotal) {
			return fmt.Errorf("channel accounting broken: %d bytes / %d cycles across channels != strider totals %d / %d",
				sumBytes, sumBusy, r.Get(obs.StriderBytes), r.Get(obs.StriderCyclesTotal))
		}
	}

	fmt.Fprintf(w, "=== buffer pool ===\n")
	hits, misses := r.Get(obs.PoolHits), r.Get(obs.PoolMisses)
	fmt.Fprintf(w, "  %-22s %14d hits, %d misses (%.1f%% hit ratio)\n",
		"page requests", hits, misses, pct(hits, hits+misses))
	fmt.Fprintf(w, "  %-22s %14d evictions, %d clock-sweep steps, %d bytes read, %.4fs simulated I/O\n",
		"replacement", r.Get(obs.PoolEvictions), r.Get(obs.PoolSweepSteps),
		r.Get(obs.PoolBytesRead), r.GetFloat(obs.PoolIOSeconds))

	fmt.Fprintf(w, "=== runtime ===\n")
	nEpochs := r.Get(obs.RuntimeEpochs)
	cached := r.Get(obs.RuntimeEpochCached)
	fmt.Fprintf(w, "  %-22s %14d (%d replayed from the record cache)\n", "epochs", nEpochs, cached)
	ch, cm := r.Get(obs.RuntimeCacheHits), r.Get(obs.RuntimeCacheMisses)
	fmt.Fprintf(w, "  %-22s %14d hits, %d misses (%.1f%% hit rate)\n",
		"record cache", ch, cm, pct(ch, ch+cm))
	if wb := r.Get(obs.WeaveBuilds); wb > 0 {
		fmt.Fprintf(w, "  %-22s %14d builds, %d bytes held beside the record cache\n",
			"weave pages", wb, r.Get(obs.WeaveHeldBytes))
	}
	trainNs := r.Get(obs.RuntimeTrainWallNs)
	fmt.Fprintf(w, "  %-22s %11.3f ms wall (%.3f ms/epoch mean)\n",
		"host time", float64(trainNs)/1e6, float64(r.Get(obs.RuntimeEpochWallNs))/1e6/float64(max64(1, nEpochs)))
	busyNs := r.Get(obs.RuntimeWorkerBusyNs)
	occ := 0.0
	if trainNs > 0 {
		occ = 100 * float64(busyNs) / float64(trainNs)
	}
	fmt.Fprintf(w, "  %-22s %11.3f ms in Strider VMs (%.0f%% of train wall across workers)\n",
		"worker busy", float64(busyNs)/1e6, occ)
	fmt.Fprintf(w, "=== backend dispatch ===\n")
	costs, err := eng.BackendCosts(udfName, table)
	if err != nil {
		return err
	}
	for _, bc := range costs {
		marker := " "
		if bc.Name == res.Backend {
			marker = "*"
		}
		if bc.Err != "" {
			fmt.Fprintf(w, "  %s %-20s rejected: %s\n", marker, bc.Name, bc.Err)
		} else {
			fmt.Fprintf(w, "  %s %-20s %14.4f s modeled epoch+transfer cost\n", marker, bc.Name, bc.Seconds)
		}
	}
	fmt.Fprintf(w, "    (* = served this run; -backend auto picks the cheapest admissible)\n")
	if res.Degraded {
		fmt.Fprintf(w, "  %-22s epoch %d -> %q (generic backend failover)\n",
			"degraded at", res.DegradedAtEpoch, backend.NameCPU)
	}

	fmt.Fprintf(w, "=== modeled result ===\n")
	fmt.Fprintf(w, "  %-22s %14.4f s simulated end-to-end\n", res.Backend, res.SimulatedSeconds)
	return nil
}

// printTrace dumps the bounded trace-event ring, timestamps relative to
// the first retained event.
func printTrace(w io.Writer, r *obs.Registry) {
	evs := r.Ring().Events()
	if len(evs) == 0 {
		fmt.Fprintln(w, "trace ring is empty")
		return
	}
	if d := r.Ring().Dropped(); d > 0 {
		fmt.Fprintf(w, "(%d older events dropped by the ring)\n", d)
	}
	t0 := evs[0].AtNs
	fmt.Fprintf(w, "%6s %12s  %-14s %12s %12s\n", "seq", "t(ms)", "event", "a", "b")
	for _, ev := range evs {
		fmt.Fprintf(w, "%6d %12.3f  %-14s %12d %12d\n",
			ev.Seq, float64(ev.AtNs-t0)/1e6, ev.Name, ev.A, ev.B)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func printResult(w io.Writer, res *dana.Result) {
	if res.Msg != "" {
		fmt.Fprintln(w, res.Msg)
	}
	if len(res.Cols) > 0 {
		fmt.Fprintln(w, res.Cols)
	}
	max := len(res.Rows)
	if max > 20 {
		max = 20
	}
	for _, row := range res.Rows[:max] {
		fmt.Fprintln(w, row)
	}
	if len(res.Rows) > max {
		fmt.Fprintf(w, "... (%d rows total)\n", len(res.Rows))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "danactl:", err)
		os.Exit(1)
	}
}
