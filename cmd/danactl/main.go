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
//	danactl sessions         # run a seeded multi-tenant load through the
//	                         # accelerator server and print the per-tenant
//	                         # session view (jobs, reuse, cycles); exits
//	                         # non-zero if the per-tenant counter identity
//	                         # breaks (see -help after the subcommand)
package main

import (
	"flag"
	"fmt"
	"os"

	"dana"
	"dana/internal/engine"
	"dana/internal/obs"
	"dana/internal/runtime"
)

func main() {
	args := os.Args[1:]
	mode := "train"
	if len(args) > 0 && (args[0] == "stats" || args[0] == "trace" || args[0] == "sessions") {
		mode = args[0]
		args = args[1:]
	}
	if mode == "sessions" {
		runSessions(args)
		return
	}
	var (
		workload = flag.String("workload", "Remote Sensing LR", "Table 3 workload name")
		scale    = flag.Float64("scale", 0.01, "fraction of the full tuple count to generate")
		merge    = flag.Int("merge", 64, "merge coefficient (max accelerator threads)")
		epochs   = flag.Int("epochs", 3, "training epochs")
		pageKB   = flag.Int("page", 32, "page size in KB (8, 16, 32)")
		channels = flag.Int("channels", 1, "modeled memory channels (1-32); scales link bandwidth and splits the channel.<i>.* counters")
		be       = flag.String("backend", "", `execution backend: "" = accelerator (paper path), "auto" = cheapest by modeled cost, or accelerator|tabla|cpu|sharded|weave`)
		segments = flag.Int("segments", 0, "sharded backend's segment fan-out (0 = Greenplum baseline's 8)")
		bits     = flag.Int("precision", 0, "weave read precision in bits per feature (0/32 = full-width float path, 1-31 = k-bit any-precision weave path)")
		seed     = flag.Int64("seed", 1, "dataset generator seed")
		udfFile  = flag.String("udf", "", "optional DSL source file overriding the built-in UDF")
		sqlStmt  = flag.String("sql", "", "optional SQL to run instead of training")
		listing  = flag.Bool("listing", false, "print the compiled accelerator program listing")
		asJSON   = flag.Bool("json", false, "with the stats subcommand: print the obs snapshot as JSON")
	)
	check(flag.CommandLine.Parse(args))

	eng, err := dana.Open(dana.Config{
		PageSize: *pageKB << 10, PoolBytes: 256 << 20, Channels: *channels,
		Backend: *be, Segments: *segments, Precision: *bits,
	})
	check(err)

	ds, err := eng.LoadWorkload(*workload, *scale, *seed)
	check(err)
	if mode == "train" {
		fmt.Printf("loaded %q as table %q: %d tuples, %d pages of %d KB\n",
			ds.Workload.Name, ds.Rel.Name, ds.Tuples, ds.Rel.NumPages(), *pageKB)
	}

	if *sqlStmt != "" {
		res, err := eng.SQL(*sqlStmt)
		check(err)
		printResult(res)
		return
	}

	var algo *dana.Algo
	if *udfFile != "" {
		src, err := os.ReadFile(*udfFile)
		check(err)
		algo, err = dana.ParseUDF(string(src))
		check(err)
		check(eng.RegisterUDF(algo, *merge))
	} else {
		a, err := ds.DSLAlgo(*merge)
		check(err)
		a.SetEpochs(*epochs)
		algo = a
		check(eng.RegisterUDF(algo, *merge))
	}

	res, err := eng.Train(algo.Name, ds.Rel.Name)
	check(err)

	switch mode {
	case "stats":
		if *asJSON {
			data, err := eng.Obs().Snapshot().MarshalJSON()
			check(err)
			fmt.Println(string(data))
			return
		}
		printStats(eng, res, algo.Name, ds.Rel.Name)
		return
	case "trace":
		printTrace(eng.Obs())
		return
	}

	fmt.Printf("\naccelerator design: %s\n", res.Design)
	fmt.Printf("trained %q for %d epochs over %d tuples on backend %q\n",
		algo.Name, res.Epochs, res.Engine.Tuples, res.Backend)
	if res.Degraded {
		fmt.Printf("degraded at epoch %d, completed on backend %q\n", res.DegradedAtEpoch, res.FailoverBackend)
	}
	fmt.Printf("engine:  %d cycles (%d compute, %d merge, %d load), %d instructions\n",
		res.Engine.Cycles, res.Engine.ComputeCycles, res.Engine.MergeCycles,
		res.Engine.LoadCycles, res.Engine.Instructions)
	fmt.Printf("strider: %d pages, %d tuples, %d cycles across %d striders\n",
		res.Access.Pages, res.Access.Tuples, res.Access.Cycles, res.Design.NumStriders)
	fmt.Printf("buffer pool: %d hits, %d misses, %.3fs simulated I/O\n",
		res.Pool.Hits, res.Pool.Misses, res.Pool.IOSeconds)
	fmt.Printf("simulated end-to-end: %.4fs\n", res.SimulatedSeconds)
	if n := len(res.Model); n > 0 {
		show := n
		if show > 8 {
			show = 8
		}
		fmt.Printf("model[0:%d] = %v\n", show, res.Model[:show])
	}
	if *listing {
		fmt.Printf("\nUDF source (re-rendered from the catalog form):\n%s", dana.RenderUDF(algo))
		acc, ok := eng.Catalog().Accelerator(algo.Name)
		if ok {
			fmt.Printf("\nstrider program:\n")
			for _, in := range acc.StriderProg {
				fmt.Printf("  %s\n", in)
			}
			fmt.Printf("\nexecution engine program:\n%s", engine.Listing(acc.Program))
			if pl, err := engine.PlanListing(acc.Program, acc.Design.Engine); err == nil {
				fmt.Printf("\nlowered plan:\n%s", pl)
			}
			if mp, err := engine.Lower(acc.Program, acc.Design.Engine); err == nil {
				pt, pm, cv := mp.Count()
				fmt.Printf("\nmicro-instruction footprint: %d per-tuple, %d post-merge, %d convergence\n", pt, pm, cv)
				show := mp.PerTuple
				if len(show) > 12 {
					show = show[:12]
				}
				for _, mi := range show {
					fmt.Printf("  %s\n", mi)
				}
				if len(mp.PerTuple) > 12 {
					fmt.Printf("  ... (%d more)\n", len(mp.PerTuple)-12)
				}
			}
		}
	}
}

// printStats renders the Fig 10-style observability breakdown: where
// every modeled accelerator cycle went, per component, with the
// compute- and access-engine utilization of the generated design. The
// per-component engine cycles must sum exactly to the modeled total —
// danactl exits non-zero if the identity is violated.
func printStats(eng *dana.Engine, res *runtime.TrainResult, udfName, table string) {
	r := eng.Obs()
	pct := func(part, whole int64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}

	fmt.Printf("=== execution engine (%d threads) ===\n", res.Design.Engine.Threads)
	total := r.Get(obs.EngineCycles)
	load := r.Get(obs.EngineCyclesLoad)
	compute := r.Get(obs.EngineCyclesCompute)
	mergeCyc := r.Get(obs.EngineCyclesMerge)
	fmt.Printf("  %-22s %14d cycles\n", "total (makespan)", total)
	fmt.Printf("  %-22s %14d cycles %6.1f%%\n", "tuple load", load, pct(load, total))
	fmt.Printf("  %-22s %14d cycles %6.1f%%\n", "compute", compute, pct(compute, total))
	fmt.Printf("  %-22s %14d cycles %6.1f%%\n", "merge + broadcast", mergeCyc, pct(mergeCyc, total))
	sum := load + compute + mergeCyc
	if sum != total {
		fmt.Fprintf(os.Stderr, "danactl: cycle accounting broken: %d+%d+%d = %d != total %d\n",
			load, compute, mergeCyc, sum, total)
		os.Exit(1)
	}
	fmt.Printf("  %-22s %14d cycles (sums exactly to total)\n", "sum of components", sum)
	fmt.Printf("  %-22s %13.1f%% of %d-thread capacity (%d idle slot-cycles in merge batches)\n",
		"compute utilization", 100*res.Engine.Utilization(res.Design.Engine.Threads),
		res.Design.Engine.Threads, res.Engine.IdleCycles)

	fmt.Printf("=== access engine (%d striders) ===\n", res.Design.NumStriders)
	fmt.Printf("  %-22s %14d cycles (group-max critical path)\n", "strider cycles", r.Get(obs.StriderCycles))
	fmt.Printf("  %-22s %14d cycles (work across striders)\n", "strider work", r.Get(obs.StriderCyclesTotal))
	fmt.Printf("  %-22s %13.1f%% of %d-strider capacity\n",
		"access utilization", 100*res.Access.Utilization(res.Design.NumStriders), res.Design.NumStriders)
	fmt.Printf("  %-22s %14d pages, %d tuples, %d bytes, %d VM instructions\n",
		"walked", r.Get(obs.StriderPages), r.Get(obs.StriderTuples),
		r.Get(obs.StriderBytes), r.Get(obs.StriderInstrs))

	if n := r.Get(obs.ChannelCount); n > 0 {
		fmt.Printf("=== memory channels (%d) ===\n", n)
		var sumBytes, sumBusy, maxBusy int64
		for c := 0; c < int(n); c++ {
			bytes := r.Get(obs.ChannelBytesStreamed(c))
			busy := r.Get(obs.ChannelBusyCycles(c))
			sumBytes += bytes
			sumBusy += busy
			if busy > maxBusy {
				maxBusy = busy
			}
			fmt.Printf("  channel %-14d %14d bytes streamed, %d busy cycles\n", c, bytes, busy)
		}
		skew := 1.0
		if sumBusy > 0 {
			skew = float64(maxBusy) / (float64(sumBusy) / float64(n))
		}
		fmt.Printf("  %-22s %14.3f (max/mean busy; 1.0 = perfectly balanced)\n", "utilization skew", skew)
		// The channel split is a partition of the Strider totals: every
		// streamed byte and every busy cycle belongs to exactly one channel.
		if sumBytes != r.Get(obs.StriderBytes) || sumBusy != r.Get(obs.StriderCyclesTotal) {
			fmt.Fprintf(os.Stderr, "danactl: channel accounting broken: %d bytes / %d cycles across channels != strider totals %d / %d\n",
				sumBytes, sumBusy, r.Get(obs.StriderBytes), r.Get(obs.StriderCyclesTotal))
			os.Exit(1)
		}
	}

	fmt.Printf("=== buffer pool ===\n")
	hits, misses := r.Get(obs.PoolHits), r.Get(obs.PoolMisses)
	fmt.Printf("  %-22s %14d hits, %d misses (%.1f%% hit ratio)\n",
		"page requests", hits, misses, pct(hits, hits+misses))
	fmt.Printf("  %-22s %14d evictions, %d clock-sweep steps, %d bytes read, %.4fs simulated I/O\n",
		"replacement", r.Get(obs.PoolEvictions), r.Get(obs.PoolSweepSteps),
		r.Get(obs.PoolBytesRead), r.GetFloat(obs.PoolIOSeconds))

	fmt.Printf("=== runtime ===\n")
	nEpochs := r.Get(obs.RuntimeEpochs)
	cached := r.Get(obs.RuntimeEpochCached)
	fmt.Printf("  %-22s %14d (%d replayed from the record cache)\n", "epochs", nEpochs, cached)
	ch, cm := r.Get(obs.RuntimeCacheHits), r.Get(obs.RuntimeCacheMisses)
	fmt.Printf("  %-22s %14d hits, %d misses (%.1f%% hit rate)\n",
		"record cache", ch, cm, pct(ch, ch+cm))
	if wb, wd := r.Get(obs.WeaveBuilds), r.Get(obs.WeaveDecodes); wb+wd > 0 {
		// A job that found its pages held reads "0 builds".
		fmt.Printf("  %-22s %14d builds, %d decodes, %d bytes held beside the record cache\n",
			"weave pages", wb, wd, r.Get(obs.WeaveHeldBytes))
	}
	trainNs := r.Get(obs.RuntimeTrainWallNs)
	fmt.Printf("  %-22s %11.3f ms wall (%.3f ms/epoch mean)\n",
		"host time", float64(trainNs)/1e6, float64(r.Get(obs.RuntimeEpochWallNs))/1e6/float64(max64(1, nEpochs)))
	busyNs := r.Get(obs.RuntimeWorkerBusyNs)
	occ := 0.0
	if trainNs > 0 {
		occ = 100 * float64(busyNs) / float64(trainNs)
	}
	fmt.Printf("  %-22s %11.3f ms in Strider VMs (%.0f%% of train wall across workers)\n",
		"worker busy", float64(busyNs)/1e6, occ)
	fmt.Printf("=== backend dispatch ===\n")
	costs, err := eng.BackendCosts(udfName, table)
	check(err)
	for _, bc := range costs {
		marker := " "
		if bc.Name == res.Backend {
			marker = "*"
		}
		if bc.Err != "" {
			fmt.Printf("  %s %-20s rejected: %s\n", marker, bc.Name, bc.Err)
		} else {
			fmt.Printf("  %s %-20s %14.4f s modeled epoch+transfer cost\n", marker, bc.Name, bc.Seconds)
		}
	}
	fmt.Printf("    (* = served this run; -backend auto picks the cheapest admissible)\n")
	if res.Degraded {
		fmt.Printf("  %-22s epoch %d -> %q (generic backend failover)\n",
			"degraded at", res.DegradedAtEpoch, res.FailoverBackend)
	}

	fmt.Printf("=== modeled result ===\n")
	fmt.Printf("  %-22s %14.4f s simulated end-to-end\n", res.Backend, res.SimulatedSeconds)
}

// printTrace dumps the bounded trace-event ring, timestamps relative to
// the first retained event.
func printTrace(r *obs.Registry) {
	evs := r.Ring().Events()
	if len(evs) == 0 {
		fmt.Println("trace ring is empty")
		return
	}
	if d := r.Ring().Dropped(); d > 0 {
		fmt.Printf("(%d older events dropped by the ring)\n", d)
	}
	t0 := evs[0].AtNs
	fmt.Printf("%6s %12s  %-14s %12s %12s\n", "seq", "t(ms)", "event", "a", "b")
	for _, ev := range evs {
		fmt.Printf("%6d %12.3f  %-14s %12d %12d\n",
			ev.Seq, float64(ev.AtNs-t0)/1e6, ev.Name, ev.A, ev.B)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func printResult(res *dana.Result) {
	if res.Msg != "" {
		fmt.Println(res.Msg)
	}
	if len(res.Cols) > 0 {
		fmt.Println(res.Cols)
	}
	max := len(res.Rows)
	if max > 20 {
		max = 20
	}
	for _, row := range res.Rows[:max] {
		fmt.Println(row)
	}
	if len(res.Rows) > max {
		fmt.Printf("... (%d rows total)\n", len(res.Rows))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "danactl:", err)
		os.Exit(1)
	}
}
