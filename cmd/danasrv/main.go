// Command danasrv runs DAnA's multi-tenant accelerator server: named
// tenants submit train/score jobs against a bounded pool of accelerator
// instances, admitted under per-tenant quotas and scheduled
// sequence-aware (reuse a loaded configuration when the queue makes it
// worth keeping, reconfigure when it does not).
//
//	danasrv                         # seeded open-loop load, default sizes
//	danasrv -tenants 8 -jobs 64 -rate 12 -instances 3
//	danasrv -policy reconfigure     # always-reconfigure baseline policy
//	danasrv -compare                # also plan the baseline and report speedup
//	danasrv -faulty tenant0         # give tenant0 a Strider trap storm
//	                                # (isolation demo: only tenant0 degrades)
//	danasrv -stdin                  # line protocol on stdin:
//	                                #   train <tenant> <workload>
//	                                #   score <tenant> <workload>
//	                                #   run            (drain the batch)
//	                                #   sessions       (per-tenant counters)
//	                                #   quit
//
// The process exits non-zero if any job fails, or if the per-tenant
// counter identity (tenant counters summing exactly to the per-tenant
// registry totals) is violated.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/server"
)

// options are danasrv's flags.
type options struct {
	tenants, jobs, epochs, instances int
	rate, scale, slack, scoreFrac    float64
	seed                             int64
	policy, faulty                   string
	compare, stdin                   bool
}

// parseFlags parses args as the command line does, exiting on a bad one.
func parseFlags(args []string) options {
	var o options
	fs := flag.NewFlagSet("danasrv", flag.ExitOnError)
	fs.IntVar(&o.tenants, "tenants", 4, "number of named tenants (tenant0..tenantN-1)")
	fs.IntVar(&o.jobs, "jobs", 32, "jobs in the generated open-loop load")
	fs.Float64Var(&o.rate, "rate", 8, "open-loop arrival rate, jobs per virtual second")
	fs.Float64Var(&o.scale, "scale", 0.002, "dataset scale per job")
	fs.IntVar(&o.epochs, "epochs", 2, "training epoch budget per job")
	fs.Int64Var(&o.seed, "seed", 1, "load and dataset seed")
	fs.IntVar(&o.instances, "instances", 2, "accelerator instances in the pool")
	fs.StringVar(&o.policy, "policy", "sequence", "scheduling policy: sequence | reconfigure")
	fs.Float64Var(&o.slack, "slack", 0, "affinity batching fair-share slack in virtual seconds (0 = default)")
	fs.Float64Var(&o.scoreFrac, "score-frac", 0.25, "fraction of jobs that are batch-scoring requests")
	fs.StringVar(&o.faulty, "faulty", "", "tenant name to run under a persistent Strider trap storm")
	fs.BoolVar(&o.compare, "compare", false, "also plan the load under always-reconfigure and report the makespan ratio")
	fs.BoolVar(&o.stdin, "stdin", false, "read a job script from stdin instead of generating a load")
	_ = fs.Parse(args) // ExitOnError: Parse returns only on success
	return o
}

func main() {
	check(run(os.Stdout, parseFlags(os.Args[1:])))
}

// run builds the server o describes and either serves the stdin protocol
// or drains the generated load, writing its report to w.
func run(w io.Writer, o options) error {
	pol, err := server.ParsePolicy(o.policy)
	if err != nil {
		return err
	}
	load := server.LoadConfig{
		Seed: o.seed, Tenants: o.tenants, Jobs: o.jobs, RateJobsPerSec: o.rate,
		Scale: o.scale, Epochs: o.epochs, ScoreFraction: o.scoreFrac,
	}
	tcs := server.DefaultTenants(o.tenants)
	if o.faulty != "" {
		found := false
		for i := range tcs {
			if tcs[i].Name == o.faulty {
				var rates [fault.NumPoints]float64
				rates[fault.StriderTrap] = 1.0
				tcs[i].Faults = &fault.Config{
					Seed:              uint64(o.seed),
					Rates:             rates,
					TransientAttempts: -1,
				}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("-faulty %q: no such tenant", o.faulty)
		}
	}
	srv, err := server.New(server.Config{
		Tenants:       tcs,
		Instances:     o.instances,
		Policy:        pol,
		Seed:          o.seed,
		BatchSlackSec: o.slack,
	})
	if err != nil {
		return err
	}

	if o.stdin {
		repl(srv, load)
		return nil
	}

	specs := server.GenLoad(load)
	rep, err := srv.Run(specs)
	if err != nil {
		return err
	}
	server.WriteReport(w, rep)
	if o.compare {
		base, err := srv.Replan(specs, server.PolicyAlwaysReconfigure)
		if err != nil {
			return err
		}
		ratio := 0.0
		if rep.MakespanSec > 0 {
			ratio = base.Makespan / rep.MakespanSec
		}
		fmt.Fprintf(w, "always-reconfigure plan: makespan %.3fs (%.2fx vs %s)\n",
			base.Makespan, ratio, rep.Policy)
	}
	if err := srv.IdentityError(); err != nil {
		return err
	}
	if rep.Errors > 0 && o.faulty == "" {
		return fmt.Errorf("%d job(s) failed on a fault-free run", rep.Errors)
	}
	return nil
}

// repl reads the stdin line protocol, batching submissions until "run".
func repl(srv *server.Server, load server.LoadConfig) {
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch fields[0] {
		case "train", "score":
			if len(fields) < 3 {
				fmt.Fprintf(os.Stderr, "usage: %s <tenant> <workload...> [scale]\n", fields[0])
				continue
			}
			kind := server.KindTrain
			if fields[0] == "score" {
				kind = server.KindScore
			}
			// The workload name may contain spaces ("Remote Sensing LR");
			// a trailing float, if present, is the scale.
			args := fields[2:]
			scale := load.Scale
			if len(args) > 1 {
				if f, err := strconv.ParseFloat(args[len(args)-1], 64); err == nil {
					scale = f
					args = args[:len(args)-1]
				}
			}
			err := srv.Submit(server.JobSpec{
				Tenant:   fields[1],
				Kind:     kind,
				Workload: strings.Join(args, " "),
				Scale:    scale,
				Epochs:   load.Epochs,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "danasrv:", err)
			}
		case "run":
			rep, err := srv.Drain()
			if err != nil {
				fmt.Fprintln(os.Stderr, "danasrv:", err)
				continue
			}
			if rep == nil {
				fmt.Println("nothing pending")
				continue
			}
			server.WriteReport(os.Stdout, rep)
		case "sessions", "stats":
			printSessions(srv)
		case "quit", "exit":
			check(srv.IdentityError())
			return
		default:
			fmt.Fprintf(os.Stderr, "danasrv: unknown command %q (train/score/run/sessions/quit)\n", fields[0])
		}
	}
	check(sc.Err())
	check(srv.IdentityError())
}

// printSessions renders the live per-tenant counter view from the
// server registry (same numbers danactl sessions shows).
func printSessions(srv *server.Server) {
	r := srv.Obs()
	fmt.Printf("%-10s %5s %6s %6s %5s %5s %6s %8s %10s %14s %14s\n",
		"tenant", "jobs", "trains", "scores", "errs", "degr", "reuse", "reconf", "wait_ms", "engine_cyc", "strider_cyc")
	for _, name := range srv.TenantNames() {
		get := func(metric string) int64 {
			return r.Get(obs.TenantCounter(name, metric))
		}
		fmt.Printf("%-10s %5d %6d %6d %5d %5d %6d %8d %10.1f %14d %14d\n",
			name,
			get(obs.TenantMetricJobs), get(obs.TenantMetricTrains), get(obs.TenantMetricScores),
			get(obs.TenantMetricErrors), get(obs.TenantMetricDegraded),
			get(obs.TenantMetricReuses), get(obs.TenantMetricReconfigs),
			float64(get(obs.TenantMetricWaitMicros))/1e3,
			get(obs.TenantMetricEngineCycles), get(obs.TenantMetricStriderCycles))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "danasrv:", err)
		os.Exit(1)
	}
}
