// Command bench is the repository's benchmark: six named workloads driven
// through the public API from one goroutine, end-to-end metrics on two
// clocks (host and modeled), and a per-layer ledger measured from outside.
// README.md in this directory explains every name it prints.
//
//	bash bench/run.sh -seed 1                      # every workload, both passes
//	bash bench/run.sh -workload glm_cold -seed 3 -seconds 10 -trace 0
//	bash bench/run.sh -compare a.json b.json       # judge two reports
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Fixed run shape of a full run (no -workload): rounds of every workload in
// fixed order, then one traced pass per workload.
const (
	fullRounds     = 8
	fullTracedReps = 8
	minRounds      = 3 // a -seconds budget never stops a run before this
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the names,
// units and bounds it must emit and judge by.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// exactMetrics are the two end-to-end metrics that must repeat exactly, so
// BENCHMARK.json cannot hold them: its bounds are shares of a median over
// seeds, and it wants no metric that is 0. They are printed, written to the
// report and judged by -compare like the others.
var exactMetrics = []metricSpec{
	{Name: "sim_seconds", Unit: "s", Better: "lower"},
	{Name: "fail_share", Unit: "ratio", Better: "lower"},
}

// allEndToEnd is the declared end-to-end metrics plus the two exact ones.
func (s *benchSpec) allEndToEnd() []metricSpec {
	return append(append([]metricSpec(nil), s.EndToEnd...), exactMetrics...)
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (go run -C bench) and returns it with the repository root.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &spec, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..; run from the repository root")
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadReport struct {
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// report is what a run writes to bench/out/report.json and -compare reads.
type report struct {
	Host      map[string]any             `json:"host"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func hostInfo(seed int64) map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "go": runtime.Version(),
		"seed": seed, "cal_ref_ms": calRefMs,
	}
}

// withUnits keeps the metrics the specs name, in their declared units, and
// fails on a missing or non-finite one.
func withUnits(got map[string]float64, specs []metricSpec) (map[string]value, error) {
	out := make(map[string]value, len(specs))
	for _, ms := range specs {
		v, ok := got[ms.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: not measured or not finite (%v)", ms.Name, v)
		}
		out[ms.Name] = value{Value: v, Unit: ms.Unit}
	}
	return out, nil
}

func printMetrics(w io.Writer, workload string, vals map[string]value, specs []metricSpec) {
	for _, ms := range specs {
		fmt.Fprintf(w, "%-12s %-36s %16.6g %s\n", workload, ms.Name, vals[ms.Name].Value, ms.Unit)
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed of every generated input (tables, server load)")
	one := fs.String("workload", "", "measure this workload only, for -seconds, and print the result as one JSON line")
	seconds := fs.Int("seconds", 0, "with -workload: how long to measure (0 = run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, untraced; 1 = per-layer metrics from the traced pass")
	quick := fs.Bool("quick", false, "smoke run: 1 round, 2 operations per workload, no timing self-validation")
	compare := fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report files")
			return 2
		}
		return runCompare(stdout, stderr, spec, fs.Arg(0), fs.Arg(1))
	}

	var sessions []*session
	for _, w := range workloads(*quick) {
		if *one == "" || *one == w.name {
			sessions = append(sessions, &session{w: w, seed: *seed, quick: *quick})
		}
	}
	if len(sessions) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *one)
		return 2
	}
	host := hostInfo(*seed)
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostLine)

	// Run shape: a full run is fixed rounds and both passes; a -workload run
	// is one pass that fills -seconds.
	rounds, reps, budget := fullRounds, fullTracedReps, time.Duration(0)
	untraced, traced := true, true
	if *one != "" {
		if *seconds <= 0 {
			*seconds = spec.RunSeconds
		}
		rounds, reps, budget = minRounds, minRounds, time.Duration(*seconds)*time.Second
		untraced, traced = *trace == 0, *trace != 0
	}
	if *quick {
		rounds, reps, budget = 1, 1, 0
	}

	rep := report{Host: host, Workloads: map[string]*workloadReport{}}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if untraced {
		started := time.Now()
		for r := 0; r < rounds || (budget > 0 && time.Since(started) < budget); r++ {
			for _, s := range sessions {
				if err := s.round(); err != nil {
					return fatal(err)
				}
			}
		}
		fmt.Fprintf(stdout, "untraced rounds took %.1f s\n", time.Since(started).Seconds())
	}
	layers := map[string]map[string]float64{}
	if traced {
		started := time.Now()
		tr := newTracer()
		for _, s := range sessions {
			m, err := s.tracedPass(tr, reps, budget)
			if err != nil {
				return fatal(err)
			}
			layers[s.w.name] = m
		}
		if err := tr.write(filepath.Join(root, "bench", "out")); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "traced pass took %.1f s\n", time.Since(started).Seconds())
	}

	allEndToEnd := spec.allEndToEnd()
	failed := 0
	for _, s := range sessions {
		wr := &workloadReport{Attempted: s.attempted, Failed: s.failed, Failures: s.failures}
		rep.Workloads[s.w.name] = wr
		failed += s.failed
		if untraced {
			if wr.EndToEnd, err = withUnits(s.endToEnd(), allEndToEnd); err != nil {
				return fatal(fmt.Errorf("%s: %w", s.w.name, err))
			}
			fmt.Fprintf(stdout, "%-12s samples: %d ops, %d set-ups; calibration kernel p50 %.3f ms\n",
				s.w.name, len(s.opScores), len(s.setupScores), quantile(s.calMs, 0.5))
			printMetrics(stdout, s.w.name, wr.EndToEnd, allEndToEnd)
		}
		if traced {
			if wr.PerLayer, err = withUnits(layers[s.w.name], spec.PerLayer); err != nil {
				return fatal(fmt.Errorf("%s: %w", s.w.name, err))
			}
			printMetrics(stdout, s.w.name, wr.PerLayer, spec.PerLayer)
		}
		for _, f := range s.failures {
			fmt.Fprintf(stdout, "%-12s FAILED CHECK: %s\n", s.w.name, f)
		}
	}

	if *one != "" {
		// The driver's contract: one JSON object on the last line.
		s, wr := sessions[0], rep.Workloads[*one]
		metrics := wr.EndToEnd
		if traced {
			metrics = wr.PerLayer
		} else {
			for _, ms := range exactMetrics {
				delete(metrics, ms.Name)
			}
		}
		line, err := json.Marshal(map[string]any{
			"correct": s.failed == 0, "attempted": s.attempted, "failed": s.failed, "metrics": metrics,
		})
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
	} else if err := writeReport(filepath.Join(root, "bench", "out", "report.json"), &rep); err != nil {
		return fatal(err)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "bench: %d failed checks\n", failed)
		return 1
	}
	return 0
}

func writeReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
