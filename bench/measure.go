package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupsPerRound is how often a round sets the workload up; every set-up is
// timed, the last one's instance runs the round's operations. Three, so that
// a 15 s run takes its set-up median from about thirty samples.
const setupsPerRound = 3

// session measures one workload: it owns the samples of every round and the
// reference results the correctness checks compare against.
type session struct {
	w     *workload
	seed  int64
	quick bool // smoke run: 1 set-up per round, no timing self-validation

	warmRef *opResult // first warm-up operation: every later warm-up must equal it, sim included
	opRef   *opResult // first timed operation: every later one must equal it
	checked bool      // verifyOnce has run

	attempted, failed int
	failures          []string

	opScores, setupScores     []float64 // wall / calibration, one per op and per set-up
	opWallMs                  []float64
	allocMB, allocs, liveMB   []float64 // one per round
	macPerS, copyBPerS, calMs []float64 // the calibration kernel's own readings
}

func (s *session) cal() calSample {
	c := calibrate()
	s.macPerS = append(s.macPerS, c.macPerS)
	s.copyBPerS = append(s.copyBPerS, c.copyBPerS)
	s.calMs = append(s.calMs, ms(c.wall))
	return c
}

func (s *session) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// record counts one operation and checks it: it returned no error, passed
// its own checks, and matches the reference bit for bit in model hash and
// modeled counters (and in simulated seconds, for the first operation on a
// fresh engine, where the pool's lifetime is the run).
func (s *session) record(what string, ref **opResult, res opResult, err error, withSim bool) {
	s.attempted++
	switch {
	case err != nil:
		s.fail("%s: %v", what, err)
	case res.check != "":
		s.fail("%s: %s", what, res.check)
	case *ref == nil:
		*ref = &res
	case res.hash != (*ref).hash:
		s.fail("%s: model hash %016x, want %016x", what, res.hash, (*ref).hash)
	case res.modeled != (*ref).modeled:
		s.fail("%s: modeled counters %+v, want %+v", what, res.modeled, (*ref).modeled)
	case withSim && res.sim != (*ref).sim:
		s.fail("%s: simulated seconds %v, want %v", what, res.sim, (*ref).sim)
	}
}

// round is one round of the untraced measurement: collect garbage, set up
// (timed, warm-up operation included), then a block of timed operations
// from this one goroutine, each waiting for the previous. A fixed
// calibration kernel runs between neighbouring operations.
func (s *session) round() error {
	ops, setups := s.w.ops, setupsPerRound
	if s.quick {
		setups = 1
	}
	runtime.GC()
	var in instance
	before := s.cal()
	for i := 0; i < setups; i++ {
		start := time.Now()
		inst, warm, err := s.w.setup(s.seed, nil)
		wall := time.Since(start)
		after := s.cal()
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", s.w.name, err)
		}
		s.setupScores = append(s.setupScores, score(wall, before, after))
		s.record("warm-up", &s.warmRef, warm, nil, true)
		in, before = inst, after
	}
	if !s.checked {
		s.checked = true
		s.attempted++
		if err := s.w.verifyOnce(s.seed, *s.warmRef, in); err != nil {
			s.fail("%v", err)
		}
		before = s.cal()
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < ops; k++ {
		start := time.Now()
		res, err := in.op()
		wall := time.Since(start)
		after := s.cal()
		s.opScores = append(s.opScores, score(wall, before, after))
		s.opWallMs = append(s.opWallMs, ms(wall))
		s.record(fmt.Sprintf("op %d", k), &s.opRef, res, err, false)
		before = after
	}
	runtime.ReadMemStats(&m1)
	s.allocMB = append(s.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ops)/1e6)
	s.allocs = append(s.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	runtime.GC()
	runtime.ReadMemStats(&m1)
	s.liveMB = append(s.liveMB, float64(m1.HeapAlloc)/1e6)
	runtime.KeepAlive(in)
	return nil
}

// endToEnd reads the end-to-end metrics off the rounds run so far.
func (s *session) endToEnd() map[string]float64 {
	return map[string]float64{
		"op_ms":           calibratedMs(s.opScores),
		"setup_s":         calibratedMs(s.setupScores) / 1e3,
		"sim_seconds":     s.warmRef.sim,
		"alloc_mb_per_op": quantile(s.allocMB, 0.5),
		"allocs_per_op":   quantile(s.allocs, 0.5),
		"live_heap_mb":    quantile(s.liveMB, 0.5),
		"fail_share":      float64(s.failed) / float64(max(s.attempted, 1)),
	}
}
