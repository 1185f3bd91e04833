package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// calRefMs is the calibration kernel's wall time on the reference host
// (2 cores, GOMAXPROCS 2). A host-time metric is score × calRefMs, so it
// reads as milliseconds there and as reference-host milliseconds anywhere.
const calRefMs = 4.0

const (
	calFloats = 256 << 10 // 1 MiB of float32 per dot operand
	calBytes  = 1 << 20
	calReps   = 4       // serial half: dot + copy, this many times
	calChunk  = 8 << 10 // fork-join half: floats each goroutine dots per round
	calRounds = 144
)

// The kernel's operands: package-level so the kernel allocates nothing and
// the timed blocks' MemStats deltas stay the program's own.
var (
	calX, calY   [calFloats]float32
	calSrc, calD [calBytes]byte
	calSink      float32
	calHelpers   = startCalHelpers()
)

func init() {
	for i := range calX {
		calX[i] = float32(i&255) * (1.0 / 256)
		calY[i] = float32((i>>3)&255) * (1.0 / 512)
	}
	for i := range calSrc {
		calSrc[i] = byte(i)
	}
}

// calHelper is one of the GOMAXPROCS-1 goroutines of the kernel's fork-join
// half. They live as long as the process, parked on start between kernels,
// so that a calibration allocates and spawns nothing.
type calHelper struct {
	start chan int
	sink  float32
}

var calDone = make(chan struct{})

func startCalHelpers() []*calHelper {
	hs := make([]*calHelper, runtime.GOMAXPROCS(0)-1)
	for i := range hs {
		h := &calHelper{start: make(chan int)}
		hs[i] = h
		go func() {
			for round := range h.start {
				h.sink += calDot(round + 1)
				calDone <- struct{}{}
			}
		}()
	}
	return hs
}

// calDot dots one chunk of the operands; which chunk rotates with the round.
func calDot(round int) float32 {
	off := (round * calChunk) % (calFloats - calChunk)
	var acc float32
	for i := off; i < off+calChunk; i++ {
		acc += calX[i] * calY[i]
	}
	return acc
}

// calSample is one run of the calibration kernel: its wall time and the two
// rooflines its serial half doubles as (float32 multiply-adds per second
// and memcpy bytes per second).
type calSample struct {
	wall      time.Duration
	macPerS   float64
	copyBPerS float64
}

// calibrate runs the fixed kernel, which uses no repository code, so that
// whatever slows it down is the host and not the program under test. Its
// serial half is a float32 dot over 1 MiB operands plus a 1 MiB copy, four
// times. Its fork-join half hands every core a small dot and waits for all
// of them, 144 times: the program's engine forks and joins GOMAXPROCS
// goroutines once per 64-tuple merge batch, so a busy neighbour core slows
// it in a way the serial half alone would not see.
func calibrate() calSample {
	var dot, cp time.Duration
	start := time.Now()
	for r := 0; r < calReps; r++ {
		t0 := time.Now()
		var acc float32
		for i := range calX {
			acc += calX[i] * calY[i]
		}
		calSink += acc
		t1 := time.Now()
		copy(calD[:], calSrc[:])
		calSrc[r] = calD[r] + 1
		dot += t1.Sub(t0)
		cp += time.Since(t1)
	}
	for round := 0; round < calRounds; round++ {
		for _, h := range calHelpers {
			h.start <- round
		}
		calSink += calDot(round)
		for range calHelpers {
			<-calDone
		}
	}
	return calSample{
		wall:      time.Since(start),
		macPerS:   float64(calReps*calFloats) / dot.Seconds(),
		copyBPerS: float64(calReps*calBytes) / cp.Seconds(),
	}
}

// score is a wall time in units of the calibration kernels that bracket it.
func score(wall time.Duration, before, after calSample) float64 {
	return float64(wall) / (float64(before.wall+after.wall) / 2)
}

// quantile reads the q-quantile of xs by linear interpolation (0 for empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// calibratedMs is the host-time estimator: the median of the scores, in
// reference-host milliseconds. Each score already divides out what the host
// did to the kernels either side of it, so what is left scatters both ways.
func calibratedMs(scores []float64) float64 {
	return quantile(scores, 0.5) * calRefMs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
