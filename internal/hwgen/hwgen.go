// Package hwgen implements DAnA's hardware generator (paper §6.1): given
// the compiled program, the FPGA's resources (Table 4), the database page
// layout, and the merge coefficient, it splits BRAM between page buffers
// (Striders) and thread scratchpads, sizes the AU/AC array from the DSP
// budget, and runs the restricted design-space exploration that balances
// single-thread performance against multi-thread parallelism using the
// static performance estimator.
package hwgen

import (
	"fmt"

	"dana/internal/engine"
)

// FPGA describes the target device.
type FPGA struct {
	Name      string
	LUTs      int
	FlipFlops int
	ClockHz   float64
	BRAMBytes int64
	DSPs      int
	// MaxAUs caps instantiable compute units (timing/placement limit;
	// 1024 on UltraScale+ per §7.2).
	MaxAUs int
}

// VU9P returns the paper's Xilinx Virtex UltraScale+ VU9P (Table 4).
func VU9P() FPGA {
	return FPGA{
		Name:      "Xilinx Virtex UltraScale+ VU9P",
		LUTs:      1182_000,
		FlipFlops: 2364_000,
		ClockHz:   150e6,
		BRAMBytes: 44 << 20,
		DSPs:      6840,
		MaxAUs:    1024,
	}
}

// DSPsPerAU is the DSP-slice budget of one analytic unit's ALU
// (multiplier, divider share, and non-linear unit).
const DSPsPerAU = 6

// InstrBufferDepth is the per-AC instruction buffer capacity (BRAM
// blocks dedicated to control). Designs whose micro-instruction
// footprint exceeds it are infeasible.
const InstrBufferDepth = 4096

// MaxAUs returns how many AUs the device can instantiate.
func (f FPGA) MaxAUsAvailable() int {
	n := f.DSPs / DSPsPerAU
	if f.MaxAUs > 0 && n > f.MaxAUs {
		n = f.MaxAUs
	}
	return n
}

// Design is one fully-specified accelerator instantiation.
type Design struct {
	FPGA   FPGA
	Engine engine.Config

	NumStriders int // page buffers / striders instantiated
	PageBuffers int

	AUs             int     // total analytic units
	ScratchBytes    int64   // BRAM for thread scratchpads
	PageBufferBytes int64   // BRAM for page buffers
	BRAMBytes       int64   // total BRAM used
	Utilization     float64 // fraction of available AUs in use
}

// Params constrain the exploration.
type Params struct {
	PageSize  int
	MergeCoef int // maximum threads (merge coefficient)
	NumTuples int // training-set size used to score design points
}

const (
	// maxStriders caps Striders (config-FSM fanout limit).
	maxStriders = 32
	// maxPageBuffers caps resident pages.
	maxPageBuffers = 256
)

// withDefaults fills unset fields.
func (p Params) withDefaults() Params {
	if p.MergeCoef < 1 {
		p.MergeCoef = 1
	}
	if p.NumTuples < 1 {
		p.NumTuples = 1 << 16
	}
	return p
}

// maxParallelism returns the widest slot any instruction writes — the
// useful lane count of one thread.
func maxParallelism(prog *engine.Program) int {
	m := 1
	scan := func(list []engine.Instr) {
		for _, in := range list {
			if in.Dst.Len > m {
				m = in.Dst.Len
			}
			if t := in.Dst.Len * in.GroupSize; in.Kind == engine.KReduce && t > m {
				m = t
			}
		}
	}
	scan(prog.PerTuple)
	scan(prog.PostMerge)
	scan(prog.RowUpdates)
	scan(prog.Convergence)
	return m
}

// Generate runs the design-space exploration and returns the chosen
// design (paper: "the smallest and best-performing design point").
func Generate(prog *engine.Program, fpga FPGA, params Params) (Design, error) {
	params = params.withDefaults()
	maxAUs := fpga.MaxAUsAvailable()
	maxACs := maxAUs / engine.DefaultAUsPerAC
	if maxACs < 1 {
		return Design{}, fmt.Errorf("hwgen: %s cannot fit a single analytic cluster", fpga.Name)
	}
	// A thread profits from at most ceil(maxParallelism/8) ACs.
	usefulACs := (maxParallelism(prog) + engine.DefaultAUsPerAC - 1) / engine.DefaultAUsPerAC
	if usefulACs < 1 {
		usefulACs = 1
	}
	if usefulACs > maxACs {
		usefulACs = maxACs
	}

	scratchPerThread := int64(prog.Slots) * 4
	var best *Design
	var bestCycles int64
	for acs := 1; acs <= usefulACs; acs++ {
		threads := maxACs / acs
		if threads > params.MergeCoef {
			threads = params.MergeCoef
		}
		if threads < 1 {
			continue
		}
		if len(prog.RowUpdates) > 0 && !prog.HasMerge() {
			threads = 1 // sparse row updates run single-threaded
		}
		cfg := engine.Config{
			Threads:      threads,
			ACsPerThread: acs,
			AUsPerAC:     engine.DefaultAUsPerAC,
		}
		scratch := scratchPerThread * int64(threads)
		if scratch > fpga.BRAMBytes {
			continue // model/data do not fit
		}
		remaining := fpga.BRAMBytes - scratch
		buffers := int(remaining / int64(params.PageSize))
		buffers = min(buffers, maxPageBuffers)
		if buffers < 1 {
			continue
		}
		striders := min(buffers, maxStriders)
		// Control-store constraint: the per-AC selective-SIMD program
		// must fit the instruction buffers.
		ms := engine.Expand(prog, cfg)
		if ms.PerTupleMicroOps+ms.PostMergeMicroOps+ms.ConvMicroOps > InstrBufferDepth*cfg.ACsPerThread {
			continue
		}
		cycles := prog.Estimate(cfg).EpochCycles(params.NumTuples, params.MergeCoef, threads)
		d := Design{
			FPGA:            fpga,
			Engine:          cfg,
			NumStriders:     striders,
			PageBuffers:     buffers,
			AUs:             cfg.TotalAUs(),
			ScratchBytes:    scratch,
			PageBufferBytes: int64(buffers) * int64(params.PageSize),
			Utilization:     float64(cfg.TotalAUs()) / float64(maxAUs),
		}
		d.BRAMBytes = d.ScratchBytes + d.PageBufferBytes
		if best == nil || cycles < bestCycles ||
			(cycles == bestCycles && d.AUs < best.AUs) {
			bd := d
			best = &bd
			bestCycles = cycles
		}
	}
	if best == nil {
		return Design{}, fmt.Errorf("hwgen: no feasible design: program needs %d B of scratchpad per thread, FPGA has %d B BRAM",
			scratchPerThread, fpga.BRAMBytes)
	}
	return *best, nil
}

// TablaDesign returns the TABLA-baseline instantiation (Figure 16):
// single-threaded acceleration with the same per-thread resources but no
// Strider overlap and no multi-threading. When the explorer cannot place
// the program on one thread, the baseline is one thread of the DAnA
// engine configuration dana, and only the design's FPGA and Engine are
// set.
func TablaDesign(prog *engine.Program, fpga FPGA, params Params, dana engine.Config) Design {
	params = params.withDefaults()
	params.MergeCoef = 1
	d, err := Generate(prog, fpga, params)
	if err != nil {
		dana.Threads = 1
		d = Design{FPGA: fpga, Engine: dana}
	}
	d.NumStriders = 0 // CPU-side data handoff
	return d
}

// String renders a human-readable summary of the design.
func (d Design) String() string {
	return fmt.Sprintf("%s: %d threads x %d ACs (%d AUs, %.0f%% util), %d striders, %d page buffers, %.1f MB BRAM",
		d.FPGA.Name, d.Engine.Threads, d.Engine.ACsPerThread, d.AUs, 100*d.Utilization,
		d.NumStriders, d.PageBuffers, float64(d.BRAMBytes)/(1<<20))
}
