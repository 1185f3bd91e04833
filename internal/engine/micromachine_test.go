package engine

import (
	"fmt"
	"math"
)

// MicroMachine executes a lowered program on one thread, used to
// validate the lowering against the macro Machine.
type MicroMachine struct {
	MP      *MicroProgram
	scratch []float32
	bus     float32
}

// NewMicroMachine instantiates the micro-level simulator.
func NewMicroMachine(mp *MicroProgram) *MicroMachine {
	m := &MicroMachine{MP: mp, scratch: make([]float32, mp.Slots)}
	p := mp.Prog
	copy(m.scratch[p.ConstSlot.Base:p.ConstSlot.Base+p.ConstSlot.Len], p.Consts)
	return m
}

// wordOf maps (ac, au, local) back to a flat scratch word.
func (m *MicroMachine) wordOf(ac, au, local int) int {
	return local*m.MP.Cfg.Lanes() + ac*m.MP.Cfg.AUsPerAC + au
}

// SetModel loads model parameters.
func (m *MicroMachine) SetModel(vals []float32) error {
	s := m.MP.Prog.ModelSlot
	if len(vals) != s.Len {
		return fmt.Errorf("engine: model has %d parameters, got %d", s.Len, len(vals))
	}
	copy(m.scratch[s.Base:s.Base+s.Len], vals)
	return nil
}

// Model returns a copy of the model parameters.
func (m *MicroMachine) Model() []float32 {
	s := m.MP.Prog.ModelSlot
	out := make([]float32, s.Len)
	copy(out, m.scratch[s.Base:s.Base+s.Len])
	return out
}

// LoadTuple places a tuple into the input region.
func (m *MicroMachine) LoadTuple(tuple []float32) error {
	s := m.MP.Prog.InputSlot
	if len(tuple) != s.Len {
		return fmt.Errorf("engine: tuple width %d, input region %d", len(tuple), s.Len)
	}
	copy(m.scratch[s.Base:s.Base+s.Len], tuple)
	return nil
}

func (m *MicroMachine) resolve(r MicroRef, ac, au int) float32 {
	switch r.Kind {
	case MRLocal:
		return m.scratch[m.wordOf(ac, au, r.Local)]
	case MRBus:
		return m.bus
	case MRImm:
		return r.Imm
	default:
		return 0
	}
}

// Exec runs one micro-instruction list.
func (m *MicroMachine) Exec(list []MicroInstr) error {
	p := m.MP.Prog
	for _, mi := range list {
		switch mi.Kind {
		case MBusLoad:
			m.bus = m.scratch[m.wordOf(mi.SrcAC, mi.SrcAU, mi.SrcLocal)]
		case MCompute:
			for au := 0; au < m.MP.Cfg.AUsPerAC; au++ {
				if mi.Mask&(1<<au) == 0 {
					continue
				}
				a := m.resolve(mi.A, mi.AC, au)
				var b float32
				if !mi.Op.IsUnary() {
					b = m.resolve(mi.B, mi.AC, au)
				}
				m.scratch[m.wordOf(mi.AC, au, mi.Dst)] = alu(mi.Op, a, b)
			}
		case MGather:
			in := mi.Macro
			idx := int(math.Round(float64(m.scratch[in.A.Base])))
			rows := p.ModelSlot.Len / in.RowLen
			if idx < 0 || idx >= rows {
				return fmt.Errorf("engine: micro gather row %d outside model of %d rows", idx, rows)
			}
			src := p.ModelSlot.Base + idx*in.RowLen
			copy(m.scratch[in.Dst.Base:in.Dst.Base+in.RowLen], m.scratch[src:src+in.RowLen])
		case MScatter:
			in := mi.Macro
			idx := int(math.Round(float64(m.scratch[in.B.Base])))
			rows := p.ModelSlot.Len / in.RowLen
			if idx < 0 || idx >= rows {
				return fmt.Errorf("engine: micro scatter row %d outside model of %d rows", idx, rows)
			}
			dst := p.ModelSlot.Base + idx*in.RowLen
			copy(m.scratch[dst:dst+in.RowLen], m.scratch[in.A.Base:in.A.Base+in.RowLen])
		default:
			return fmt.Errorf("engine: invalid micro kind %d", mi.Kind)
		}
	}
	return nil
}

// RunTuple executes the per-tuple stage (plus row updates and, when no
// merge exists, the model write-back) for one tuple — the
// single-threaded SGD path mirroring Machine.RunBatch.
func (m *MicroMachine) RunTuple(tuple []float32) error {
	p := m.MP.Prog
	if err := m.LoadTuple(tuple); err != nil {
		return err
	}
	if err := m.Exec(m.MP.PerTuple); err != nil {
		return err
	}
	if err := m.Exec(m.MP.RowUpdates); err != nil {
		return err
	}
	if p.HasMerge() {
		// Single-thread merge batch of one: the merged value is the
		// per-tuple value itself.
		copy(m.scratch[p.MergeDst.Base:p.MergeDst.Base+p.MergeDst.Len],
			m.scratch[p.MergeSrc.Base:p.MergeSrc.Base+p.MergeSrc.Len])
		if err := m.Exec(m.MP.PostMerge); err != nil {
			return err
		}
	}
	if p.UpdatedSlot.Len > 0 {
		copy(m.scratch[p.ModelSlot.Base:p.ModelSlot.Base+p.ModelSlot.Len],
			m.scratch[p.UpdatedSlot.Base:p.UpdatedSlot.Base+p.UpdatedSlot.Len])
	}
	return nil
}
