package engine

// PlantStepFault swaps the operands of the step kernel's subtraction —
// dst = s1·(s2·b) − a where the instruction it stands for computes
// a − s1·(s2·b) — in every machine lowered until undo runs. It is a plan
// fault the reference executor does not share: package engine_test's
// meta-test holds that both links of the training chain catch it.
func PlantStepFault() (undo func()) {
	kernels[opStep] = func(o *op, f *frame) error {
		dst := o.dest(f)
		a, b := o.a.view(f)[:len(dst)], o.b.view(f)[:len(dst)]
		s1, s2 := o.s1.at(f), o.s2.at(f)
		for i := range dst {
			dst[i] = float32(s1*float32(s2*b[i])) - a[i]
		}
		return nil
	}
	return func() { kernels[opStep] = kStep }
}

// OpKindNames are the names PlanListing gives the plan's op kinds, in
// kind order.
func OpKindNames() []string { return opKindNames[:] }
