package backend

// HoldsReweaver reports whether an accelerator's weave stage still keeps
// the reweaver its epochs without a holder weave through.
func HoldsReweaver(b *Accel) bool { return b.weave.rw != nil }
