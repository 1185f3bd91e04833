package lint

// All returns the danalint analyzer suite in its canonical order. Each
// encodes a repo invariant first discovered (expensively) at runtime and
// is kept by a planted mutation only it catches (mutation_test.go,
// interproc_test.go; roster in DESIGN.md "Static analysis"). The final
// two are interprocedural: they consume the module-wide call graph and
// summaries on Pass.Mod.
func All() []*Analyzer {
	return []*Analyzer{
		PinBalance,
		Determinism,
		ObsGuard,
		FaultErrors,
		HotCall,
		LockOrder,
	}
}

// ByName resolves analyzer names (comma-separated lists in the driver).
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
