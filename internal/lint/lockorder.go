package lint

// lockorder keeps the module's mutexes in one consistent acquisition
// order. The module lock-order graph — intra-function acquisitions plus
// locks-held-at-call-site × callee transitive lock sets (summary.go) —
// must be acyclic. A cycle, including the self-loop of re-acquiring a
// lock already held (lock identity is normalized per type and field), is
// reported at every participating edge in the package that owns it.
//
// It is the one concurrency check nothing else makes: an inversion that
// no test interleaves into a deadlock passes every test, -race included
// (a race detector sees data races, not lock order).

import "fmt"

// LockOrder reports inconsistent mutex acquisition order.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutexes must be acquired in a consistent module-wide order (no cycle in the lock-order graph)",
	Run:  runLockOrder,
}

// runLockOrder reports lock-order-graph cycles at every participating
// edge whose acquisition site is in the current package.
func runLockOrder(pass *Pass) error {
	m := pass.Mod
	if len(m.LockEdges) == 0 {
		return nil
	}
	adj := map[string]map[string]bool{}
	for _, e := range m.LockEdges {
		if adj[e.From] == nil {
			adj[e.From] = map[string]bool{}
		}
		adj[e.From][e.To] = true
	}
	reachMemo := map[string]map[string]bool{}
	var reaches func(from, to string, seen map[string]bool) bool
	reaches = func(from, to string, seen map[string]bool) bool {
		if from == to {
			return true
		}
		if seen[from] {
			return false
		}
		seen[from] = true
		for _, next := range sortedKeys(adj[from]) {
			if reaches(next, to, seen) {
				return true
			}
		}
		return false
	}
	reach := func(from, to string) bool {
		if byTo, ok := reachMemo[from]; ok {
			if v, ok := byTo[to]; ok {
				return v
			}
		} else {
			reachMemo[from] = map[string]bool{}
		}
		v := reaches(from, to, map[string]bool{})
		reachMemo[from][to] = v
		return v
	}
	reported := map[string]bool{}
	for _, e := range m.LockEdges {
		fi, ok := m.Funcs[e.Fn]
		if !ok || fi.Pkg != pass.Unit {
			continue
		}
		key := e.From + "\x00" + e.To + "\x00" + fmt.Sprint(e.Pos)
		if reported[key] {
			continue
		}
		if e.From == e.To {
			reported[key] = true
			pass.Reportf(e.Pos, "lock %s acquired while already held (self-cycle in the lock-order graph)", e.To)
			continue
		}
		if reach(e.To, e.From) {
			reported[key] = true
			pass.Reportf(e.Pos, "lock %s acquired while holding %s, but the module lock-order graph also orders %s before %s: inconsistent lock order (deadlock hazard)",
				e.To, e.From, e.To, e.From)
		}
	}
	return nil
}
