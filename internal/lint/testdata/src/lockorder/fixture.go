// Package lockorder exercises the lockorder analyzer: the module
// lock-order graph must stay acyclic, self-loops (re-acquiring a held
// lock) included.
package lockorder

import "sync"

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

func lockAB(p *pair) {
	p.a.Lock()
	p.b.Lock() // want `lock lockorder.pair.b acquired while holding lockorder.pair.a`
	p.b.Unlock()
	p.a.Unlock()
}

func lockBA(p *pair) {
	p.b.Lock()
	p.a.Lock() // want `lock lockorder.pair.a acquired while holding lockorder.pair.b`
	p.a.Unlock()
	p.b.Unlock()
}

type ordered struct {
	outer sync.Mutex
	inner sync.Mutex
}

func lockOrdered1(o *ordered) {
	o.outer.Lock()
	o.inner.Lock()
	o.inner.Unlock()
	o.outer.Unlock()
}

func lockOrdered2(o *ordered) {
	o.outer.Lock()
	defer o.outer.Unlock()
	o.inner.Lock()
	defer o.inner.Unlock()
}

func reLock(p *pair) {
	p.a.Lock()
	p.a.Lock() // want `lock lockorder.pair.a acquired while already held \(self-cycle`
	p.a.Unlock()
	p.a.Unlock()
}
