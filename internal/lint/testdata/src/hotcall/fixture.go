// Package fixture exercises hotcall below depth 0: a //dana:hotpath
// function may only call callees whose summaries prove transitive
// allocation-freedom. The interesting cases are allocations hidden
// behind one or two call hops, cold (early-exit) callees, interface
// fan-out, the stdlib allowlist, and audited suppressions at both the
// call site and the allocation site.
package fixture

import (
	"errors"
	"strconv"
	"time"
)

var errBad = errors.New("bad input")

// leafAlloc allocates directly.
func leafAlloc(n int) []int {
	return make([]int, n)
}

// mid hides the allocation one hop down.
func mid(n int) []int {
	return leafAlloc(n)
}

//dana:hotpath
func hotThroughChain(n int) {
	_ = mid(n) // want `hotpath hotThroughChain calls hotcall.mid, which allocates: hotcall.leafAlloc`
}

func leafClean(x int) int { return x * 2 }

//dana:hotpath
func hotClean(n int) int {
	return leafClean(n)
}

// coldAllocOnly allocates only on its early-exit error path, so its
// steady state is allocation-free.
func coldAllocOnly(n int) error {
	if n < 0 {
		pad := make([]int, 8)
		_ = pad
		return errBad
	}
	return nil
}

//dana:hotpath
func hotColdCallee(n int) error {
	return coldAllocOnly(n)
}

type sink interface {
	consume(n int)
}

type allocSink struct{ buf []int }

func (s *allocSink) consume(n int) { s.buf = make([]int, n) }

type cleanSink struct{ total int }

func (c *cleanSink) consume(n int) { c.total += n }

//dana:hotpath
func hotDynamic(s sink, n int) {
	s.consume(n) // want `hotpath hotDynamic may call \(interface dispatch\) .*allocSink.*consume, which allocates`
}

//dana:hotpath
func hotStdlibAllowed() int64 {
	t := time.Now()
	return time.Since(t).Nanoseconds()
}

//dana:hotpath
func hotStdlibUnlisted(x float64) string {
	return strconv.FormatFloat(x, 'f', -1, 64) // want `hotpath hotStdlibUnlisted calls strconv.FormatFloat: not allowlisted as allocation-free`
}

//dana:hotpath
func hotAuditedCallSite(n int) {
	//danalint:ignore hotcall -- fixture: amortized growth audited
	_ = mid(n)
}

// auditedLeaf's allocation carries an audited suppression, so it does
// not propagate into callers' summaries.
func auditedLeaf(n int) []int {
	//danalint:ignore hotcall -- fixture: pool fallback, audited
	return make([]int, n)
}

//dana:hotpath
func hotAuditedLeaf(n int) {
	_ = auditedLeaf(n)
}
