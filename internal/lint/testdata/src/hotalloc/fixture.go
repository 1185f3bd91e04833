// Package fixture exercises hotcall at depth 0: the body of a function
// marked //dana:hotpath must not heap-allocate, while unmarked functions
// and the capacity-backed reuse idioms stay silent. (Allocations behind
// a call are the hotcall fixture's half.)
package fixture

import "fmt"

type result struct {
	rows [][]float32
	data []float32
	name string
}

type runner struct {
	buf    []float32
	shared result
}

// coldSetup is unmarked: allocation is fine here.
func coldSetup(n int) *runner {
	return &runner{buf: make([]float32, 0, n)}
}

//dana:hotpath
func (r *runner) extract(n int) *result {
	tmp := make([]float32, n) // want `make in hot path extract`
	res := new(result)        // want `new in hot path extract`
	other := &result{}        // want `&composite literal in hot path extract`
	_ = []int{n}              // want `slice literal in hot path extract`
	_ = map[int]bool{n: true} // want `map literal in hot path extract`
	_ = other
	res.data = tmp
	return res
}

//dana:hotpath
func (r *runner) churn(rows [][]float32, id int) error {
	for _, row := range rows {
		r.buf = append(r.shared.data, row...) // want `append to a different slice in hot path churn`
	}
	r.shared.name = "page" + fmt.Sprint(id) // want `string concatenation in hot path churn` // want `hotpath churn calls fmt.Sprint: not allowlisted`
	payload := []byte(r.shared.name)        // want `string conversion in hot path churn`
	go func() {                             // want `go statement in hot path churn` // want `func literal in hot path churn`
		_ = payload
	}()
	return nil
}

// clean shows every exemption at once: self-appends (plain and
// resliced), value struct literals, deferred closures, a call that
// allocates only on an early-exit error path, and an audited
// suppression.
//
//dana:hotpath
func (r *runner) clean(rows [][]float32) (err error) {
	defer func() { r.shared.name = "" }()
	if len(rows) == 0 {
		return fmt.Errorf("clean: no rows for %s", r.shared.name)
	}
	r.buf = append(r.buf[:0], 1.0)
	for _, row := range rows {
		r.buf = append(r.buf, row...)
	}
	r.shared = result{data: r.buf}
	if cap(r.buf) < len(rows) {
		//danalint:ignore hotcall -- capacity-guarded growth, reused afterwards
		r.buf = make([]float32, 0, len(rows))
	}
	return nil
}
