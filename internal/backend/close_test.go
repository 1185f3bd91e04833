//go:build go1.24

package backend_test

import (
	"runtime"
	"testing"
	"weak"

	"dana/internal/backend"
	"dana/internal/backend/backendtest"
)

// TestCloseLeavesNoRowsViewed: after a Precision-8 run — three epochs of
// held rows, as a Train's record-cache replays deliver them — Close
// leaves the backend holding nothing of the rows it trained on: the
// decoded rows, which the engine's kernel frames view until they are
// unbound, live in the holder alone, so they are collectable once the
// holder is dropped while the backend itself is kept alive.
func TestCloseLeavesNoRowsViewed(t *testing.T) {
	env := backendtest.Env()
	sc := backendtest.GenScenario(1) // logistic at merge coefficient 8: batches run four frames wide
	p, err := backendtest.BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	p.Bits = 8
	be := backend.NewWeaveAccel(env)
	if err := be.Configure(p); err != nil {
		t.Fatal(err)
	}
	st := &backend.Stream{Rows32: sc.Rows32, Held: new(backend.Held)}
	for e := 0; e < 3; e++ {
		if err := be.RunEpoch(st); err != nil {
			t.Fatal(err)
		}
	}
	wv := st.Held.Lookup(8, nil)
	if wv == nil || len(wv.Rows()) == 0 {
		t.Fatal("the weave stage published no decoded rows into the holder")
	}
	rows := wv.Rows()
	decoded := weak.Make(&rows[len(rows)-1][0])
	rows, wv = nil, nil
	be.Close()
	if backend.HoldsReweaver(be) {
		t.Error("Close kept the weave stage's reweaver")
	}
	st.Held = nil
	runtime.GC()
	if decoded.Value() != nil {
		t.Error("the decoded rows outlive Close and their holder")
	}
	runtime.KeepAlive(be)
	runtime.KeepAlive(st)
}
