//go:build go1.24

package backend

import (
	"runtime"
	"testing"
	"weak"
)

// TestCloseLeavesNoRowsViewed: after a Precision-8 run — three epochs of
// held rows, as a Train's record-cache replays deliver them — Close
// leaves the backend holding nothing of the rows it decoded: the weave
// stage's decode slab, which the engine's kernel frames view until they
// are unbound, is collectable while the backend itself is kept alive.
func TestCloseLeavesNoRowsViewed(t *testing.T) {
	env := ConformanceEnv()
	sc := GenScenario(1) // logistic at merge coefficient 8: batches run four frames wide
	p, err := BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	p.Bits = 8
	be := NewWeaveAccel(env)
	if err := be.Configure(p); err != nil {
		t.Fatal(err)
	}
	st := &Stream{Rows32: sc.Rows32, Held: new(Held)}
	for e := 0; e < 3; e++ {
		if err := be.RunEpoch(st); err != nil {
			t.Fatal(err)
		}
	}
	rows := be.weave.rows
	if len(rows) == 0 {
		t.Fatal("the weave stage decoded no rows")
	}
	decoded := weak.Make(&rows[len(rows)-1][0])
	rows = nil
	be.Close()
	runtime.GC()
	if decoded.Value() != nil {
		t.Error("the decoded rows outlive Close")
	}
	runtime.KeepAlive(be)
	runtime.KeepAlive(st)
}
