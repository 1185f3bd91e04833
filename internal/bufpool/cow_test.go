package bufpool

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"dana/internal/storage"
)

// TestPinnedPageKeepsItsBytes: a frame is the heap's page image, so a
// page pinned before an Insert onto it, or before a Delete of one of its
// tuples, must keep every byte its holder read — the mutation lands in a
// clone. A pin after the holder lets go reads the new image, stamped.
func TestPinnedPageKeepsItsBytes(t *testing.T) {
	perPage := storage.NewRelation("t", storage.NumericSchema(9), storage.PageSize8K).TuplesPerPage()
	for _, leg := range []struct {
		name   string
		page   uint32
		mutate func(r *storage.Relation) error
		// changed reports whether after is the mutated image of before.
		changed func(before, after storage.Page) bool
	}{
		{
			name: "insert", page: 1,
			mutate: func(r *storage.Relation) error { _, err := r.Insert(make([]float64, 10)); return err },
			changed: func(before, after storage.Page) bool {
				return after.NumItems() == before.NumItems()+1
			},
		},
		{
			name: "delete", page: 0,
			mutate: func(r *storage.Relation) error { return r.Delete(storage.TID{Page: 0, Item: 3}) },
			changed: func(before, after storage.Page) bool {
				id, err := after.ItemID(3)
				return err == nil && id.Flags == storage.LPDead && after.NumItems() == before.NumItems()
			},
		},
	} {
		t.Run(leg.name, func(t *testing.T) {
			r := testRelation(t, "t", perPage+25) // two pages, the second part full
			p := newPool(t, 4, r)
			held, err := p.Pin("t", leg.page)
			if err != nil {
				t.Fatal(err)
			}
			before := storage.Page(bytes.Clone(held))
			if err := leg.mutate(r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(held, before) {
				t.Errorf("page %d changed under its holder", leg.page)
			}
			if err := p.Unpin("t", leg.page); err != nil {
				t.Fatal(err)
			}
			after, err := p.Pin("t", leg.page)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Unpin("t", leg.page)
			if !leg.changed(before, after) {
				t.Errorf("a pin after the %s read page %d without it (%d items, %d before)", leg.name, leg.page, after.NumItems(), before.NumItems())
			}
			if !after.ChecksumOK() {
				t.Errorf("page %d after the %s fails its checksum", leg.page, leg.name)
			}
		})
	}
}

// TestMetaNonCloningWritableCaught plants a writableLocked that mutates a
// handed-out page in place — internal/storage/relation.go rebuilt through
// a build overlay, its clone replaced by the page itself — and requires
// both legs of TestPinnedPageKeepsItsBytes to fail against it.
func TestMetaNonCloningWritableCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("builds this package's tests again against a planted storage package")
	}
	src, err := filepath.Abs(filepath.Join("..", "storage", "relation.go"))
	if err != nil {
		t.Fatal(err)
	}
	code, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	const clone = "slices.Clone(r.pages[i])"
	if n := bytes.Count(code, []byte(clone)); n != 1 {
		t.Fatalf("relation.go holds %q %d times, want once: the planted fault needs updating", clone, n)
	}
	dir := t.TempDir()
	planted := filepath.Join(dir, "relation.go")
	if err := os.WriteFile(planted, bytes.Replace(code, []byte(clone), []byte("slices.Clip(r.pages[i])"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {src: planted}})
	if err != nil {
		t.Fatal(err)
	}
	ovPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ovPath, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "test", "-overlay", ovPath, "-count=1", "-v",
		"-run", "^TestPinnedPageKeepsItsBytes$", ".").CombinedOutput()
	if err == nil {
		t.Fatalf("TestPinnedPageKeepsItsBytes passed against a writableLocked that does not clone:\n%s", out)
	}
	for _, leg := range []string{"insert", "delete"} {
		if !bytes.Contains(out, []byte("--- FAIL: TestPinnedPageKeepsItsBytes/"+leg)) {
			t.Errorf("the %s leg did not fail against the planted fault", leg)
		}
	}
	if !bytes.Contains(out, []byte("changed under its holder")) {
		t.Errorf("the planted fault failed for another reason:\n%s", out)
	}
}
