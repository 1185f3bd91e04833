// Package datagen defines the paper's 14 evaluation workloads (Table 3)
// and generates synthetic training relations with the same model
// topologies and tuple counts. The UCI/Netflix raw data is not
// redistributable, so feature values are synthetic draws whose labels
// come from a hidden ground-truth model — preserving tuple counts, page
// counts, widths, and convergence behaviour class (see DESIGN.md).
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"dana/internal/algos"
	"dana/internal/dsl"
	"dana/internal/ml"
	"dana/internal/storage"
)

// Workload is one Table 3 row.
type Workload struct {
	Name     string
	Kind     algos.Kind
	Topology []int  // [features] or [users, items, rank]
	Tuples   int    // training tuples (reconstructed from pages where the table is ambiguous)
	Class    string // "real", "S/N", or "S/E"

	// Paper-reported storage footprint (32 KB pages).
	PaperPages32K int
	PaperSizeMB   int

	// Hyper-parameters used across all systems.
	LR     float64
	Lambda float64
	// Epochs is the epoch budget used for end-to-end runtime modeling
	// (all systems run the same epochs, as in the paper's comparisons).
	Epochs int
	// DAnAEpochs, when > 0, is the earlier convergence point of the
	// accelerated runs (the merged-gradient convergence check fires
	// sooner; see EXPERIMENTS.md).
	DAnAEpochs int
}

// TableName returns the SQL table name for the workload.
func (w Workload) TableName() string {
	return strings.ToLower(strings.NewReplacer(" ", "_", "/", "_", "\\", "_").Replace(w.Name))
}

// Schema returns the training-table schema.
func (w Workload) Schema() *storage.Schema {
	if w.Kind == algos.KindLRMF {
		return storage.RatingSchema()
	}
	return storage.NumericSchema(w.Topology[0])
}

// ModelSize returns the scalar parameter count.
func (w Workload) ModelSize() int {
	if w.Kind == algos.KindLRMF {
		return (w.Topology[0] + w.Topology[1]) * w.Topology[2]
	}
	return w.Topology[0]
}

// TupleBytes returns the on-page footprint of one tuple (our layout).
func (w Workload) TupleBytes() int {
	data := w.Schema().DataWidth()
	aligned := (storage.TupleHeaderSize + data + storage.MaxAlign - 1) &^ (storage.MaxAlign - 1)
	return aligned + storage.ItemIDSize
}

// PagesAt returns how many pages of the given size the full dataset
// occupies under our layout.
func (w Workload) PagesAt(pageSize int) int {
	perPage := (pageSize - storage.PageHeaderSize) / w.TupleBytes()
	if perPage < 1 {
		perPage = 1
	}
	return (w.Tuples + perPage - 1) / perPage
}

// SizeMBAt returns the dataset size in MB at the given page size.
func (w Workload) SizeMBAt(pageSize int) float64 {
	return float64(w.PagesAt(pageSize)) * float64(pageSize) / (1 << 20)
}

// Hyper returns the workload's algos.Hyper with the given merge
// coefficient.
func (w Workload) Hyper(mergeCoef int) algos.Hyper {
	return algos.Hyper{LR: w.LR, Lambda: w.Lambda, MergeCoef: mergeCoef, Epochs: w.Epochs}
}

// Workloads is Table 3. Tuple counts for the LRMF rows are reconstructed
// from the reported page counts (the published table's tuple column
// repeats the topology there); everything else is verbatim.
var Workloads = []Workload{
	{Name: "Remote Sensing LR", Kind: algos.KindLogistic, Topology: []int{54}, Tuples: 581102, Class: "real",
		PaperPages32K: 4924, PaperSizeMB: 154, LR: 0.04, Epochs: 3},
	{Name: "WLAN", Kind: algos.KindLogistic, Topology: []int{520}, Tuples: 19937, Class: "real",
		PaperPages32K: 1330, PaperSizeMB: 42, LR: 0.004, Epochs: 50},
	{Name: "Remote Sensing SVM", Kind: algos.KindSVM, Topology: []int{54}, Tuples: 581102, Class: "real",
		PaperPages32K: 4924, PaperSizeMB: 154, LR: 0.01, Lambda: 0.01, Epochs: 2},
	{Name: "Netflix", Kind: algos.KindLRMF, Topology: []int{6040, 3952, 10}, Tuples: 2280000, Class: "real",
		PaperPages32K: 3068, PaperSizeMB: 96, LR: 0.05, Epochs: 25},
	{Name: "Patient", Kind: algos.KindLinear, Topology: []int{384}, Tuples: 53500, Class: "real",
		PaperPages32K: 1941, PaperSizeMB: 61, LR: 0.0013, Epochs: 5},
	{Name: "Blog Feedback", Kind: algos.KindLinear, Topology: []int{280}, Tuples: 52397, Class: "real",
		PaperPages32K: 2675, PaperSizeMB: 84, LR: 0.0018, Epochs: 4},

	{Name: "S/N Logistic", Kind: algos.KindLogistic, Topology: []int{2000}, Tuples: 387944, Class: "S/N",
		PaperPages32K: 96986, PaperSizeMB: 3031, LR: 0.001, Epochs: 165},
	{Name: "S/N SVM", Kind: algos.KindSVM, Topology: []int{1740}, Tuples: 678392, Class: "S/N",
		PaperPages32K: 169598, PaperSizeMB: 5300, LR: 0.0005, Lambda: 0.01, Epochs: 110},
	{Name: "S/N LRMF", Kind: algos.KindLRMF, Topology: []int{19880, 19880, 10}, Tuples: 37800000, Class: "S/N",
		PaperPages32K: 50784, PaperSizeMB: 1587, LR: 0.05, Epochs: 1},
	{Name: "S/N Linear", Kind: algos.KindLinear, Topology: []int{8000}, Tuples: 130503, Class: "S/N",
		PaperPages32K: 130503, PaperSizeMB: 4078, LR: 0.00006, Epochs: 66},

	{Name: "S/E Logistic", Kind: algos.KindLogistic, Topology: []int{6033}, Tuples: 1044024, Class: "S/E",
		PaperPages32K: 809339, PaperSizeMB: 25292, LR: 0.0003, Epochs: 1500, DAnAEpochs: 15},
	{Name: "S/E SVM", Kind: algos.KindSVM, Topology: []int{7129}, Tuples: 1356784, Class: "S/E",
		PaperPages32K: 1242871, PaperSizeMB: 38840, LR: 0.0002, Lambda: 0.01, Epochs: 1},
	{Name: "S/E LRMF", Kind: algos.KindLRMF, Topology: []int{28002, 45064, 10}, Tuples: 120600000, Class: "S/E",
		PaperPages32K: 162146, PaperSizeMB: 5067, LR: 0.05, Epochs: 25},
	{Name: "S/E Linear", Kind: algos.KindLinear, Topology: []int{8000}, Tuples: 1000000, Class: "S/E",
		PaperPages32K: 1027961, PaperSizeMB: 32124, LR: 0.00006, Epochs: 118, DAnAEpochs: 18},
}

// ByName looks up a workload.
func ByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if strings.EqualFold(w.Name, name) || strings.EqualFold(w.TableName(), name) {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("datagen: unknown workload %q", name)
}

// Real returns the publicly-available-dataset workloads.
func Real() []Workload { return byClass("real") }

// SyntheticNominal returns the S/N workloads.
func SyntheticNominal() []Workload { return byClass("S/N") }

// SyntheticExtensive returns the S/E workloads.
func SyntheticExtensive() []Workload { return byClass("S/E") }

func byClass(c string) []Workload {
	var out []Workload
	for _, w := range Workloads {
		if w.Class == c {
			out = append(out, w)
		}
	}
	return out
}

// Dataset is a generated training relation plus its effective topology
// (scaled down together with the tuple count for LRMF so indices stay
// in range).
type Dataset struct {
	Workload Workload
	Topology []int
	Tuples   int
	Rel      *storage.Relation
}

// Hyper mirrors Workload.Hyper but with the effective topology.
func (d *Dataset) Hyper(mergeCoef int) algos.Hyper { return d.Workload.Hyper(mergeCoef) }

// DSLAlgo builds the DSL program matching the dataset's effective
// topology and the given merge coefficient.
func (d *Dataset) DSLAlgo(mergeCoef int) (*dsl.Algo, error) {
	return algos.Build(d.Workload.Kind, d.Topology, d.Hyper(mergeCoef))
}

// ScaledTuples is the one tuple-scaling rule: how many tuples Generate
// emits for the workload at scale (never fewer than 64). Estimators that
// price a scaled run use it so they price the dataset the functional
// run will actually stream.
func (w Workload) ScaledTuples(scale float64) int {
	return max(int(math.Round(float64(w.Tuples)*scale)), 64)
}

// Generate builds a synthetic training relation for the workload at the
// given scale (0 < scale <= 1 of the full tuple count). Deterministic in
// seed.
func Generate(w Workload, scale float64, pageSize int, seed int64) (*Dataset, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("datagen: scale %v out of (0, 1]", scale)
	}
	n := w.ScaledTuples(scale)
	topo := append([]int(nil), w.Topology...)
	if w.Kind == algos.KindLRMF && scale < 1 {
		for i := 0; i < 2; i++ {
			topo[i] = int(math.Round(float64(topo[i]) * scale))
			if topo[i] < 16 {
				topo[i] = 16
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rel := storage.NewRelation(w.TableName(), w.Schema(), pageSize)
	rows := make([][]float64, 0, n)
	switch w.Kind {
	case algos.KindLRMF:
		users, items, rank := topo[0], topo[1], topo[2]
		truthU := randMatrix(rng, users, rank, 0.5)
		truthV := randMatrix(rng, items, rank, 0.5)
		for i := 0; i < n; i++ {
			u := rng.Intn(users)
			v := rng.Intn(items)
			r := dotRows(truthU, truthV, u, v, rank) + 0.05*rng.NormFloat64()
			rows = append(rows, []float64{float64(u), float64(users + v), float64(float32(r))})
		}
	default:
		nf := topo[0]
		truth := make([]float64, nf)
		for i := range truth {
			truth[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			x := make([]float64, nf+1)
			s := 0.0
			for j := 0; j < nf; j++ {
				x[j] = float64(float32(rng.NormFloat64()))
				s += truth[j] * x[j]
			}
			s /= math.Sqrt(float64(nf)) // keep activations O(1) at any width
			switch w.Kind {
			case algos.KindLinear:
				x[nf] = float64(float32(s + 0.05*rng.NormFloat64()))
			case algos.KindLogistic:
				if ml.Sigmoid(s)+0.05*rng.NormFloat64() > 0.5 {
					x[nf] = 1
				}
			case algos.KindSVM:
				if s+0.05*rng.NormFloat64() >= 0 {
					x[nf] = 1
				} else {
					x[nf] = -1
				}
			}
			rows = append(rows, x)
		}
	}
	if err := rel.InsertBatch(rows); err != nil {
		return nil, err
	}
	return &Dataset{Workload: w, Topology: topo, Tuples: n, Rel: rel}, nil
}

func randMatrix(rng *rand.Rand, rows, cols int, scale float64) []float64 {
	m := make([]float64, rows*cols)
	for i := range m {
		m[i] = scale * rng.Float64()
	}
	return m
}

func dotRows(u, v []float64, ui, vi, rank int) float64 {
	s := 0.0
	for k := 0; k < rank; k++ {
		s += u[ui*rank+k] * v[vi*rank+k]
	}
	return s
}

// MLAlgorithm returns the reference implementation matching the
// dataset's effective topology.
func (d *Dataset) MLAlgorithm() ml.Algorithm {
	w := d.Workload
	switch w.Kind {
	case algos.KindLinear:
		return ml.Linear{NFeatures: d.Topology[0], LR: w.LR}
	case algos.KindLogistic:
		return ml.Logistic{NFeatures: d.Topology[0], LR: w.LR}
	case algos.KindSVM:
		return ml.SVM{NFeatures: d.Topology[0], LR: w.LR, Lambda: w.Lambda}
	case algos.KindLRMF:
		return ml.LRMF{Users: d.Topology[0], Items: d.Topology[1], Rank: d.Topology[2], LR: w.LR}
	default:
		return nil
	}
}
