package dana

import "dana/internal/dsl"

// The DSL surface (paper §4): a Go builder plus a parser for the
// Python snippet syntax. Algo and Expr are the UDF under construction
// and its expression nodes.

// Algo is a learning-algorithm UDF: data declarations, update rule,
// merge function, and convergence criterion.
type Algo = dsl.Algo

// Expr is one node of the UDF's expression DAG.
type Expr = dsl.Expr

// NewAlgo starts a UDF definition with the builder API.
func NewAlgo(name string) *Algo { return dsl.NewAlgo(name) }

// ParseUDF parses the paper's Python-embedded DSL, e.g.:
//
//	mo  = dana.model([10])
//	in  = dana.input([10])
//	out = dana.output()
//	lr  = dana.meta(0.3)
//	linearR = dana.algo(mo, in, out)
//	s    = sigma(mo * in, 1)
//	er   = s - out
//	grad = er * in
//	mo_up = mo - lr * grad
//	linearR.setModel(mo_up)
//	linearR.setEpochs(100)
func ParseUDF(src string) (*Algo, error) { return dsl.Parse(src) }

// RenderUDF prints an Algo back as DSL source (the inverse of ParseUDF);
// the output re-parses to an equivalent UDF.
func RenderUDF(a *Algo) string { return dsl.Render(a) }

// Mathematical operations (paper Table 1).
var (
	// Add returns a + b (elementwise, with broadcasting).
	Add = dsl.Add
	// Sub returns a - b.
	Sub = dsl.Sub
	// Mul returns a * b.
	Mul = dsl.Mul
	// Div returns a / b.
	Div = dsl.Div
	// Lt returns 1.0 where a < b, else 0.0.
	Lt = dsl.Lt
	// Gt returns 1.0 where a > b, else 0.0.
	Gt = dsl.Gt
	// Sigmoid returns 1/(1+exp(-a)).
	Sigmoid = dsl.Sigmoid
	// Gaussian returns exp(-a*a).
	Gaussian = dsl.Gaussian
	// Sqrt returns the elementwise square root.
	Sqrt = dsl.Sqrt
	// Sigma sums along a 1-based axis.
	Sigma = dsl.Sigma
	// Pi multiplies along a 1-based axis.
	Pi = dsl.Pi
	// Norm is the Euclidean norm along a 1-based axis.
	Norm = dsl.Norm
	// Gather selects a row of a 2-D model by a scalar index.
	Gather = dsl.Gather
)
