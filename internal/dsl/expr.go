// Package dsl implements DAnA's Python-embedded domain-specific language
// (paper §4) in two forms: a Go builder API, and a parser accepting the
// paper's exact Python snippet syntax (dsl.Parse).
//
// A UDF is an Algo holding three functions expressed over expressions:
// the update rule (terminating in SetModel), the merge function, and the
// convergence criterion (SetConvergence / SetEpochs).
package dsl

import (
	"fmt"
	"strings"
)

// Kind classifies data declarations (paper Table 1, "Data Types").
type Kind uint8

const (
	KInter  Kind = iota // untyped intermediate (inferred)
	KModel              // dana.model
	KInput              // dana.input
	KOutput             // dana.output
	KMeta               // dana.meta (compile-time constant)
)

func (k Kind) String() string {
	switch k {
	case KModel:
		return "model"
	case KInput:
		return "input"
	case KOutput:
		return "output"
	case KMeta:
		return "meta"
	default:
		return "inter"
	}
}

// Op enumerates the DSL's operations (paper Table 1).
type Op uint8

const (
	OpLeaf Op = iota // a data declaration, not an operation

	// Primary operations.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpLt // a < b  -> 1.0 or 0.0
	OpGt // a > b  -> 1.0 or 0.0

	// Non-linear operations.
	OpSigmoid
	OpGaussian
	OpSqrt

	// Group operations (reduce along an axis).
	OpSigma // summation
	OpPi    // product
	OpNorm  // Euclidean norm

	// Built-in special functions.
	OpMerge // combine per-thread instances (paper merge(x, k, "op"))

	// Extension (documented in DESIGN.md): row gather from a
	// multi-dimensional model, used by LRMF.
	OpGather
)

var opNames = map[Op]string{
	OpLeaf: "leaf", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpLt: "<", OpGt: ">", OpSigmoid: "sigmoid", OpGaussian: "gaussian",
	OpSqrt: "sqrt", OpSigma: "sigma", OpPi: "pi", OpNorm: "norm",
	OpMerge: "merge", OpGather: "gather",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsGroup reports whether the op reduces along an axis.
func (o Op) IsGroup() bool { return o == OpSigma || o == OpPi || o == OpNorm }

// IsNonLinear reports whether the op is a unary non-linear function.
func (o Op) IsNonLinear() bool { return o == OpSigmoid || o == OpGaussian || o == OpSqrt }

// IsBinary reports whether the op takes two operands elementwise.
func (o Op) IsBinary() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpLt, OpGt:
		return true
	}
	return false
}

// Expr is a node of the expression DAG. Exprs are created through an
// Algo (declarations) or the package-level operation constructors.
type Expr struct {
	ID   int    // unique within the Algo, assigned on registration
	Name string // declaration or assignment name, may be empty
	Op   Op
	Kind Kind    // meaningful when Op == OpLeaf
	Dims []int   // declared dims for leaves; nil => scalar
	Args []*Expr // operands

	Axis      int     // group ops: 1-based reduction axis (paper convention)
	MetaValue float64 // KMeta leaves
	MergeOp   Op      // OpMerge: combining operation (OpAdd, OpMul, ...)
	MergeCoef int     // OpMerge: merge coefficient (max thread count)

	algo *Algo
}

// String renders a compact form of the node.
func (e *Expr) String() string {
	switch {
	case e.Op == OpLeaf && e.Kind == KMeta:
		return fmt.Sprintf("%s=meta(%g)", e.Name, e.MetaValue)
	case e.Op == OpLeaf:
		return fmt.Sprintf("%s:%s%v", e.Name, e.Kind, e.Dims)
	case e.Op == OpMerge:
		return fmt.Sprintf("merge#%d(%s,%d,%q)", e.ID, argNames(e.Args), e.MergeCoef, e.MergeOp.String())
	case e.Op.IsGroup():
		return fmt.Sprintf("%s#%d(%s,axis=%d)", e.Op, e.ID, argNames(e.Args), e.Axis)
	default:
		return fmt.Sprintf("%s#%d(%s)", e.Op, e.ID, argNames(e.Args))
	}
}

func argNames(args []*Expr) string {
	parts := make([]string, len(args))
	for i, a := range args {
		if a.Name != "" {
			parts[i] = a.Name
		} else {
			parts[i] = fmt.Sprintf("#%d", a.ID)
		}
	}
	return strings.Join(parts, ",")
}

// --- Operation constructors -------------------------------------------------

func binop(op Op, a, b *Expr) *Expr {
	e := &Expr{Op: op, Args: []*Expr{a, b}}
	register(e, a, b)
	return e
}

func unop(op Op, a *Expr) *Expr {
	e := &Expr{Op: op, Args: []*Expr{a}}
	register(e, a)
	return e
}

func groupop(op Op, a *Expr, axis int) *Expr {
	e := &Expr{Op: op, Args: []*Expr{a}, Axis: axis}
	register(e, a)
	return e
}

// register attaches e to the algo of its operands and assigns an ID.
func register(e *Expr, args ...*Expr) {
	var al *Algo
	for _, a := range args {
		if a == nil {
			panic("dsl: nil operand")
		}
		if a.algo != nil {
			if al != nil && al != a.algo {
				panic(fmt.Sprintf("dsl: operands from different algos (%q, %q)", al.Name, a.algo.Name))
			}
			al = a.algo
		}
	}
	if al == nil {
		panic("dsl: operands belong to no algo; declare data via Algo first")
	}
	al.add(e)
}

// Add returns a + b.
func Add(a, b *Expr) *Expr { return binop(OpAdd, a, b) }

// Sub returns a - b.
func Sub(a, b *Expr) *Expr { return binop(OpSub, a, b) }

// Mul returns a * b.
func Mul(a, b *Expr) *Expr { return binop(OpMul, a, b) }

// Div returns a / b.
func Div(a, b *Expr) *Expr { return binop(OpDiv, a, b) }

// Lt returns 1.0 where a < b, else 0.0.
func Lt(a, b *Expr) *Expr { return binop(OpLt, a, b) }

// Gt returns 1.0 where a > b, else 0.0.
func Gt(a, b *Expr) *Expr { return binop(OpGt, a, b) }

// Sigmoid returns 1/(1+exp(-a)) elementwise.
func Sigmoid(a *Expr) *Expr { return unop(OpSigmoid, a) }

// Gaussian returns exp(-a²) elementwise.
func Gaussian(a *Expr) *Expr { return unop(OpGaussian, a) }

// Sqrt returns √a elementwise.
func Sqrt(a *Expr) *Expr { return unop(OpSqrt, a) }

// Sigma sums a along the (1-based) axis.
func Sigma(a *Expr, axis int) *Expr { return groupop(OpSigma, a, axis) }

// Pi multiplies a along the (1-based) axis.
func Pi(a *Expr, axis int) *Expr { return groupop(OpPi, a, axis) }

// Norm computes the Euclidean norm of a along the (1-based) axis.
func Norm(a *Expr, axis int) *Expr { return groupop(OpNorm, a, axis) }

// Gather selects row idx of a 2-D model (DESIGN.md extension for LRMF).
func Gather(model, idx *Expr) *Expr { return binop(OpGather, model, idx) }
