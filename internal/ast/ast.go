// Package ast defines the abstract syntax of regular expressions as used in
// "Deterministic Regular Expressions in Linear Time" (Groz, Maneth, Staworko;
// PODS 2012), together with the grammar of two concrete syntaxes (the
// paper's mathematical notation and XML-DTD content-model notation), the
// normalizer that enforces the paper's structural requirements (R1)–(R3),
// and basic structural metrics (size, star-freeness, plus-alternation
// depth).
//
// Expressions come in two shapes. The grammar (AppendParse) emits flat
// postfix records (Rec), which AppendNormal brings into normal form in one
// linear pass and the compile pipeline (parsetree.Parse) turns into parse
// trees without building a node. ParseMath and ParseDTD build pointer
// trees (Node) from the same records; Normalize, DesugarPlus, Unroll and
// the metrics work on those, for generators, tests and the reference path
// that checks the flat one.
//
// The grammar (paper §2) is
//
//	e := a (a ∈ Σ) | (e)·(e) | (e)+(e) | (e)? | (e)*
//
// extended with numeric occurrence indicators e{i..j} (paper §3.3) which are
// handled by package numeric; the core algorithms operate on the plain
// operator set.
package ast

import (
	"fmt"
	"math"
)

// Kind identifies the operator at an AST node.
type Kind uint8

// Operator kinds. KSym is a leaf (a position, once compiled); KCat is
// concatenation, KUnion is union (written + in the paper), KOpt is ?,
// KStar is the Kleene star, and KIter is a numeric occurrence indicator
// e{Min..Max} (Max = Unbounded for ∞).
const (
	KSym Kind = iota
	KCat
	KUnion
	KOpt
	KStar
	KIter
)

// Unbounded is the Max value of a KIter node representing e{i..∞}.
const Unbounded = math.MaxInt32

func (k Kind) String() string {
	switch k {
	case KSym:
		return "sym"
	case KCat:
		return "cat"
	case KUnion:
		return "union"
	case KOpt:
		return "opt"
	case KStar:
		return "star"
	case KIter:
		return "iter"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Node is a node of the expression parse tree. Leaves (Kind KSym) carry the
// interned symbol; unary nodes (KOpt, KStar, KIter) use L only; binary nodes
// (KCat, KUnion) use both L and R. KIter additionally carries Min and Max.
type Node struct {
	Kind Kind
	Sym  Symbol // valid when Kind == KSym
	Min  int    // valid when Kind == KIter
	Max  int    // valid when Kind == KIter; Unbounded means ∞
	L, R *Node
}

// Sym returns a new symbol leaf.
func Sym(s Symbol) *Node { return &Node{Kind: KSym, Sym: s} }

// Cat returns the concatenation l·r.
func Cat(l, r *Node) *Node { return &Node{Kind: KCat, L: l, R: r} }

// Union returns the union l+r.
func Union(l, r *Node) *Node { return &Node{Kind: KUnion, L: l, R: r} }

// Opt returns e?.
func Opt(e *Node) *Node { return &Node{Kind: KOpt, L: e} }

// Star returns e*.
func Star(e *Node) *Node { return &Node{Kind: KStar, L: e} }

// Iter returns the numeric occurrence indicator e{min..max}.
func Iter(e *Node, min, max int) *Node {
	return &Node{Kind: KIter, Min: min, Max: max, L: e}
}

// CatAll concatenates the given expressions left-associatively.
// It panics on an empty argument list.
func CatAll(es ...*Node) *Node {
	if len(es) == 0 {
		panic("ast.CatAll: empty")
	}
	n := es[0]
	for _, e := range es[1:] {
		n = Cat(n, e)
	}
	return n
}

// UnionAll unions the given expressions left-associatively.
// It panics on an empty argument list.
func UnionAll(es ...*Node) *Node {
	if len(es) == 0 {
		panic("ast.UnionAll: empty")
	}
	n := es[0]
	for _, e := range es[1:] {
		n = Union(n, e)
	}
	return n
}

// Nullable reports whether ε ∈ L(e).
func Nullable(e *Node) bool {
	switch e.Kind {
	case KSym:
		return false
	case KCat:
		return Nullable(e.L) && Nullable(e.R)
	case KUnion:
		return Nullable(e.L) || Nullable(e.R)
	case KOpt, KStar:
		return true
	case KIter:
		return e.Min == 0 || Nullable(e.L)
	}
	panic("ast.Nullable: bad kind")
}

// Size returns the number of nodes of e.
func Size(e *Node) int {
	if e == nil {
		return 0
	}
	n := 1 + Size(e.L)
	if e.R != nil {
		n += Size(e.R)
	}
	return n
}

// CountPositions returns |Pos(e)|, the number of symbol leaves.
func CountPositions(e *Node) int {
	if e == nil {
		return 0
	}
	if e.Kind == KSym {
		return 1
	}
	return CountPositions(e.L) + CountPositions(e.R)
}

// HasStar reports whether e contains a Kleene star (or an unbounded or
// loopable numeric iteration, which behaves like one for matching purposes).
func HasStar(e *Node) bool {
	if e == nil {
		return false
	}
	if e.Kind == KStar || (e.Kind == KIter && e.Max > 1) {
		return true
	}
	return HasStar(e.L) || HasStar(e.R)
}

// HasIter reports whether e contains a numeric occurrence indicator.
func HasIter(e *Node) bool {
	if e == nil {
		return false
	}
	if e.Kind == KIter {
		return true
	}
	return HasIter(e.L) || HasIter(e.R)
}

// MaxOccurrence returns the largest number of occurrences of any single
// symbol in e, i.e. the smallest k such that e is a k-ORE.
func MaxOccurrence(e *Node) int {
	counts := map[Symbol]int{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.Kind == KSym {
			counts[n.Sym]++
			return
		}
		walk(n.L)
		walk(n.R)
	}
	walk(e)
	k := 0
	for _, c := range counts {
		if c > k {
			k = c
		}
	}
	return k
}

// AlternationDepth returns c_e, the maximal depth of alternating union and
// concatenation operators on any root-to-leaf path of e (paper §4.3). A
// union directly below a union (or a concatenation directly below a
// concatenation) does not increase the depth; ?, * and {i..j} are
// transparent.
func AlternationDepth(e *Node) int {
	var rec func(n *Node, last Kind, d int) int
	rec = func(n *Node, last Kind, d int) int {
		if n == nil {
			return d
		}
		nd := d
		nl := last
		if n.Kind == KCat || n.Kind == KUnion {
			if n.Kind != last {
				nd++
				nl = n.Kind
			}
		}
		best := nd
		if l := rec(n.L, nl, nd); l > best {
			best = l
		}
		if r := rec(n.R, nl, nd); r > best {
			best = r
		}
		return best
	}
	return rec(e, KSym, 0)
}

// Walk calls f for every node of e in preorder.
func Walk(e *Node, f func(*Node)) {
	if e == nil {
		return
	}
	f(e)
	Walk(e.L, f)
	Walk(e.R, f)
}

// Clone returns a deep copy of e.
func Clone(e *Node) *Node {
	if e == nil {
		return nil
	}
	c := *e
	c.L = Clone(e.L)
	c.R = Clone(e.R)
	return &c
}

// Equal reports structural equality of two expressions.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Sym != b.Sym || a.Min != b.Min || a.Max != b.Max {
		return false
	}
	return Equal(a.L, b.L) && Equal(a.R, b.R)
}
