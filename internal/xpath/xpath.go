// Package xpath implements the paper's Theorem 3.6: a fixed Regular-XPath-
// with-data-equality query φdet that is satisfied on the parse tree of e
// (with position labels stored as data values) iff e is deterministic.
//
// The engine is a small combinator evaluator over the compiled parse tree:
// steps (child, parent, to-left, to-right, from-left), Kleene closure,
// node filters (SupFirst, SupLast, operator labels, leaf), and the data-
// equality filter [α = β], which holds at v iff some leaf reachable via α
// and some leaf reachable via β carry the same symbol. Axes are read as:
// to-left/to-right descend to the left/right child, and from-left ascends
// from a left child to its parent.
//
// φdet is the negation of the five violation queries printed in the proof
// of Theorem 3.6 — ϕP1 and ϕℓℓ′ for {ℓ,ℓ′} ⊆ {∗,⊙} — built from
//
//	P = [not child]             (a position)
//	D = (child/[not SupFirst])*/P   descends the First cone
//	U = ([not SupLast]/parent)*     climbs the Last spine
//	F = [lab()=⊙]/to-right/D        a follow target through concatenation
//
// Evaluation here is set-based and O(|φ|·|e|²) in the worst case — the
// linear-time bound of Theorem 3.6 rides on Bojańczyk–Parys [7], which this
// package knowingly replaces with the slower set-based evaluation. The
// point reproduced (and fuzz-tested against the linear checker) is the
// expressibility result: one fixed query decides determinism for every
// expression over every alphabet.
package xpath

import (
	"dregex/internal/ast"
	"dregex/internal/parsetree"
)

// Path is a node-set transformer over the parse tree.
type Path interface {
	eval(t *parsetree.Tree, from []bool) []bool
}

// step moves every node by one primitive axis.
type step int

const (
	child step = iota // either child
	parent
	toLeft   // to the left child
	toRight  // to the right child
	fromLeft // from a left child up to its parent
)

func (s step) eval(t *parsetree.Tree, from []bool) []bool {
	out := make([]bool, t.N())
	for n := parsetree.NodeID(0); n < parsetree.NodeID(t.N()); n++ {
		if !from[n] {
			continue
		}
		switch s {
		case child:
			if c := t.LChild[n]; c != parsetree.Null {
				out[c] = true
			}
			if c := t.RChild[n]; c != parsetree.Null {
				out[c] = true
			}
		case parent:
			if p := t.Parent[n]; p != parsetree.Null {
				out[p] = true
			}
		case toLeft:
			if c := t.LChild[n]; c != parsetree.Null {
				out[c] = true
			}
		case toRight:
			if c := t.RChild[n]; c != parsetree.Null {
				out[c] = true
			}
		case fromLeft:
			if p := t.Parent[n]; p != parsetree.Null && t.LChild[p] == n {
				out[p] = true
			}
		}
	}
	return out
}

// filter keeps nodes satisfying a predicate.
type filter func(t *parsetree.Tree, n parsetree.NodeID) bool

func (f filter) eval(t *parsetree.Tree, from []bool) []bool {
	out := make([]bool, t.N())
	for n := parsetree.NodeID(0); n < parsetree.NodeID(t.N()); n++ {
		if from[n] && f(t, n) {
			out[n] = true
		}
	}
	return out
}

// seq composes paths left to right.
type seq []Path

func (s seq) eval(t *parsetree.Tree, from []bool) []bool {
	cur := from
	for _, p := range s {
		cur = p.eval(t, cur)
	}
	return cur
}

// star is the reflexive-transitive closure of a path.
type star struct{ p Path }

func (s star) eval(t *parsetree.Tree, from []bool) []bool {
	out := append([]bool(nil), from...)
	frontier := append([]bool(nil), from...)
	for {
		next := s.p.eval(t, frontier)
		changed := false
		for i, v := range next {
			if v && !out[i] {
				out[i] = true
				frontier[i] = true
				changed = true
			} else {
				frontier[i] = false
			}
		}
		if !changed {
			return out
		}
	}
}

// union merges the results of alternatives.
type union []Path

func (u union) eval(t *parsetree.Tree, from []bool) []bool {
	out := make([]bool, t.N())
	for _, p := range u {
		r := p.eval(t, from)
		for i, v := range r {
			if v {
				out[i] = true
			}
		}
	}
	return out
}

// dataEq keeps v iff leaves reachable from {v} via a and via b share a
// symbol (the X=reg data-equality filter; position labels are the data).
type dataEq struct{ a, b Path }

func (d dataEq) eval(t *parsetree.Tree, from []bool) []bool {
	out := make([]bool, t.N())
	single := make([]bool, t.N())
	seen := make(map[ast.Symbol]bool, 8)
	for n := parsetree.NodeID(0); n < parsetree.NodeID(t.N()); n++ {
		if !from[n] {
			continue
		}
		for i := range single {
			single[i] = false
		}
		single[n] = true
		ra := d.a.eval(t, single)
		for k := range seen {
			delete(seen, k)
		}
		for i, v := range ra {
			if v && t.IsPos(parsetree.NodeID(i)) {
				seen[t.Sym[i]] = true
			}
		}
		if len(seen) == 0 {
			continue
		}
		for i := range single {
			single[i] = false
		}
		single[n] = true
		rb := d.b.eval(t, single)
		for i, v := range rb {
			if v && t.IsPos(parsetree.NodeID(i)) && seen[t.Sym[i]] {
				out[n] = true
				break
			}
		}
	}
	return out
}

// Node predicates.
func isLeaf(t *parsetree.Tree, n parsetree.NodeID) bool { return t.IsPos(n) }
func notSupFirst(t *parsetree.Tree, n parsetree.NodeID) bool {
	return !t.SupFirst[n]
}
func notSupLast(t *parsetree.Tree, n parsetree.NodeID) bool { return !t.SupLast[n] }
func supFirst(t *parsetree.Tree, n parsetree.NodeID) bool   { return t.SupFirst[n] }
func labCat(t *parsetree.Tree, n parsetree.NodeID) bool {
	return t.Op[n] == parsetree.OpCat
}
func labStar(t *parsetree.Tree, n parsetree.NodeID) bool {
	return t.Op[n] == parsetree.OpStar
}

// The fixed sub-queries of Theorem 3.6.
var (
	pP Path = filter(isLeaf)
	pD Path = seq{star{seq{step(child), filter(notSupFirst)}}, pP}
	pU Path = star{seq{filter(notSupLast), step(parent)}}
	pF Path = seq{filter(labCat), step(toRight), pD}

	phiCatCat Path = seq{
		star{step(child)}, filter(notSupLast), step(fromLeft),
		dataEq{pF, seq{pU, step(fromLeft), pF}},
	}
	phiStarStar Path = seq{
		star{step(child)}, filter(labStar),
		dataEq{pD, seq{pU, filter(supFirst), step(parent), pU, filter(labStar), pD}},
	}
	phiMixed Path = union{
		seq{
			star{step(child)}, filter(notSupLast), step(fromLeft),
			// The Last spine must be transparent from n itself upward, so
			// the second branch starts the U climb at n (the printed
			// parent/U would skip n's own SupLast check and admit pairs
			// whose common predecessor cannot reach the star).
			dataEq{seq{step(toRight), filter(supFirst), pD}, seq{pU, filter(labStar), pD}},
		},
		seq{
			star{step(child)}, filter(labStar),
			dataEq{pD, seq{pU, step(fromLeft), pF}},
		},
	}
	phiP1 Path = seq{
		star{step(child)},
		dataEq{seq{step(toLeft), filter(notSupFirst), pD}, seq{step(toRight), filter(notSupFirst), pD}},
	}
)

// Violations evaluates the four violation queries on the compiled tree of
// (#e′)$ and reports which are non-empty, in the order P1, ⊙⊙, mixed, ∗∗.
func Violations(t *parsetree.Tree) [4]bool {
	root := make([]bool, t.N())
	// Anchor at the user expression: phantom structure must not introduce
	// spurious matches; child* from the root covers every node anyway.
	root[t.Root] = true
	var out [4]bool
	for i, phi := range []Path{phiP1, phiCatCat, phiMixed, phiStarStar} {
		res := phi.eval(t, root)
		for _, v := range res {
			if v {
				out[i] = true
				break
			}
		}
	}
	return out
}

// IsDeterministic is Theorem 3.6: φdet = ¬(ϕP1 ∨ ϕ⊙⊙ ∨ ϕ⊙∗ ∨ ϕ∗⊙ ∨ ϕ∗∗).
func IsDeterministic(t *parsetree.Tree) bool {
	v := Violations(t)
	return !v[0] && !v[1] && !v[2] && !v[3]
}
