// Package skeleton implements §3.1 of the paper: the candidate-pair
// reduction behind the linear-time determinism test.
//
// For every symbol a, the a-skeleton t_a is the LCA-closed set of all
// "class a" nodes — positions labeled a, colored nodes (the parent of
// pSupFirst(p) for every a-labeled position p), and their iterated LCAs —
// extended with the pSupLast and pStar nodes of its members. On this
// forest the package computes the three per-node, per-color candidate
// pointers of Lemma 3.3:
//
//	Witness(n,a)   the witness position for color a at n
//	FirstPos(n,a)  the unique a-position in First(n), if any
//	Next(n,a)      the a-positions in FollowAfter(n)   (Algorithm 1)
//
// along the way verifying conditions (P1) and (P2); a violation of either
// proves the expression nondeterministic and is reported with a witness
// pair. The total size of all skeleta and the total construction time are
// O(|e|) (Lemma 3.1, Lemma 3.2).
//
// Build works on one pooled scratch arena. It sorts the base entries
// (positions and colored nodes) once by (symbol, preorder) into flat
// per-symbol segments, in which (P1) shows as two colored entries with the
// same key. Each segment becomes the virtual tree of its LCA closure in
// one rightmost-path stack pass; the pSupLast and pStar nodes of its class
// nodes are spliced into the tree edges above them; and a preorder walk
// writes the flat arrays. The returned arrays share two allocations, so
// the number of allocations does not grow with |e|.
package skeleton

import (
	"fmt"
	"sync"

	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/parsetree"
)

// Violation is the first determinism violation found while constructing the
// skeleta: two distinct, equally-labeled positions Q1, Q2 that can be shown
// to follow a common position.
type Violation struct {
	Rule   string // "P1", "P2", "Y-overflow", "double-first"
	Q1, Q2 parsetree.NodeID
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s: positions %d and %d", v.Rule, v.Q1, v.Q2)
}

// Colored identifies a colored node: Node has color Sym with witness
// Witness(Node, Sym); Sk is its index into the flat skeleton arrays.
type Colored struct {
	Sym  ast.Symbol
	Node parsetree.NodeID
	Sk   int32
}

// Skeletons holds every a-skeleton of one expression in flat arrays. The
// skeleton nodes of symbol a occupy indices [Start[a], Start[a+1]), sorted
// by preorder of their e-node, so within a segment parents precede
// children.
type Skeletons struct {
	T   *parsetree.Tree
	Fol *follow.Index

	Start []int32            // len = alphabet size + 1
	ENode []parsetree.NodeID // e-node of each skeleton node
	Par   []int32            // skeleton parent (global index), -1 at roots
	Lch   []int32            // skeleton left child, -1 if none
	Rch   []int32            // skeleton right child, -1 if none
	Wit   []parsetree.NodeID // Witness(n,a), Null if n not colored a
	First []parsetree.NodeID // FirstPos(n,a), Null if none
	Next  []parsetree.NodeID // Next(n,a) after Algorithm 1, Null if none

	ColoredNodes []Colored

	// NonDet is the first violation found, or nil. When set, the arrays
	// above may be partially filled and must not be used for matching.
	NonDet *Violation

	opt Options
}

// Options tunes the construction.
type Options struct {
	// NumericLoops treats numeric iterations with Max ≥ 2 like ∗ nodes
	// when propagating loop candidates in Algorithm 1 (paper §3.3).
	NumericLoops bool
}

// Build constructs all skeleta for t. fol must be an index for t.
//
// The construction runs on one pooled scratch arena: the base entries are
// sorted once by (symbol, preorder) into flat per-symbol segments (two
// counting sorts); one stack pass per segment closes it under LCA,
// building the virtual tree of its class-a nodes; a pass over the class
// nodes splices each one's pSupLast and pStar nodes into its parent edge;
// and a preorder walk of each segment writes the flat arrays. Lemma 3.1
// bounds every pass by O(|e|), and the only allocations are the returned
// arrays, so their number does not grow with |e|.
func Build(t *parsetree.Tree, fol *follow.Index, opt Options) *Skeletons {
	s := &Skeletons{T: t, Fol: fol, opt: opt}
	a := arenaPool.Get().(*arena)
	defer arenaPool.Put(a)
	s.construct(a)
	if s.NonDet != nil {
		return s
	}
	s.computeFirstPos()
	if s.NonDet != nil {
		return s
	}
	s.buildNext(opt, a)
	return s
}

// entry is one (symbol, node) member of a base set, carrying the color
// witness of a colored node (Null for a position).
type entry struct {
	sym  ast.Symbol
	node parsetree.NodeID
	wit  parsetree.NodeID
}

// arena is the pooled scratch of one Build. The temporary skeleton nodes
// (tNode … tR) of every segment live here until the output arrays, whose
// size they determine, are written; tPar, tL and tR hold temporary ids,
// -1 for none.
type arena struct {
	count        []int32
	ent, sorted  []entry
	tNode, tWit  []parsetree.NodeID
	tPar, tL, tR []int32
	root         []int32 // per symbol: the root of its temporary nodes
	stack        []int32
	items        []item
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// grow returns s resliced to length n, reallocated only when too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// construct materializes all skeleta, or sets NonDet on a (P1) violation.
func (s *Skeletons) construct(a *arena) {
	t := s.T
	sigma := t.Alpha.Size()

	// Base entries, in position order: every position, plus a colored
	// entry per position of e′ (and $) at the parent of its pSupFirst; #
	// has no pSupFirst and contributes no color.
	a.ent = grow(a.ent, 2*len(t.PosNode))[:0]
	for _, p := range t.PosNode {
		a.ent = append(a.ent, entry{t.Sym[p], p, parsetree.Null})
		if psf := t.PSupFirst[p]; psf != parsetree.Null {
			a.ent = append(a.ent, entry{t.Sym[p], t.Parent[psf], p})
		}
	}
	colored := len(a.ent) - len(t.PosNode)

	// Sort by (symbol, node): a stable counting sort by node, then one by
	// symbol. Equal keys keep position order.
	a.sorted = grow(a.sorted, len(a.ent))
	a.count = grow(a.count, max(t.N(), sigma)+1)
	countingSort(a.sorted, a.ent, a.count[:t.N()+1], func(e entry) int32 { return e.node })
	countingSort(a.ent, a.sorted, a.count[:sigma+1], func(e entry) int32 { return int32(e.sym) })
	ent := a.ent

	// (P1): two equally-labeled positions sharing a pSupFirst node share
	// the colored node above it, and only there can two entries share a
	// key. Report the violation a scan of pSupFirst groups in id order
	// meets first: the lowest pSupFirst (the right child of the colored
	// node), then the earliest second occurrence.
	var p1 Violation
	var p1At parsetree.NodeID
	for i := 1; i < len(ent); i++ {
		if ent[i].node != ent[i-1].node || ent[i].sym != ent[i-1].sym ||
			(i > 1 && ent[i-2].node == ent[i].node && ent[i-2].sym == ent[i].sym) {
			continue // not the second entry of a run of equal keys
		}
		psf := t.RChild[ent[i].node]
		if p1.Rule == "" || psf < p1At || (psf == p1At && ent[i].wit < p1.Q2) {
			p1, p1At = Violation{Rule: "P1", Q1: ent[i-1].wit, Q2: ent[i].wit}, psf
		}
	}
	if p1.Rule != "" {
		s.NonDet = &p1
		return
	}

	// Per symbol: the class-a nodes, then their pSupLast/pStar nodes.
	bound := 6 * len(ent) // ≤ 2b−1 class nodes and 2 extension nodes each, per segment of b entries
	a.tNode, a.tWit = grow(a.tNode, bound)[:0], grow(a.tWit, bound)[:0]
	a.tPar, a.tL, a.tR = grow(a.tPar, bound)[:0], grow(a.tL, bound)[:0], grow(a.tR, bound)[:0]
	a.root = grow(a.root, sigma)
	a.stack = grow(a.stack, 2*bound)
	for lo, sym := 0, 0; sym < sigma; sym++ {
		hi := lo
		for hi < len(ent) && int(ent[hi].sym) == sym {
			hi++
		}
		a.root[sym] = -1
		if hi > lo {
			first := int32(len(a.tNode))
			a.root[sym] = s.closeSegment(a, ent[lo:hi])
			s.extendSegment(a, first, int32(len(a.tNode)), int32(sym))
		}
		lo = hi
	}

	// Write the flat arrays: each segment in preorder, which visits the
	// left e-subtree before the right one.
	total := len(a.tNode)
	s.Start = make([]int32, sigma+1)
	ints := make([]int32, 7*total)
	next := func() []int32 {
		out := ints[:total:total]
		ints = ints[total:]
		return out
	}
	s.ENode, s.Par, s.Lch, s.Rch = next(), next(), next(), next()
	s.Wit, s.First, s.Next = next(), next(), next()
	s.ColoredNodes = make([]Colored, 0, colored)
	idx := int32(0)
	for sym := 0; sym < sigma; sym++ {
		s.Start[sym] = idx
		if a.root[sym] == -1 {
			continue
		}
		stack := append(a.stack[:0], a.root[sym], -1) // (temporary id, parent's index)
		for len(stack) > 0 {
			u, pi := stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-2]
			s.ENode[idx], s.Wit[idx] = a.tNode[u], a.tWit[u]
			s.Par[idx], s.Lch[idx], s.Rch[idx] = pi, -1, -1
			s.First[idx], s.Next[idx] = parsetree.Null, parsetree.Null
			if pi != -1 {
				if a.tL[a.tPar[u]] == u {
					s.Lch[pi] = idx
				} else {
					s.Rch[pi] = idx
				}
			}
			if a.tWit[u] != parsetree.Null {
				s.ColoredNodes = append(s.ColoredNodes, Colored{Sym: ast.Symbol(sym), Node: a.tNode[u], Sk: idx})
			}
			if c := a.tR[u]; c != -1 {
				stack = append(stack, c, idx)
			}
			if c := a.tL[u]; c != -1 {
				stack = append(stack, c, idx)
			}
			idx++
		}
		a.stack = stack
	}
	s.Start[sigma] = idx
}

// countingSort stably sorts src into dst by key, with count sized to the
// key range.
func countingSort(dst, src []entry, count []int32, key func(entry) int32) {
	clear(count)
	for _, e := range src {
		count[key(e)]++
	}
	off := int32(0)
	for i, c := range count {
		count[i] = off
		off += c
	}
	for _, e := range src {
		k := key(e)
		dst[count[k]] = e
		count[k]++
	}
}

// newNode appends a temporary skeleton node for e-node n.
func (a *arena) newNode(n, wit parsetree.NodeID) int32 {
	a.tNode = append(a.tNode, n)
	a.tWit = append(a.tWit, wit)
	a.tPar = append(a.tPar, -1)
	a.tL = append(a.tL, -1)
	a.tR = append(a.tR, -1)
	return int32(len(a.tNode) - 1)
}

// link makes c a child of p, on the side of p's e-child that contains it.
func (s *Skeletons) link(a *arena, p, c int32) {
	a.tPar[c] = p
	if s.T.IsAncestor(s.T.LChild[a.tNode[p]], a.tNode[c]) {
		a.tL[p] = c
	} else {
		a.tR[p] = c
	}
}

// closeSegment builds the virtual tree of one segment — its entries, in
// preorder and with distinct nodes, plus the LCAs of preorder-consecutive
// entries, which close it under LCA — with the classical rightmost-path
// stack, and returns its root.
func (s *Skeletons) closeSegment(a *arena, seg []entry) int32 {
	t := s.T
	stack := a.stack[:0]
	for _, e := range seg {
		u := a.newNode(e.node, e.wit)
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if l := s.Fol.LCA.Query(a.tNode[top], e.node); l != a.tNode[top] {
				// Pop the path below l, linking each node to the one
				// beneath it; l joins the path if it is new.
				last := top
				stack = stack[:len(stack)-1]
				for len(stack) > 0 && t.Depth[a.tNode[stack[len(stack)-1]]] > t.Depth[l] {
					s.link(a, stack[len(stack)-1], last)
					last = stack[len(stack)-1]
					stack = stack[:len(stack)-1]
				}
				if len(stack) == 0 || a.tNode[stack[len(stack)-1]] != l {
					stack = append(stack, a.newNode(l, parsetree.Null))
				}
				s.link(a, stack[len(stack)-1], last)
			}
		}
		stack = append(stack, u)
	}
	for len(stack) > 1 {
		s.link(a, stack[len(stack)-2], stack[len(stack)-1])
		stack = stack[:len(stack)-1]
	}
	a.stack = stack
	return stack[0]
}

// extendSegment adds the pSupLast and pStar nodes of the class nodes
// [first, end) of symbol sym. Each is an ancestor of its class node u; one
// at or above u's parent P is P's own pointer (or P), so only those strictly
// between P and u — or above the root — are new, and they are spliced into
// the edge from P to u, keeping the set LCA-closed.
func (s *Skeletons) extendSegment(a *arena, first, end, sym int32) {
	t := s.T
	for u := first; u < end; u++ {
		x, p := a.tNode[u], a.tPar[u]
		keep := func(c parsetree.NodeID) bool {
			return c != parsetree.Null && c != x && (p == -1 || !t.IsAncestor(c, a.tNode[p]))
		}
		c1, c2 := t.PSupLast[x], t.PStar[x]
		if s.opt.NumericLoops {
			c2 = t.PLoop[x] // iterations loop too (§3.3)
		}
		k1, k2 := keep(c1), keep(c2) && c2 != c1
		if k1 && k2 && t.IsAncestor(c1, c2) {
			c1, c2 = c2, c1 // c1 is the lower one
		}
		if k1 || k2 {
			if !k1 {
				c1 = c2
			}
			u2 := s.splice(a, u, c1, sym)
			if k1 && k2 {
				s.splice(a, u2, c2, sym)
			}
		}
	}
}

// splice inserts a node for e-node c between temporary node u and its
// parent, and returns it.
func (s *Skeletons) splice(a *arena, u int32, c parsetree.NodeID, sym int32) int32 {
	x := a.newNode(c, parsetree.Null)
	p := a.tPar[u]
	a.tPar[x] = p
	switch {
	case p == -1:
		a.root[sym] = x
	case a.tL[p] == u:
		a.tL[p] = x
	default:
		a.tR[p] = x
	}
	s.link(a, x, u)
	return x
}

// computeFirstPos fills FirstPos(n,a) bottom-up: a child's FirstPos
// survives to its skeleton parent iff its pSupFirst still dominates the
// parent (Lemma 2.3). Two surviving candidates would mean two a-positions
// in one First set, which (P1) excludes — reported defensively.
func (s *Skeletons) computeFirstPos() {
	t := s.T
	for sym := 0; sym < len(s.Start)-1; sym++ {
		for i := s.Start[sym+1] - 1; i >= s.Start[sym]; i-- {
			node := s.ENode[i]
			if t.IsPos(node) && ast.Symbol(sym) == t.Sym[node] {
				s.First[i] = node
			}
			f := s.First[i]
			if f == parsetree.Null {
				continue
			}
			p := s.Par[i]
			if p == -1 {
				continue
			}
			if t.IsAncestor(t.PSupFirst[f], s.ENode[p]) {
				if s.First[p] != parsetree.Null && s.First[p] != f {
					s.NonDet = &Violation{Rule: "double-first", Q1: s.First[p], Q2: f}
					return
				}
				s.First[p] = f
			}
		}
	}
}

// buildNext is Algorithm 1 of the paper, run iteratively over every
// skeleton root. Y carries at most two candidate positions; a third
// distinct candidate, or a Next set with two elements (condition (P2)
// violated), proves nondeterminism.
func (s *Skeletons) buildNext(opt Options, a *arena) {
	t := s.T
	a.items = grow(a.items, len(s.ENode))
	stack := a.items[:0]
	for sym := 0; sym < len(s.Start)-1; sym++ {
		for i := s.Start[sym]; i < s.Start[sym+1]; i++ {
			if s.Par[i] == -1 {
				stack = append(stack, item{i, ySet{}})
			}
		}
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i := it.idx
		y := it.y
		node := s.ENode[i]
		par := s.Par[i]

		// Line 1-2, strengthened: a SupLast node anywhere on the edge
		// from the skeleton parent down to n (inclusive) cuts everything
		// arriving from above. The paper's skeleton only materializes the
		// pSupLast nodes of class-a members, so a barrier can sit between
		// two skeleton nodes without being one itself; the reflexive
		// pSupLast pointer detects it in O(1). (With the reset at n only,
		// Next could retain candidates outside FollowAfter(n), breaking
		// Lemma 3.2 at uncolored nodes — see skeleton_test.go.)
		if psl := t.PSupLast[node]; psl != parsetree.Null {
			if par == -1 || !t.IsAncestor(psl, s.ENode[par]) {
				y = ySet{}
			}
		}
		// Lines 3-6: pick up the FirstPos of a right sibling in t_a. The
		// candidate is genuine iff Last(n) survives to the left child of
		// the ⊙ ancestor and the sibling's FirstPos survives to its right
		// child — both are Lemma 2.3 pointer checks, which strengthen the
		// printed (¬SupLast(n) ∨ parent_ta(n)=parent_e(n)) test to the
		// one-step skeleton.
		if par != -1 && t.Op[s.ENode[par]] == parsetree.OpCat &&
			s.Lch[par] == i && s.Rch[par] != -1 &&
			t.IsAncestor(t.PSupLast[node], t.LChild[s.ENode[par]]) {
			if f := s.First[s.Rch[par]]; f != parsetree.Null &&
				t.IsAncestor(t.PSupFirst[f], t.RChild[s.ENode[par]]) {
				if !y.add(f) {
					s.reportYOverflow(y, f)
					return
				}
			}
		}
		// Line 7: Next(n,a) = {p ∈ Y | n not an ancestor of p}.
		var next [2]parsetree.NodeID
		cnt := 0
		for k := 0; k < y.n; k++ {
			if !t.IsAncestor(node, y.v[k]) {
				if cnt < 2 {
					next[cnt] = y.v[k]
				}
				cnt++
			}
		}
		if cnt > 1 {
			s.NonDet = &Violation{Rule: "P2", Q1: next[0], Q2: next[1]}
			return
		}
		if cnt == 1 {
			s.Next[i] = next[0]
		}
		// Lines 8-9: a loop node feeds its own FirstPos downwards.
		isLoop := t.Op[node] == parsetree.OpStar ||
			(opt.NumericLoops && t.Op[node] == parsetree.OpIter && t.Max[node] >= 2)
		if isLoop {
			if f := s.First[i]; f != parsetree.Null {
				if !y.add(f) {
					s.reportYOverflow(y, f)
					return
				}
			}
		}
		// Lines 12-17: recurse.
		if c := s.Lch[i]; c != -1 {
			stack = append(stack, item{c, y})
		}
		if c := s.Rch[i]; c != -1 {
			stack = append(stack, item{c, y})
		}
	}
}

func (s *Skeletons) reportYOverflow(y ySet, extra parsetree.NodeID) {
	// add() only fails with two distinct members already present; either
	// pair (and the rejected extra) witnesses |Y| > 2.
	_ = extra
	s.NonDet = &Violation{Rule: "Y-overflow", Q1: y.v[0], Q2: y.v[1]}
}

// item is a pending skeleton node of Algorithm 1 with the Y it inherits.
type item struct {
	idx int32
	y   ySet
}

// ySet is the bounded candidate set Y of Algorithm 1: at most two distinct
// positions (|Y| > 2 already implies nondeterminism).
type ySet struct {
	v [2]parsetree.NodeID
	n int
}

// add inserts p, reporting false when a third distinct element appears.
func (y *ySet) add(p parsetree.NodeID) bool {
	for k := 0; k < y.n; k++ {
		if y.v[k] == p {
			return true
		}
	}
	if y.n == 2 {
		return false
	}
	y.v[y.n] = p
	y.n++
	return true
}

// SymRange returns the skeleton index range of symbol a.
func (s *Skeletons) SymRange(a ast.Symbol) (lo, hi int32) {
	return s.Start[a], s.Start[a+1]
}
