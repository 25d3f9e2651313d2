// Package pathdecomp implements Theorem 4.10 of the paper: matching a word
// w against a deterministic regular expression e in O(|e| + c_e·|w|),
// where c_e is the maximal depth of alternating union and concatenation
// operators (≤ 4 in every real-world DTD the paper cites).
//
// The parse tree is decomposed into vertical paths (§4.3): a node y starts
// a path iff it is the root, a SupLast or SupFirst node, a nullable right
// child, or the right child of a union. Every position p deposits itself in
// the table h at top(p), the path top of the left sibling of pSupFirst(p);
// determinism guarantees the deposit is collision-free per label
// (Lemma 4.5). Transition simulation (FindNext, Algorithm 3) then hops
// between path tops along precomputed nexttop pointers — visiting only
// "qualifying" tops: SupFirst/SupLast nodes, the root, and tops whose path
// contains a non-nullable concatenation above the current node — and the
// potential argument of Lemma 4.9 bounds the amortized hop count by
// O(c_e) per consumed symbol.
package pathdecomp

import (
	"fmt"

	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/parsetree"
)

// Matcher is the Theorem 4.10 transition simulator.
type Matcher struct {
	t   *parsetree.Tree
	fol *follow.Index

	topmost []bool
	pathTop []parsetree.NodeID
	nexttop []parsetree.NodeID // valid at positions and topmost nodes
	h       map[int64]parsetree.NodeID

	// CE is the alternation metric that bounds the amortized hops per
	// symbol (the refined constant from the proof of Lemma 4.9: the
	// maximal number of ancestors of a position labeled +, non-nullable,
	// whose parent is labeled ⊙, plus one).
	CE int
}

func hKey(n parsetree.NodeID, a ast.Symbol) int64 {
	return int64(n)<<32 | int64(uint32(a))
}

// New preprocesses t in O(|e|). The expression must be deterministic — the
// h table is only collision-free then (Lemma 4.5) — which the public API
// layer enforces; a collision is reported as an error all the same.
func New(t *parsetree.Tree, fol *follow.Index) (*Matcher, error) {
	m := &Matcher{
		t:       t,
		fol:     fol,
		topmost: make([]bool, t.N()),
		pathTop: make([]parsetree.NodeID, t.N()),
		nexttop: make([]parsetree.NodeID, t.N()),
		h:       make(map[int64]parsetree.NodeID, t.NumPositions()),
	}
	m.computeDecomposition()
	if err := m.fillH(); err != nil {
		return nil, err
	}
	return m, nil
}

// isTopmost evaluates the §4.3 path-top conditions.
func (m *Matcher) isTopmost(y parsetree.NodeID) bool {
	t := m.t
	if y == t.Root || t.SupLast[y] || t.SupFirst[y] {
		return true
	}
	p := t.Parent[y]
	if p == parsetree.Null || t.RChild[p] != y {
		return false
	}
	return t.Nullable[y] || t.Op[p] == parsetree.OpUnion
}

// computeDecomposition fills topmost, pathTop and nexttop in one DFS.
//
// The DFS maintains the stack of path records along the current ancestor
// chain. A record tracks whether a non-nullable ⊙ node of its path is an
// ancestor of the current node (condition (3) of the nexttop definition),
// and nq indexes the innermost record whose top qualifies as a nexttop
// target; qualification only ever turns on while a record is on top of the
// stack, so nq is maintained with save/restore in O(1) per node.
func (m *Matcher) computeDecomposition() {
	t := m.t
	type rec struct {
		y        parsetree.NodeID
		hasNNCat bool
	}
	var records []rec
	nq := -1 // innermost qualifying record
	qualifies := func(r rec) bool {
		return r.y == t.Root || t.SupLast[r.y] || t.SupFirst[r.y] || r.hasNNCat
	}
	isNNCat := func(n parsetree.NodeID) bool {
		return t.Op[n] == parsetree.OpCat && !t.Nullable[n]
	}
	type frame struct {
		node     parsetree.NodeID
		exit     bool
		savedLen int
		savedNN  bool
		savedNq  int
		plusDep  int
	}
	for i := range m.nexttop {
		m.nexttop[i] = parsetree.Null
	}
	stack := []frame{{node: t.Root}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.exit {
			if len(records) > f.savedLen {
				records = records[:f.savedLen]
			} else if len(records) > 0 {
				records[len(records)-1].hasNNCat = f.savedNN
			}
			nq = f.savedNq
			continue
		}
		n := f.node
		ex := frame{node: n, exit: true, savedLen: len(records), savedNq: nq}
		if len(records) > 0 {
			ex.savedNN = records[len(records)-1].hasNNCat
		}
		if m.isTopmost(n) {
			m.topmost[n] = true
			m.pathTop[n] = n
			// nexttop of a topmost node looks past its own record.
			if nq >= 0 {
				m.nexttop[n] = records[nq].y
			}
			records = append(records, rec{y: n, hasNNCat: isNNCat(n)})
			if qualifies(records[len(records)-1]) {
				nq = len(records) - 1
			}
		} else {
			m.pathTop[n] = m.pathTop[t.Parent[n]]
			if len(records) > 0 && isNNCat(n) && !records[len(records)-1].hasNNCat {
				records[len(records)-1].hasNNCat = true
				if nq < len(records)-1 {
					nq = len(records) - 1
				}
			}
			if t.IsPos(n) && nq >= 0 {
				m.nexttop[n] = records[nq].y
			}
		}
		// Track the refined c_e: non-nullable + nodes with ⊙ parents.
		dep := f.plusDep
		if p := t.Parent[n]; p != parsetree.Null &&
			t.Op[n] == parsetree.OpUnion && !t.Nullable[n] && t.Op[p] == parsetree.OpCat {
			dep++
		}
		if t.IsPos(n) && dep+1 > m.CE {
			m.CE = dep + 1
		}
		stack = append(stack, ex)
		if c := t.RChild[n]; c != parsetree.Null {
			stack = append(stack, frame{node: c, plusDep: dep})
		}
		if c := t.LChild[n]; c != parsetree.Null {
			stack = append(stack, frame{node: c, plusDep: dep})
		}
	}
}

// fillH deposits every position p (except #) at h(top(p), lab(p)).
func (m *Matcher) fillH() error {
	t := m.t
	for i := 1; i < t.NumPositions(); i++ {
		p := t.PosNode[i]
		psf := t.PSupFirst[p]
		if psf == parsetree.Null {
			continue
		}
		left := t.LChild[t.Parent[psf]]
		y := m.pathTop[left]
		key := hKey(y, t.Sym[p])
		if old, ok := m.h[key]; ok && old != p {
			// Lemma 4.5 rules this out for deterministic expressions.
			return fmt.Errorf("pathdecomp: h collision at node %d symbol %s (positions %d, %d)",
				y, t.Alpha.Name(t.Sym[p]), old, p)
		}
		m.h[key] = p
	}
	return nil
}

// Tree implements match.TransitionSim.
func (m *Matcher) Tree() *parsetree.Tree { return m.t }

// Start implements match.TransitionSim.
func (m *Matcher) Start() parsetree.NodeID { return m.t.BeginPos() }

// Next is FindNext of Algorithm 3.
func (m *Matcher) Next(p parsetree.NodeID, a ast.Symbol) parsetree.NodeID {
	t := m.t
	x := p
	target := t.PSupLast[p]
	for target != x {
		if q, ok := m.h[hKey(x, a)]; ok && m.fol.CheckIfFollow(p, q) {
			return q
		}
		x = m.nexttop[x]
		if x == parsetree.Null {
			return parsetree.Null
		}
	}
	if q, ok := m.h[hKey(x, a)]; ok && m.fol.CheckIfFollow(p, q) {
		return q
	}
	// Lines 8-14: candidates in First(parent(pSupLast(p))).
	px := t.Parent[x]
	if px == parsetree.Null {
		return parsetree.Null
	}
	y := t.PSupFirst[px]
	if y == parsetree.Null {
		return parsetree.Null
	}
	var q parsetree.NodeID = parsetree.Null
	if t.Nullable[y] {
		if nt := m.nexttop[y]; nt != parsetree.Null {
			if cand, ok := m.h[hKey(nt, a)]; ok {
				q = cand
			}
		}
	} else {
		left := t.LChild[t.Parent[y]]
		if cand, ok := m.h[hKey(left, a)]; ok {
			q = cand
		}
	}
	if q != parsetree.Null && m.fol.CheckIfFollow(p, q) {
		return q
	}
	return parsetree.Null
}

// Accept implements match.TransitionSim.
func (m *Matcher) Accept(p parsetree.NodeID) bool {
	return m.Next(p, ast.End) == m.t.EndPos()
}
