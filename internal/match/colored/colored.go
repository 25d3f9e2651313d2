// Package colored implements Theorem 4.2 of the paper: matching an
// arbitrary deterministic regular expression in O(|w| log log |e|) after
// O(|e|) expected preprocessing.
//
// The machinery is exactly the linear determinism test's: by Lemma 3.3, the
// a-labeled follower of a position p — if it exists — is one of the three
// candidates Witness(n,a), FirstPos(n,a), Next(n,a) stored at the lowest
// ancestor n of p with color a. The lowest colored ancestor query costs
// O(log log |e|) (package colorancestor, vEB-backed), and the right
// candidate is selected with the O(1) checkIfFollow test (Theorem 2.4).
package colored

import (
	"dregex/internal/ast"
	"dregex/internal/colorancestor"
	"dregex/internal/follow"
	"dregex/internal/parsetree"
	"dregex/internal/skeleton"
)

// Matcher is the Theorem 4.2 transition simulator.
type Matcher struct {
	t   *parsetree.Tree
	fol *follow.Index
	ca  *colorancestor.Index
	// Candidate triples per colored node, indexed by the payload stored
	// in ca: [witness, firstPos, next].
	cand [][3]parsetree.NodeID
}

// Options forwards backend selection to the colored-ancestor index.
type Options struct {
	// BinarySearch selects the O(log n) predecessor backend instead of
	// van Emde Boas (ablation experiment E5).
	BinarySearch bool
}

// New builds the matcher from the §3.1 skeleta of t. The expression must
// be deterministic — Lemma 3.3 candidate resolution requires it — which
// the public API layer enforces.
func New(t *parsetree.Tree, fol *follow.Index, opt Options) *Matcher {
	sks := skeleton.Build(t, fol, skeleton.Options{})
	m := &Matcher{t: t, fol: fol}
	declared := make([]colorancestor.ColoredNode, 0, len(sks.ColoredNodes))
	for _, c := range sks.ColoredNodes {
		payload := int32(len(m.cand))
		m.cand = append(m.cand, [3]parsetree.NodeID{
			sks.Wit[c.Sk], sks.First[c.Sk], sks.Next[c.Sk],
		})
		declared = append(declared, colorancestor.ColoredNode{
			Sym: c.Sym, Node: c.Node, Payload: payload,
		})
	}
	m.ca = colorancestor.Build(t, declared, colorancestor.Options{
		BinarySearch: opt.BinarySearch,
	})
	return m
}

// Tree implements match.TransitionSim.
func (m *Matcher) Tree() *parsetree.Tree { return m.t }

// Start implements match.TransitionSim.
func (m *Matcher) Start() parsetree.NodeID { return m.t.BeginPos() }

// Next returns the a-labeled follower of p in O(log log |e|).
func (m *Matcher) Next(p parsetree.NodeID, a ast.Symbol) parsetree.NodeID {
	payload, ok := m.ca.Query(p, a)
	if !ok {
		return parsetree.Null
	}
	for _, q := range m.cand[payload] {
		if q != parsetree.Null && m.fol.CheckIfFollow(p, q) {
			return q
		}
	}
	return parsetree.Null
}

// Accept implements match.TransitionSim.
func (m *Matcher) Accept(p parsetree.NodeID) bool {
	return m.Next(p, ast.End) == m.t.EndPos()
}

// Climbing is the naive transition simulator the paper contrasts with in
// §4.3: it walks the ancestor chain of p looking for the lowest a-colored
// node instead of querying the colored-ancestor index, costing
// O(depth(e)) per symbol. It is the baseline of experiment E4/E5.
type Climbing struct {
	t   *parsetree.Tree
	fol *follow.Index
	// colorAt[(node, sym)] → candidate triple index
	colorAt map[int64]int32
	cand    [][3]parsetree.NodeID
}

// NewClimbing builds the baseline from the same skeleta, under the same
// determinism precondition as New.
func NewClimbing(t *parsetree.Tree, fol *follow.Index) *Climbing {
	sks := skeleton.Build(t, fol, skeleton.Options{})
	c := &Climbing{t: t, fol: fol, colorAt: make(map[int64]int32, len(sks.ColoredNodes))}
	for _, cn := range sks.ColoredNodes {
		idx := int32(len(c.cand))
		c.cand = append(c.cand, [3]parsetree.NodeID{
			sks.Wit[cn.Sk], sks.First[cn.Sk], sks.Next[cn.Sk],
		})
		c.colorAt[colorKey(cn.Node, cn.Sym)] = idx
	}
	return c
}

func colorKey(n parsetree.NodeID, a ast.Symbol) int64 {
	return int64(n)<<32 | int64(uint32(a))
}

// Tree implements match.TransitionSim.
func (c *Climbing) Tree() *parsetree.Tree { return c.t }

// Start implements match.TransitionSim.
func (c *Climbing) Start() parsetree.NodeID { return c.t.BeginPos() }

// Next climbs ancestors to the lowest a-colored node, then resolves the
// Lemma 3.3 candidates.
func (c *Climbing) Next(p parsetree.NodeID, a ast.Symbol) parsetree.NodeID {
	for x := c.t.Parent[p]; x != parsetree.Null; x = c.t.Parent[x] {
		idx, ok := c.colorAt[colorKey(x, a)]
		if !ok {
			continue
		}
		for _, q := range c.cand[idx] {
			if q != parsetree.Null && c.fol.CheckIfFollow(p, q) {
				return q
			}
		}
		return parsetree.Null // Lemma 3.3: only the lowest colored ancestor matters
	}
	return parsetree.Null
}

// Accept implements match.TransitionSim.
func (c *Climbing) Accept(p parsetree.NodeID) bool {
	return c.Next(p, ast.End) == c.t.EndPos()
}
