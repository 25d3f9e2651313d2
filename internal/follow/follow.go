// Package follow implements Theorem 2.4 of the paper: after O(|e|)
// preprocessing (LCA plus the pSupFirst/pSupLast/pStar pointers), the test
// checkIfFollow(p, q) — "may position q come directly after position p in a
// word of L(e)?" — is answered in constant time.
//
// Lemma 2.2 splits Follow into the concatenation case and the star case:
//
//	q ∈ Follow(p)  iff  n = LCA(p,q) satisfies
//	  (1) lab(n) = ⊙, q ∈ First(Rchild(n)), p ∈ Last(Lchild(n)),   or
//	  (2) q ∈ First(s), p ∈ Last(s) for s the lowest ∗ above n,
//
// and Lemma 2.3 turns the First/Last membership tests into two ancestor
// checks against the pSupFirst/pSupLast pointers.
package follow

import (
	"dregex/internal/lca"
	"dregex/internal/parsetree"
)

// Index answers follow queries for one compiled expression.
type Index struct {
	T   *parsetree.Tree
	LCA *lca.LCA
}

// New preprocesses t in O(|t|) time.
func New(t *parsetree.Tree) *Index {
	return &Index{T: t, LCA: lca.New(t)}
}

// CheckIfFollow reports q ∈ Follow(p) in O(1). p and q must be positions.
func (ix *Index) CheckIfFollow(p, q parsetree.NodeID) bool {
	n := ix.LCA.Query(p, q)
	return ix.viaCatAt(n, p, q) || ix.viaStarAt(n, p, q)
}

// ViaCat reports q ∈ Follow⊙(p): case (1) of Lemma 2.2.
func (ix *Index) ViaCat(p, q parsetree.NodeID) bool {
	return ix.viaCatAt(ix.LCA.Query(p, q), p, q)
}

// ViaStar reports q ∈ Follow∗(p): case (2) of Lemma 2.2.
func (ix *Index) ViaStar(p, q parsetree.NodeID) bool {
	return ix.viaStarAt(ix.LCA.Query(p, q), p, q)
}

// ViaLoop is the numeric-occurrence generalization of ViaStar: the loop may
// be any ∗ node or iteration node with Max ≥ 2 (paper §3.3). On plain
// expressions it coincides with ViaStar.
func (ix *Index) ViaLoop(p, q parsetree.NodeID) bool {
	t := ix.T
	n := ix.LCA.Query(p, q)
	s := t.PLoop[n]
	if s == parsetree.Null {
		return false
	}
	return t.InFirst(q, s) && t.InLast(p, s)
}

// CheckIfFollowLoop is CheckIfFollow with loops generalized to numeric
// iterations (used by the §3.3 pipeline).
func (ix *Index) CheckIfFollowLoop(p, q parsetree.NodeID) bool {
	n := ix.LCA.Query(p, q)
	return ix.viaCatAt(n, p, q) || func() bool {
		s := ix.T.PLoop[n]
		return s != parsetree.Null && ix.T.InFirst(q, s) && ix.T.InLast(p, s)
	}()
}

func (ix *Index) viaCatAt(n, p, q parsetree.NodeID) bool {
	t := ix.T
	if t.Op[n] != parsetree.OpCat {
		return false
	}
	return t.InFirst(q, t.RChild[n]) && t.InLast(p, t.LChild[n])
}

func (ix *Index) viaStarAt(n, p, q parsetree.NodeID) bool {
	t := ix.T
	s := t.PStar[n]
	if s == parsetree.Null {
		return false
	}
	return t.InFirst(q, s) && t.InLast(p, s)
}

// FollowSet materializes Follow(p) by testing every position; O(|Pos(e)|)
// per call. Intended for diagnostics and tests, not for matching.
func (ix *Index) FollowSet(p parsetree.NodeID) []parsetree.NodeID {
	var out []parsetree.NodeID
	for _, q := range ix.T.PosNode {
		if ix.CheckIfFollow(p, q) {
			out = append(out, q)
		}
	}
	return out
}
