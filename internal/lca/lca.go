// Package lca answers lowest-common-ancestor queries on a parse tree in
// O(1) after O(|e|) preprocessing (paper reference [1]). This is the
// engine behind Theorem 2.4 (constant-time checkIfFollow) and Lemma 3.1
// (linear-time skeleton construction).
//
// Node ids are preorder numbers, which reduces LCA to a range minimum over
// the tree's own depth array, with no Euler tour. For u < v, every node of
// the preorder range u+1..v lies strictly below x = LCA(u, v), and the
// child of x on the path to v is among them; so x is the parent of any
// shallowest node of Depth[u+1..v].
//
// The range minimum uses 64-node blocks. Inside a block, mask[j] is the
// monotone stack of the block prefix ending at j, one bit per node: bit i
// is set iff node i is strictly shallower than every node after it up to
// j. The shallowest node of [i, j] is then the lowest set bit of mask[j]
// at or above i — a shift and a trailing-zero count. Across blocks, a
// sparse table over the block minima covers the whole blocks between i
// and j; it has (n/64)·log(n/64) entries, fewer than n/2.
//
// Preprocessing is one left-to-right pass, in which each node is pushed
// onto and popped off its block's stack at most once, plus the sparse
// table: O(n) time and 8 bytes per node beyond the tree. A query reads at
// most two masks and two sparse-table cells: O(1), Theorem 2.4's bound.
package lca

import (
	"math/bits"

	"dregex/internal/parsetree"
)

const (
	blockBits = 6
	blockSize = 1 << blockBits
	blockMask = blockSize - 1
)

// LCA is a preprocessed lowest-common-ancestor index for one tree.
type LCA struct {
	tree   *parsetree.Tree
	depth  []int32 // tree.Depth
	parent []parsetree.NodeID
	// mask[j] holds bit i&63 for each node i of j's block, i ≤ j, that is
	// strictly shallower than every node in (i, j].
	mask []uint64
	// sparse holds level k (k = 0, 1, …) at offset levelStart(k): for each
	// block b, the shallowest node of blocks b..b+2^k-1.
	sparse []int32
	blocks int
}

// New preprocesses t for O(1) LCA queries in O(|t|) time and space.
func New(t *parsetree.Tree) *LCA {
	n := t.N()
	nb := (n + blockMask) >> blockBits
	levels := bits.Len(uint(nb))
	l := &LCA{
		tree:   t,
		depth:  t.Depth,
		parent: t.Parent,
		mask:   make([]uint64, n),
		sparse: make([]int32, levelStart(levels, nb)),
		blocks: nb,
	}
	depth := l.depth
	var stack uint64
	for j := range n {
		base, off := j&^blockMask, j&blockMask
		if off == 0 {
			stack = 0
		}
		// The stack deepens toward its top (highest bit); pop the nodes
		// that are no shallower than j.
		for stack != 0 {
			top := bits.Len64(stack) - 1
			if depth[base+top] < depth[j] {
				break
			}
			stack &^= 1 << top
		}
		stack |= 1 << off
		l.mask[j] = stack
		if off == blockMask || j == n-1 {
			// The bottom of a block's final stack is its minimum.
			l.sparse[j>>blockBits] = int32(base + bits.TrailingZeros64(stack))
		}
	}
	for k := 1; k < levels; k++ {
		prev := l.sparse[levelStart(k-1, nb):]
		cur := l.sparse[levelStart(k, nb):levelStart(k+1, nb)]
		half := 1 << (k - 1)
		for b := range cur {
			x, y := prev[b], prev[b+half]
			if depth[y] < depth[x] {
				x = y
			}
			cur[b] = x
		}
	}
	return l
}

// levelStart is the offset of sparse-table level k. Level i has
// nb-2^i+1 entries, so the levels below k take k·(nb+1) - (2^k - 1).
func levelStart(k, nb int) int { return k*(nb+1) - (1<<k - 1) }

// Query returns the lowest common ancestor of u and v.
func (l *LCA) Query(u, v parsetree.NodeID) parsetree.NodeID {
	if u == v {
		return u
	}
	if u > v {
		u, v = v, u
	}
	return l.parent[l.shallowest(int(u)+1, int(v))]
}

// shallowest returns a node of least depth in the preorder range [i, j].
func (l *LCA) shallowest(i, j int) int32 {
	bi, bj := i>>blockBits, j>>blockBits
	if bi == bj {
		return inBlock(l.mask[j], i)
	}
	// bi < bj, so block bi is full.
	best := inBlock(l.mask[bi<<blockBits|blockMask], i)
	if c := inBlock(l.mask[j], bj<<blockBits); l.depth[c] < l.depth[best] {
		best = c
	}
	if bi+1 < bj {
		if c := l.acrossBlocks(bi+1, bj-1); l.depth[c] < l.depth[best] {
			best = c
		}
	}
	return best
}

// inBlock returns the shallowest node of [i, j] for i, j in one block,
// given mask = mask[j]: the lowest stacked node at or above i.
func inBlock(mask uint64, i int) int32 {
	return int32(i + bits.TrailingZeros64(mask>>(i&blockMask)))
}

// acrossBlocks returns the shallowest node of blocks a..b, a ≤ b, from
// two overlapping sparse-table cells.
func (l *LCA) acrossBlocks(a, b int) int32 {
	k := bits.Len(uint(b-a+1)) - 1
	row := l.sparse[levelStart(k, l.blocks):]
	x, y := row[a], row[b-(1<<k)+1]
	if l.depth[y] < l.depth[x] {
		x = y
	}
	return x
}

// Tree returns the tree this index was built for.
func (l *LCA) Tree() *parsetree.Tree { return l.tree }
