// Package starfree implements Theorem 4.12 of the paper: matching N words
// against a star-free deterministic regular expression in combined time
// O(|e| + |w1| + … + |wN|).
//
// Two engines are provided. Scan is the single-word simulator sketched at
// the start of §4.4: in a star-free expression q ∈ Follow(p) implies that q
// comes after p in document order, so one monotone left-to-right sweep over
// the positions suffices (total O(|e| + |w|) per word). Batch is the
// multi-word algorithm: the expression is traversed once, all words advance
// together, and the words waiting for symbol a are parked in a dynamic
// a-skeleton — a set of positions closed under LCA, maintained with the
// rightmost-path stack — from which each processed position consumes
// exactly the entries it follows (Lemma 2.2, concatenation case only).
package starfree

import (
	"errors"
	"sync"

	"dregex/internal/ast"
	"dregex/internal/determinism"
	"dregex/internal/follow"
	"dregex/internal/parsetree"
	"dregex/internal/skeleton"
)

// ErrNotStarFree is returned when the expression contains ∗ (or a loopable
// numeric iteration).
var ErrNotStarFree = errors.New("starfree: expression contains a star")

// ErrNondeterministic is returned for nondeterministic expressions.
var ErrNondeterministic = errors.New("starfree: expression is not deterministic")

// validate checks star-freeness and determinism.
func validate(t *parsetree.Tree, fol *follow.Index) error {
	for n := parsetree.NodeID(0); n < parsetree.NodeID(t.N()); n++ {
		if t.Op[n] == parsetree.OpStar ||
			(t.Op[n] == parsetree.OpIter && t.Max[n] >= 2) {
			return ErrNotStarFree
		}
	}
	sks := skeleton.Build(t, fol, skeleton.Options{})
	if res := determinism.CheckSkeletons(t, sks, false); !res.Deterministic {
		return ErrNondeterministic
	}
	return nil
}

// Scan is the single-word star-free transition simulator. Next(p, a) scans
// document order strictly after p; because followers only lie to the right,
// a full word costs O(|e| + |w|) even though a single step may cost O(|e|).
type Scan struct {
	t   *parsetree.Tree
	fol *follow.Index
}

// NewScan validates and wraps the expression.
func NewScan(t *parsetree.Tree, fol *follow.Index) (*Scan, error) {
	if err := validate(t, fol); err != nil {
		return nil, err
	}
	return &Scan{t: t, fol: fol}, nil
}

// Tree implements match.TransitionSim.
func (s *Scan) Tree() *parsetree.Tree { return s.t }

// Start implements match.TransitionSim.
func (s *Scan) Start() parsetree.NodeID { return s.t.BeginPos() }

// Next scans forward from p for the a-labeled follower.
func (s *Scan) Next(p parsetree.NodeID, a ast.Symbol) parsetree.NodeID {
	t := s.t
	for i := int(t.PosIndex[p]) + 1; i < t.NumPositions(); i++ {
		q := t.PosNode[i]
		if t.Sym[q] == a && s.fol.CheckIfFollow(p, q) {
			return q
		}
	}
	return parsetree.Null
}

// Accept implements match.TransitionSim.
func (s *Scan) Accept(p parsetree.NodeID) bool {
	return s.fol.CheckIfFollow(p, s.t.EndPos())
}

// Batch matches many words in one traversal of the expression (§4.4). It
// is safe for concurrent use: per-call state lives in pooled scratch
// buffers, so steady-state MatchAll traffic (a cached expression matched
// per request) reuses the arena, skeleton and link slices grown by earlier
// calls instead of reallocating them — only the returned verdict slice is
// allocated per call.
type Batch struct {
	t       *parsetree.Tree
	fol     *follow.Index
	scratch sync.Pool // *batchScratch
}

// NewBatch validates and wraps the expression.
func NewBatch(t *parsetree.Tree, fol *follow.Index) (*Batch, error) {
	if err := validate(t, fol); err != nil {
		return nil, err
	}
	return &Batch{t: t, fol: fol}, nil
}

// dynamic skeleton node.
type dnode struct {
	enode    parsetree.NodeID
	par      int32
	lch, rch int32
	head     int32 // first waiting word, -1
	tail     int32
}

// dyn is one dynamic a-skeleton: node arena indices plus the rightmost
// path stack.
type dyn struct {
	stack []int32 // rightmost path, arena ids, shallow → deep
	root  int32   // arena id, -1 when empty
}

// batchScratch is the reusable per-call state of one MatchAll traversal.
type batchScratch struct {
	idx   []int32 // consumed prefix length per word
	next  []int32 // word list links, -1 end
	skels []dyn   // one dynamic skeleton per symbol
	arena []dnode
	walk  []int32
	// Per-symbol routing buckets (head/tail of a word list, -1 empty) plus
	// the list of symbols currently holding one — the allocation-free
	// replacement for a map[symbol]*bucket rebuilt per position.
	bHead, bTail []int32
	touched      []ast.Symbol
	// conv/syms back MatchAllNames: interned words are sliced out of one
	// flat symbol arena.
	conv [][]ast.Symbol
	syms []ast.Symbol
}

// getScratch returns a scratch with idx/next sized for n words and the
// per-symbol structures sized for the alphabet, reusing pooled buffers.
func (b *Batch) getScratch(n int) *batchScratch {
	sc, _ := b.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	sigma := b.t.Alpha.Size()
	if cap(sc.idx) < n {
		sc.idx = make([]int32, n)
		sc.next = make([]int32, n)
	}
	sc.idx = sc.idx[:n]
	sc.next = sc.next[:n]
	if len(sc.skels) < sigma {
		sc.skels = make([]dyn, sigma)
		sc.bHead = make([]int32, sigma)
		sc.bTail = make([]int32, sigma)
	}
	for i := range sc.skels {
		sc.skels[i].root = -1
		sc.skels[i].stack = sc.skels[i].stack[:0]
		sc.bHead[i] = -1
	}
	sc.arena = sc.arena[:0]
	sc.touched = sc.touched[:0]
	return sc
}

// MatchAll matches every word (of interned symbols) and returns one verdict
// per word. The expression is traversed once; total time is
// O(|e| + Σ|w_i|), except that locating a consumer's entry walks the
// skeleton's rightmost-path stack.
func (b *Batch) MatchAll(ws [][]ast.Symbol) []bool {
	sc := b.getScratch(len(ws))
	res := b.matchAll(ws, sc)
	b.scratch.Put(sc)
	return res
}

func (b *Batch) matchAll(ws [][]ast.Symbol, sc *batchScratch) []bool {
	t := b.t
	fol := b.fol
	res := make([]bool, len(ws))
	idx := sc.idx   // consumed prefix length
	next := sc.next // word list links, -1 end

	sigma := t.Alpha.Size()
	skels := sc.skels
	arena := sc.arena
	defer func() { sc.arena = arena }() // keep growth for the next call
	newNode := func(e parsetree.NodeID) int32 {
		arena = append(arena, dnode{enode: e, par: -1, lch: -1, rch: -1, head: -1, tail: -1})
		return int32(len(arena) - 1)
	}

	// insert parks position p with a word list in skeleton d, maintaining
	// LCA closure via the rightmost-path stack.
	insert := func(d *dyn, p parsetree.NodeID, head, tail int32) {
		nd := newNode(p)
		arena[nd].head, arena[nd].tail = head, tail
		if d.root == -1 {
			d.root = nd
			d.stack = append(d.stack[:0], nd)
			return
		}
		top := d.stack[len(d.stack)-1]
		l := fol.LCA.Query(arena[top].enode, p)
		var last int32 = -1
		for len(d.stack) > 0 {
			u := d.stack[len(d.stack)-1]
			if arena[u].enode == l || t.IsAncestor(arena[u].enode, l) {
				break
			}
			last = u
			d.stack = d.stack[:len(d.stack)-1]
		}
		attach := func(parent, child int32) {
			arena[child].par = parent
			pe := arena[parent].enode
			if lc := t.LChild[pe]; lc != parsetree.Null && t.IsAncestor(lc, arena[child].enode) {
				arena[parent].lch = child
			} else {
				arena[parent].rch = child
			}
		}
		if len(d.stack) > 0 && arena[d.stack[len(d.stack)-1]].enode == l {
			// The LCA node already exists; popped nodes stay linked below.
			attach(d.stack[len(d.stack)-1], nd)
		} else {
			ln := newNode(l)
			if last != -1 {
				// Relink the popped subtree under the fresh LCA node.
				if pp := arena[last].par; pp != -1 {
					if arena[pp].lch == last {
						arena[pp].lch = -1
					} else if arena[pp].rch == last {
						arena[pp].rch = -1
					}
				}
				attach(ln, last)
			}
			if len(d.stack) > 0 {
				attach(d.stack[len(d.stack)-1], ln)
			} else {
				d.root = ln
			}
			d.stack = append(d.stack, ln)
			attach(ln, nd)
		}
		d.stack = append(d.stack, nd)
	}

	// route sends a batch of words (linked list heads grouped per next
	// symbol) from position p onward; exhausted words are finalized. The
	// per-symbol buckets live in the scratch (bHead/bTail indexed by
	// symbol, touched listing the non-empty ones), so routing allocates
	// nothing.
	end := t.EndPos()
	flush := func(p parsetree.NodeID) {
		for _, a := range sc.touched {
			insert(&skels[a], p, sc.bHead[a], sc.bTail[a])
			sc.bHead[a] = -1
		}
		sc.touched = sc.touched[:0]
	}
	park := func(w int32, a ast.Symbol) {
		next[w] = -1
		if sc.bHead[a] == -1 {
			sc.bHead[a], sc.bTail[a] = w, w
			sc.touched = append(sc.touched, a)
		} else {
			next[sc.bTail[a]] = w
			sc.bTail[a] = w
		}
	}
	route := func(p parsetree.NodeID, head int32) {
		for w := head; w != -1; {
			nw := next[w]
			word := ws[w]
			if int(idx[w]) == len(word) {
				res[w] = fol.CheckIfFollow(p, end)
			} else {
				a := word[idx[w]]
				if a >= ast.FirstUser && int(a) < sigma {
					park(w, a)
				}
			}
			w = nw
		}
		flush(p)
	}

	// Seed: all words sit at # expecting their first symbol.
	for w := range ws {
		idx[w] = 0
		next[w] = -1
		if len(ws[w]) == 0 {
			res[w] = fol.CheckIfFollow(t.BeginPos(), end)
			continue
		}
		if a := ws[w][0]; a >= ast.FirstUser && int(a) < sigma {
			park(int32(w), a)
		}
	}
	flush(t.BeginPos())

	// One pass over the user positions in document order.
	var consumedHead, consumedTail int32
	walk := sc.walk
	defer func() { sc.walk = walk }()
	consumeSubtree := func(rootIdx int32, barrier parsetree.NodeID) {
		walk = append(walk[:0], rootIdx)
		for len(walk) > 0 {
			u := walk[len(walk)-1]
			walk = walk[:len(walk)-1]
			nu := &arena[u]
			if nu.head != -1 && t.IsAncestor(t.PSupLast[nu.enode], barrier) {
				// q ∈ Last(barrier): its words advance.
				if consumedHead == -1 {
					consumedHead, consumedTail = nu.head, nu.tail
				} else {
					next[consumedTail] = nu.head
					consumedTail = nu.tail
				}
			}
			// Entries failing the barrier are dead: no later position can
			// follow them either (see the §4.4 discard argument).
			if nu.lch != -1 {
				walk = append(walk, nu.lch)
			}
			if nu.rch != -1 {
				walk = append(walk, nu.rch)
			}
		}
	}

	for i := 1; i < t.NumPositions()-1; i++ {
		p := t.PosNode[i]
		a := t.Sym[p]
		d := &skels[a]
		if d.root == -1 {
			continue
		}
		consumedHead, consumedTail = -1, -1
		ni := t.Parent[t.PSupFirst[p]]

		top := d.stack[len(d.stack)-1]
		nLCA := fol.LCA.Query(arena[top].enode, p)
		// Locate v: the shallowest stack node inside nLCA's subtree.
		j := len(d.stack)
		for j > 0 && t.IsAncestor(nLCA, arena[d.stack[j-1]].enode) {
			j--
		}
		if j < len(d.stack) {
			v := d.stack[j]
			if t.Op[nLCA] == parsetree.OpCat &&
				t.IsAncestor(t.PSupFirst[p], t.RChild[nLCA]) {
				if arena[v].enode == nLCA {
					if lc := arena[v].lch; lc != -1 {
						consumeSubtree(lc, t.LChild[nLCA])
						arena[v].lch = -1
					}
					d.stack = d.stack[:j+1]
				} else {
					consumeSubtree(v, t.LChild[nLCA])
					if pp := arena[v].par; pp != -1 {
						if arena[pp].lch == v {
							arena[pp].lch = -1
						} else if arena[pp].rch == v {
							arena[pp].rch = -1
						}
					}
					d.stack = d.stack[:j]
					if len(d.stack) == 0 {
						d.root = -1
					}
				}
			}
		}
		// Climb the remaining spine up to ni, consuming left hangs.
		for k := min(j, len(d.stack)) - 1; k >= 0; k-- {
			u := d.stack[k]
			ue := arena[u].enode
			if !t.IsAncestor(ni, ue) {
				break
			}
			if t.Op[ue] == parsetree.OpCat &&
				t.IsAncestor(t.PSupFirst[p], t.RChild[ue]) {
				if lc := arena[u].lch; lc != -1 {
					consumeSubtree(lc, t.LChild[ue])
					arena[u].lch = -1
				}
			}
		}
		// Advance the consumed words and park them at p.
		if consumedHead != -1 {
			for w := consumedHead; w != -1; w = next[w] {
				idx[w]++
			}
			route(p, consumedHead)
		}
	}
	return res
}

// MatchAllNames is MatchAll over words given as symbol-name slices. Words
// are interned into one pooled flat symbol arena (names outside the user
// alphabet map to sentinels every routing step skips, so such words simply
// never reach acceptance), keeping the per-call allocation to the returned
// verdict slice.
func (b *Batch) MatchAllNames(ws [][]string) []bool {
	alpha := b.t.Alpha
	sc := b.getScratch(len(ws))
	conv := sc.conv[:0]
	syms := sc.syms[:0]
	for _, w := range ws {
		start := len(syms)
		// LookupWord may grow syms; earlier conv entries keep aliasing the
		// superseded backing array, which still holds their data.
		syms = alpha.LookupWord(syms, w)
		conv = append(conv, syms[start:len(syms):len(syms)])
	}
	sc.conv, sc.syms = conv, syms
	res := b.matchAll(conv, sc)
	// Drop the interned words before pooling: conv aliases per-call data.
	for i := range conv {
		conv[i] = nil
	}
	b.scratch.Put(sc)
	return res
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
