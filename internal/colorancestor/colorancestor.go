// Package colorancestor answers lowest colored ancestor queries: given a
// node v of the parse tree and a color a, find the lowest (reflexive)
// ancestor of v that carries color a. This is the query engine of the
// paper's §4.1 matcher (Theorem 4.2), with the Muthukrishnan–Müller bound
// (reference [23]): O(|t| + C) expected preprocessing, O(log log |t|) per
// query via van Emde Boas predecessor search.
//
// The reduction is the classical bracket trick. A single DFS counter
// assigns every node an open and a close timestamp, so each node is an
// interval and ancestorship is interval containment; the intervals are
// laminar. For a query (v, a), take the nearest color-a endpoint at or
// before open(v):
//
//   - no endpoint: no a-colored interval starts before v — no answer;
//   - an open endpoint of x: x's interval contains open(v) (its close
//     cannot lie in between, that close would be a nearer endpoint), and
//     no a-colored interval starts in between, so x is the lowest
//     a-colored ancestor;
//   - a close endpoint of x: every a-colored interval containing open(v)
//     must contain x (otherwise one of its endpoints would lie strictly
//     between), so the answer is x's precomputed lowest strict a-colored
//     ancestor.
//
// A binary-search predecessor backend is provided as the ablation baseline
// for experiment E5 (O(log n) instead of O(log log n)).
package colorancestor

import (
	"sort"

	"dregex/internal/ast"
	"dregex/internal/parsetree"
	"dregex/internal/veb"
)

// ColoredNode declares that Node carries color Sym; Payload is an opaque
// caller value (e.g. an index into matcher candidate tables) returned by
// queries. Payloads must be non-negative.
type ColoredNode struct {
	Sym     ast.Symbol
	Node    parsetree.NodeID
	Payload int32
}

// Options selects the predecessor backend.
type Options struct {
	// BinarySearch replaces the van Emde Boas predecessor structure with
	// sort.Search over the sorted endpoint list (ablation baseline).
	BinarySearch bool
}

// Index is a prebuilt lowest-colored-ancestor structure.
type Index struct {
	t   *parsetree.Tree
	opt Options

	tin, tout  []int32            // interleaved bracket timestamps, one counter
	nodeOfTime []parsetree.NodeID // owner of each timestamp

	start     []int32 // per color: segment into the entry arrays
	entryNode []parsetree.NodeID
	payload   []int32
	parent    []int32                      // entry index of lowest strict same-color ancestor, -1
	entryIdx  []map[parsetree.NodeID]int32 // per color: node → entry index
	times     []int32                      // per color segment: sorted endpoint timestamps
	tstart    []int32                      // per color: segment into times
	vebs      []*veb.Tree                  // per color, nil under BinarySearch
}

// Build preprocesses the colored node declarations in O(|t| + C) time
// (expected, due to hash-addressed vEB clusters and per-color maps).
func Build(t *parsetree.Tree, colored []ColoredNode, opt Options) *Index {
	sigma := t.Alpha.Size()
	n := t.N()
	ix := &Index{t: t, opt: opt}

	// Interleaved bracket numbering with a single counter.
	ix.tin = make([]int32, n)
	ix.tout = make([]int32, n)
	ix.nodeOfTime = make([]parsetree.NodeID, 2*n)
	{
		clock := int32(0)
		type frame struct {
			node parsetree.NodeID
			exit bool
		}
		stack := []frame{{t.Root, false}}
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if f.exit {
				ix.tout[f.node] = clock
				ix.nodeOfTime[clock] = f.node
				clock++
				continue
			}
			ix.tin[f.node] = clock
			ix.nodeOfTime[clock] = f.node
			clock++
			stack = append(stack, frame{f.node, true})
			if c := t.RChild[f.node]; c != parsetree.Null {
				stack = append(stack, frame{c, false})
			}
			if c := t.LChild[f.node]; c != parsetree.Null {
				stack = append(stack, frame{c, false})
			}
		}
	}

	// Group entries per color, nodes sorted by id (counting sort).
	perColor := make([][]ColoredNode, sigma)
	{
		counts := make([]int32, n+1)
		for _, c := range colored {
			counts[c.Node]++
		}
		var acc int32
		offs := make([]int32, n+1)
		for i := 0; i <= n; i++ {
			offs[i] = acc
			acc += counts[i]
		}
		sorted := make([]ColoredNode, len(colored))
		for _, c := range colored {
			sorted[offs[c.Node]] = c
			offs[c.Node]++
		}
		for _, c := range sorted {
			perColor[c.Sym] = append(perColor[c.Sym], c)
		}
	}

	ix.start = make([]int32, sigma+1)
	ix.tstart = make([]int32, sigma+1)
	ix.vebs = make([]*veb.Tree, sigma)
	ix.entryIdx = make([]map[parsetree.NodeID]int32, sigma)
	for sym := 0; sym < sigma; sym++ {
		ix.start[sym] = int32(len(ix.entryNode))
		ix.tstart[sym] = int32(len(ix.times))
		base := perColor[sym]
		if len(base) == 0 {
			continue
		}
		m := make(map[parsetree.NodeID]int32, len(base))
		var vb *veb.Tree
		if !opt.BinarySearch {
			vb = veb.New(2 * n)
		}
		for _, c := range base {
			gi := int32(len(ix.entryNode))
			ix.entryNode = append(ix.entryNode, c.Node)
			ix.payload = append(ix.payload, c.Payload)
			ix.parent = append(ix.parent, -1) // filled below
			m[c.Node] = gi
			if vb != nil {
				vb.Insert(int(ix.tin[c.Node]))
				vb.Insert(int(ix.tout[c.Node]))
			}
		}
		// Endpoint list sorted by time: entries are node-sorted, and for
		// laminar same-color intervals a merge of the tin order with the
		// reversed tout order is not simply concatenable — sort instead
		// (per color; the global bound stays O(C log C) worst case, and
		// O(C) with the vEB backend driving queries).
		seg := make([]int32, 0, 2*len(base))
		for _, c := range base {
			seg = append(seg, ix.tin[c.Node], ix.tout[c.Node])
		}
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		ix.times = append(ix.times, seg...)
		ix.vebs[sym] = vb
		ix.entryIdx[sym] = m
	}
	ix.start[sigma] = int32(len(ix.entryNode))
	ix.tstart[sigma] = int32(len(ix.times))

	// Group entry indices by node (counting sort) so the parent-pointer
	// DFS touches each entry O(1) times regardless of σ.
	entStart := make([]int32, n+1)
	entList := make([]int32, len(ix.entryNode))
	{
		counts := make([]int32, n+1)
		for _, nd := range ix.entryNode {
			counts[nd]++
		}
		var acc int32
		for i := 0; i <= n; i++ {
			entStart[i] = acc
			acc += counts[i]
		}
		offs := append([]int32(nil), entStart...)
		for gi, nd := range ix.entryNode {
			entList[offs[nd]] = int32(gi)
			offs[nd]++
		}
	}

	// parent pointers: one DFS with a per-color stack of innermost colored
	// entries (save/restore on a trail).
	{
		cur := make(map[ast.Symbol]int32, 8)
		type rec struct {
			sym ast.Symbol
			old int32
			ok  bool
		}
		var trail []rec
		type frame struct {
			node  parsetree.NodeID
			exit  bool
			saved int
		}
		stack := []frame{{t.Root, false, 0}}
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if f.exit {
				for len(trail) > f.saved {
					r := trail[len(trail)-1]
					trail = trail[:len(trail)-1]
					if r.ok {
						cur[r.sym] = r.old
					} else {
						delete(cur, r.sym)
					}
				}
				continue
			}
			saved := len(trail)
			node := f.node
			for k := entStart[node]; k < entStart[node+1]; k++ {
				gi := entList[k]
				sym := ix.symOfEntry(gi)
				old, had := cur[sym]
				if had {
					ix.parent[gi] = old
				}
				trail = append(trail, rec{sym, old, had})
				cur[sym] = gi
			}
			stack = append(stack, frame{node, true, saved})
			if c := t.RChild[node]; c != parsetree.Null {
				stack = append(stack, frame{c, false, 0})
			}
			if c := t.LChild[node]; c != parsetree.Null {
				stack = append(stack, frame{c, false, 0})
			}
		}
	}
	return ix
}

// symOfEntry returns the color of a global entry index via binary search on
// the per-color segment offsets.
func (ix *Index) symOfEntry(gi int32) ast.Symbol {
	lo, hi := 0, len(ix.start)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if ix.start[mid] <= gi {
			lo = mid
		} else {
			hi = mid
		}
	}
	return ast.Symbol(lo)
}

// Query returns the payload of the lowest (reflexive) ancestor of v colored
// a, and whether one exists. O(log log |t|) with the vEB backend.
func (ix *Index) Query(v parsetree.NodeID, a ast.Symbol) (int32, bool) {
	lo, hi := ix.start[a], ix.start[a+1]
	if lo == hi {
		return -1, false
	}
	q := ix.tin[v]
	var pstar int32 = -1
	if ix.opt.BinarySearch {
		seg := ix.times[ix.tstart[a]:ix.tstart[a+1]]
		i := sort.Search(len(seg), func(i int) bool { return seg[i] > q })
		if i > 0 {
			pstar = seg[i-1]
		}
	} else {
		if p := ix.vebs[a].PredLE(int(q)); p >= 0 {
			pstar = int32(p)
		}
	}
	if pstar < 0 {
		return -1, false
	}
	x := ix.nodeOfTime[pstar]
	gi := ix.entryIdx[a][x]
	if ix.tin[x] == pstar {
		// Open endpoint: x contains v and is the lowest a-colored node
		// doing so.
		return ix.payload[gi], true
	}
	// Close endpoint: hop to x's lowest strict a-colored ancestor.
	if p := ix.parent[gi]; p >= 0 {
		return ix.payload[p], true
	}
	return -1, false
}
