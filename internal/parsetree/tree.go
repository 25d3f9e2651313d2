// Package parsetree compiles a normalized regular expression into the
// array-based parse tree on which all algorithms of the paper operate.
//
// The tree realizes §2 of Groz/Maneth/Staworko (PODS 2012):
//
//   - rule (R1): the user expression e′ is wrapped as (#e′)$, with # and $
//     materialized as real positions;
//   - preorder/postorder numbering (for O(1) ancestor tests), depth;
//   - nullability, the SupFirst/SupLast predicates, and the pSupFirst,
//     pSupLast and pStar pointers of Lemma 2.3 / Theorem 2.4.
//
// Nodes are dense int32 ids in preorder, and all attributes live in
// parallel slices. One array builder fills them, in a single backward pass
// over postfix records (ast.Rec) that carry each node's nullability and
// subtree size. Parse feeds it straight from source text — the grammar's
// records brought into normal form by ast.AppendNormal, on pooled buffers —
// so compiling builds no pointer AST; Build and BuildNumeric feed it an
// ast.Node, and BuildNormal an ast.Node's normal form. A tree's int32
// attributes share one backing array and its flags another, so a tree is
// five allocations whatever its size.
package parsetree

import (
	"errors"
	"fmt"
	"sync"

	"dregex/internal/ast"
)

// NodeID indexes a node of the tree. Node ids equal preorder numbers.
type NodeID = int32

// Null is the absent-node sentinel returned by child/pointer accessors.
const Null NodeID = -1

// Op is the operator stored at a node.
type Op uint8

// Operators. OpSym marks a position (leaf).
const (
	OpSym Op = iota
	OpCat
	OpUnion
	OpOpt
	OpStar
	OpIter
)

func (o Op) String() string {
	switch o {
	case OpSym:
		return "sym"
	case OpCat:
		return "·"
	case OpUnion:
		return "+"
	case OpOpt:
		return "?"
	case OpStar:
		return "*"
	case OpIter:
		return "{i,j}"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Tree is the compiled parse tree of (#e′)$.
//
// All slices are indexed by NodeID. Child and pointer slices contain Null
// where the respective node does not exist. Because node ids are preorder
// numbers, a 4 b (a is an ancestor of b, reflexively) holds iff
// a ≤ b && Post[b] ≤ Post[a].
type Tree struct {
	Alpha *ast.Alphabet

	Op     []Op
	Sym    []ast.Symbol // symbol at leaves; -1 elsewhere
	Min    []int32      // OpIter lower bound; 0 elsewhere
	Max    []int32      // OpIter upper bound (IterUnbounded = ∞); 0 elsewhere
	Parent []NodeID
	LChild []NodeID
	RChild []NodeID
	Post   []int32 // postorder number
	Depth  []int32 // root has depth 0

	Nullable []bool
	SupFirst []bool
	SupLast  []bool

	// PSupFirst[n], PSupLast[n]: lowest (reflexive) ancestor of n that is a
	// SupFirst (resp. SupLast) node; Null above the topmost one.
	PSupFirst []NodeID
	PSupLast  []NodeID
	// PStar[n]: lowest (reflexive) ancestor labeled *; Null if none.
	PStar []NodeID
	// PLoop[n]: lowest (reflexive) ancestor that can loop, i.e. labeled *
	// or an OpIter with Max ≥ 2. Equals PStar for plain expressions; used
	// by the numeric pipeline (§3.3).
	PLoop []NodeID

	// PosNode[i] is the node of the i-th position in left-to-right order;
	// PosNode[0] is # and PosNode[len-1] is $.
	PosNode []NodeID
	// PosIndex[n] is the position index of leaf n, or -1 for inner nodes.
	PosIndex []int32

	// Root is the (#e′)$ concatenation; UserRoot is the root of e′.
	Root     NodeID
	UserRoot NodeID
}

// IterUnbounded is the Max value of an unbounded OpIter node.
const IterUnbounded = int32(ast.Unbounded)

// ErrIterUnsupported is returned by Build when the expression still
// contains numeric occurrence indicators.
var ErrIterUnsupported = errors.New("parsetree: numeric iteration requires BuildNumeric")

// Parse compiles source text in notation nt straight into a Tree, building
// no ast.Node: the grammar's postfix records (ast.AppendParse) are brought
// into normal form — rules (R2)/(R3) and e+ → e·e*, as
// ast.Normalize(ast.DesugarPlus(ast.Normalize(·))) would — by
// ast.AppendNormal, and the array builder fills the tree from them. The
// record buffers are pooled, so the tree's own arrays are the only
// allocations that grow with the expression. numeric admits iterations
// e{i,j} (BuildNumeric's input); without it they are ErrIterUnsupported.
// Errors are the grammar's *ast.ParseError and ast.ErrNesting,
// ast.ErrExpansionBudget and ErrIterUnsupported.
func Parse(source string, nt ast.Notation, numeric bool) (*Tree, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	alpha := ast.NewAlphabet()
	// The grammar's appends grow the pooled buffer, so a source rejected
	// early, at a nesting or syntax error, pays only for what was read.
	var err error
	if sc.raw, err = ast.AppendParse(sc.raw[:0], source, alpha, nt); err != nil {
		return nil, err
	}
	// Without nested e+, the normal form about doubles the records at most.
	sc.recs = reserve(sc.recs, 2*len(sc.raw))
	if sc.recs, err = ast.AppendNormal(sc.recs, sc.raw); err != nil {
		return nil, err
	}
	return sc.build(sc.recs, alpha, numeric)
}

// Build compiles a plain (star/opt/union/cat) expression. The input should
// already be in (R2)/(R3) normal form (ast.Normalize); Build wraps it per
// (R1) and rejects numeric iterations.
func Build(e *ast.Node, alpha *ast.Alphabet) (*Tree, error) {
	if err := ast.ValidatePlain(e); err != nil {
		return nil, ErrIterUnsupported
	}
	return buildNodes(e, alpha, false)
}

// BuildNumeric compiles an expression that may contain numeric occurrence
// indicators e{i,j} (paper §3.3). Bounds should be in normal form
// (Min ≥ 1, Max ≥ 2; see ast.Normalize).
func BuildNumeric(e *ast.Node, alpha *ast.Alphabet) (*Tree, error) {
	return buildNodes(e, alpha, false)
}

// BuildNormal compiles the normal form of e, numeric iterations admitted:
// the tree BuildNumeric(ast.Normalize(ast.DesugarPlus(ast.Normalize(e))))
// would build, through Parse's flat normal form (ast.AppendNormal) instead
// of the pointer rewrites. It fails with ast.ErrExpansionBudget as Parse
// does.
func BuildNormal(e *ast.Node, alpha *ast.Alphabet) (*Tree, error) {
	return buildNodes(e, alpha, true)
}

// buildNodes feeds a pointer tree, or its normal form, to the array
// builder Parse uses.
func buildNodes(e *ast.Node, alpha *ast.Alphabet, normalize bool) (*Tree, error) {
	if e == nil {
		return nil, errors.New("parsetree: nil expression")
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	var err error
	if sc.raw, err = ast.AppendNodes(sc.raw[:0], e); err != nil {
		return nil, err
	}
	if !normalize {
		return sc.build(sc.raw, alpha, true)
	}
	sc.recs = reserve(sc.recs, 2*len(sc.raw))
	if sc.recs, err = ast.AppendNormal(sc.recs, sc.raw); err != nil {
		return nil, err
	}
	return sc.build(sc.recs, alpha, true)
}

// reserve returns s emptied, with capacity for at least n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// scratch is the pooled working memory of Parse and Build: the grammar's
// records, the normalized records and the builder's preorder ids. None of
// it holds pointers, and none of it outlives the call.
type scratch struct {
	raw, recs []ast.Rec
	pre       []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// build is the array builder: it fills every Tree attribute from postfix
// records that carry Nullable and Size, in one pass.
//
// With m user records, the tree has n = m+4 nodes: the (R1) wrapper
// (#·e′)·$ takes preorder ids 0 (root), 1 (#·e′), 2 (#) and n−1 ($), and
// e′ takes 3…m+2. A record's postorder number is its index plus one (#
// comes first). Visiting the records backwards visits every node before
// its operands, so a node's preorder id is known when it is reached — its
// parent assigned it: the left operand follows the node, the right one
// follows the left operand's Size records — and so are its Depth, Parent,
// SupFirst/SupLast flag and its parent's pointers, which is all the
// top-down attributes need. Nullability comes stored in the records.
func (sc *scratch) build(recs []ast.Rec, alpha *ast.Alphabet, numeric bool) (*Tree, error) {
	m := len(recs)
	positions := 2 // # and $
	for _, r := range recs {
		switch r.Kind {
		case ast.KSym:
			positions++
		case ast.KIter:
			if !numeric {
				return nil, ErrIterUnsupported
			}
		}
	}
	n := m + 4
	t := newTree(alpha, n, positions)
	end := NodeID(n - 1)

	// The wrapper. #, $ and #·e′ are not nullable, so #·e′ is SupLast
	// (beside $), $ and e′ are SupFirst (beside #·e′ and #), and # is
	// SupLast unless e′ is nullable.
	t.Op[0], t.Parent[0], t.LChild[0], t.RChild[0], t.Post[0] = OpCat, Null, 1, end, int32(m+3)
	t.Op[1], t.Parent[1], t.LChild[1], t.RChild[1], t.Post[1], t.Depth[1] = OpCat, 0, 2, 3, int32(m+1), 1
	t.Sym[0], t.Sym[1], t.PosIndex[0], t.PosIndex[1] = -1, -1, -1, -1
	for _, l := range [2]NodeID{2, end} {
		t.Op[l], t.LChild[l], t.RChild[l] = OpSym, Null, Null
	}
	t.Sym[2], t.Parent[2], t.Post[2], t.Depth[2], t.PosIndex[2] = ast.Begin, 1, 0, 2, 0
	t.Sym[end], t.Parent[end], t.Post[end], t.Depth[end], t.PosIndex[end] = ast.End, 0, int32(m+2), 1, int32(positions-1)
	t.PosNode[0], t.PosNode[positions-1] = 2, end
	t.SupLast[1], t.SupFirst[end] = true, true
	t.SupLast[2], t.SupFirst[3] = !recs[m-1].Nullable, true
	t.Parent[3], t.Depth[3] = 1, 2
	for _, id := range [4]NodeID{0, 1, 2, end} {
		t.inherit(id)
	}

	sc.pre = reserve(sc.pre, m)[:m]
	pre := sc.pre
	pre[m-1] = 3
	k := int32(positions - 1)
	bad := Null // the first iteration, in preorder, not in normal form
	for i := m - 1; i >= 0; i-- {
		r := &recs[i]
		id := pre[i]
		t.Post[id] = int32(i + 1)
		t.Nullable[id] = r.Nullable
		t.Sym[id] = -1
		t.PosIndex[id] = -1
		t.LChild[id], t.RChild[id] = Null, Null
		switch r.Kind {
		case ast.KSym:
			t.Op[id] = OpSym
			t.Sym[id] = r.Sym
			k--
			t.PosIndex[id] = k
			t.PosNode[k] = id
		case ast.KCat, ast.KUnion:
			t.Op[id] = OpUnion
			ri, li := i-1, i-1-int(recs[i-1].Size)
			l, rc := id+1, id+1+recs[li].Size
			pre[li], pre[ri] = l, rc
			t.LChild[id], t.RChild[id] = l, rc
			t.Parent[l], t.Parent[rc] = id, id
			t.Depth[l], t.Depth[rc] = t.Depth[id]+1, t.Depth[id]+1
			if r.Kind == ast.KCat {
				t.Op[id] = OpCat
				t.SupFirst[rc] = !recs[li].Nullable
				t.SupLast[l] = !recs[ri].Nullable
			}
		default:
			switch r.Kind {
			case ast.KOpt:
				t.Op[id] = OpOpt
			case ast.KStar:
				t.Op[id] = OpStar
			default:
				t.Op[id] = OpIter
				t.Min[id], t.Max[id] = r.Min, r.Max
				if (r.Min < 1 || (r.Max != ast.Unbounded && r.Max < 2)) && (bad == Null || id < bad) {
					bad = id
				}
			}
			c := id + 1
			pre[i-1] = c
			t.LChild[id] = c
			t.Parent[c] = id
			t.Depth[c] = t.Depth[id] + 1
		}
		t.inherit(id)
	}
	if bad != Null {
		return nil, fmt.Errorf("parsetree: iteration bounds {%d,%d} not in normal form (run ast.Normalize)", t.Min[bad], t.Max[bad])
	}
	return t, nil
}

// newTree allocates a tree of n nodes and the given number of positions:
// its int32 arrays share one backing array, and so do its flags.
func newTree(alpha *ast.Alphabet, n, positions int) *Tree {
	ints := make([]int32, 12*n+positions)
	next := func(size int) []int32 {
		s := ints[:size:size]
		ints = ints[size:]
		return s
	}
	flags := make([]bool, 3*n)
	return &Tree{
		Alpha:     alpha,
		Op:        make([]Op, n),
		Sym:       make([]ast.Symbol, n),
		Min:       next(n),
		Max:       next(n),
		Parent:    next(n),
		LChild:    next(n),
		RChild:    next(n),
		Post:      next(n),
		Depth:     next(n),
		Nullable:  flags[:n:n],
		SupFirst:  flags[n : 2*n : 2*n],
		SupLast:   flags[2*n:],
		PSupFirst: next(n),
		PSupLast:  next(n),
		PStar:     next(n),
		PLoop:     next(n),
		PosNode:   next(positions),
		PosIndex:  next(n),
		Root:      0,
		UserRoot:  3,
	}
}

// inherit fills the pointer attributes of id from its own flags and its
// parent's pointers, which must already be final.
func (t *Tree) inherit(id NodeID) {
	op := t.Op[id]
	sf, sl, ps, pl := Null, Null, Null, Null
	if p := t.Parent[id]; p != Null {
		sf, sl, ps, pl = t.PSupFirst[p], t.PSupLast[p], t.PStar[p], t.PLoop[p]
	}
	if t.SupFirst[id] {
		sf = id
	}
	if t.SupLast[id] {
		sl = id
	}
	if op == OpStar {
		ps = id
	}
	if op == OpStar || (op == OpIter && t.Max[id] >= 2) {
		pl = id
	}
	t.PSupFirst[id], t.PSupLast[id], t.PStar[id], t.PLoop[id] = sf, sl, ps, pl
}

// N returns the number of nodes including the (R1) wrapper.
func (t *Tree) N() int { return len(t.Op) }

// NumPositions returns |Pos(e)| including the phantom # and $.
func (t *Tree) NumPositions() int { return len(t.PosNode) }

// BeginPos returns the node of the phantom # position.
func (t *Tree) BeginPos() NodeID { return t.PosNode[0] }

// EndPos returns the node of the phantom $ position.
func (t *Tree) EndPos() NodeID { return t.PosNode[len(t.PosNode)-1] }

// IsAncestor reports a 4 b: a is a (reflexive) ancestor of b. Either
// argument may be Null, in which case the answer is false.
func (t *Tree) IsAncestor(a, b NodeID) bool {
	if a == Null || b == Null {
		return false
	}
	return a <= b && t.Post[b] <= t.Post[a]
}

// IsPos reports whether n is a position (leaf).
func (t *Tree) IsPos(n NodeID) bool { return t.Op[n] == OpSym }

// InFirst reports p ∈ First(n) for a position p, via Lemma 2.3(1):
// p ∈ First(n) iff pSupFirst(p) 4 n 4 p.
func (t *Tree) InFirst(p, n NodeID) bool {
	return t.IsAncestor(t.PSupFirst[p], n) && t.IsAncestor(n, p)
}

// InLast reports p ∈ Last(n) for a position p, via Lemma 2.3(2).
func (t *Tree) InLast(p, n NodeID) bool {
	return t.IsAncestor(t.PSupLast[p], n) && t.IsAncestor(n, p)
}

// FirstWitness returns some position in First(n) (always non-empty).
func (t *Tree) FirstWitness(n NodeID) NodeID {
	for t.Op[n] != OpSym {
		n = t.LChild[n] // for every operator, First(L) ⊆ First(n)
	}
	return n
}

// LastWitness returns some position in Last(n).
func (t *Tree) LastWitness(n NodeID) NodeID {
	for t.Op[n] != OpSym {
		if t.Op[n] == OpCat {
			n = t.RChild[n] // Last(R) ⊆ Last(n)
		} else if t.Op[n] == OpUnion {
			n = t.RChild[n]
		} else {
			n = t.LChild[n]
		}
	}
	return n
}

// Label returns the display name of position p's symbol.
func (t *Tree) Label(p NodeID) string { return t.Alpha.Name(t.Sym[p]) }

// SubexprString renders the subexpression rooted at n in math notation;
// intended for error messages and debugging (recursive, so use on
// reasonably sized subtrees).
func (t *Tree) SubexprString(n NodeID) string {
	switch t.Op[n] {
	case OpSym:
		return t.Alpha.Name(t.Sym[n])
	case OpCat:
		return "(" + t.SubexprString(t.LChild[n]) + t.SubexprString(t.RChild[n]) + ")"
	case OpUnion:
		return "(" + t.SubexprString(t.LChild[n]) + "+" + t.SubexprString(t.RChild[n]) + ")"
	case OpOpt:
		return t.SubexprString(t.LChild[n]) + "?"
	case OpStar:
		return t.SubexprString(t.LChild[n]) + "*"
	case OpIter:
		if t.Max[n] == IterUnbounded {
			return fmt.Sprintf("%s{%d,}", t.SubexprString(t.LChild[n]), t.Min[n])
		}
		return fmt.Sprintf("%s{%d,%d}", t.SubexprString(t.LChild[n]), t.Min[n], t.Max[n])
	}
	return "?op?"
}
