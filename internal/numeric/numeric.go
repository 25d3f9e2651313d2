// Package numeric implements §3.3 of the paper: deciding determinism of
// regular expressions with XML-Schema numeric occurrence indicators e{m,n}
// in O(|e|) time — improving the O(σ|e|) of Kilpeläinen [18] — plus
// counter-based matching.
//
// Semantics and spec. The determinism *spec* for counted expressions is
// determinism of the canonical unrolling
// (e{m,n} = e·…·e·(e(e(…)?)?)?, e{m,∞} = e·…·e·e*), which the test suite
// evaluates with the already-validated plain linear checker. The linear
// counted checker reproduces that verdict directly on the counted parse
// tree:
//
//   - loop candidates propagate through every iteration with Max ≥ 2
//     exactly as through ∗ (a first iteration can always loop);
//   - the Witness/Next and Witness/FirstPos-through-ancestor-loop cases of
//     Algorithm 2 apply with pStar generalized to the lowest loop node;
//   - one genuinely new case appears (the paper's "flexible iterations"):
//     Witness against FirstPos through a loop at a *descendant* iteration
//     s of the colored node. Because such an s is non-nullable, it blocks
//     the pSupFirst chains that make the ∗ analysis work, and the
//     competition is live only when s can loop and exit on the same
//     counter value — i.e. when s is flexible: Min < Max, or a nullable
//     body lets empty iterations pad the count.
//
// The descendant-loop case walks one ancestor chain bounded by the parse
// tree depth, so the implementation is O(|e| + D·|colored|) with D the
// tree depth — linear for the bounded-depth content models the paper
// targets, not for arbitrarily deep counted expressions.
package numeric

import (
	"sync"

	"dregex/internal/ast"
	"dregex/internal/determinism"
	"dregex/internal/follow"
	"dregex/internal/parsetree"
	"dregex/internal/skeleton"
)

// Counted is a compiled expression with numeric occurrence indicators.
type Counted struct {
	Alpha *ast.Alphabet
	Tree  *parsetree.Tree
	Fol   *follow.Index

	// chainOf[p] lists the OpIter ancestors of each position, outermost
	// first (the layout of a configuration's counter vector); nil for
	// non-position nodes. maxChain is the longest such chain.
	chainOf  [][]parsetree.NodeID
	maxChain int
	// bySym[a] lists the positions labeled a, in position order — the
	// candidate targets of one Feed step (the phantom $ included, for the
	// Accepts probe; # is never a target).
	bySym [][]parsetree.NodeID

	det *determinism.Result

	// dfa is the configuration DFA (dfa.go), built lazily under dfaOnce
	// on the first stream Init, so determinism-only workloads never pay
	// for it; nil when the stream simulates. noDFA disables it (tests
	// force the simulation).
	dfaOnce sync.Once
	dfa     *dfa
	noDFA   bool
}

// Compile normalizes (as ast.Normalize does: Min ≥ 1, Max ≥ 2 for every
// surviving iteration) and preprocesses e, then runs the linear §3.3
// determinism test.
func Compile(e *ast.Node, alpha *ast.Alphabet) (*Counted, error) {
	tree, err := parsetree.BuildNormal(e, alpha)
	if err != nil {
		return nil, err
	}
	return FromTree(tree), nil
}

// FromTree preprocesses a normalized counted parse tree (as
// parsetree.Parse or BuildNormal builds it) and runs the linear §3.3
// determinism test.
func FromTree(tree *parsetree.Tree) *Counted {
	c := &Counted{
		Alpha: tree.Alpha,
		Tree:  tree,
		Fol:   follow.New(tree),
	}
	c.fillChains()
	c.fillBySym()
	c.det = c.check()
	return c
}

// fillChains sets chainOf in one preorder pass that keeps the open
// iterations on a stack. Positions under the same iterations share one
// run of the backing array, and a run that ends the array grows in place
// when an iteration nests below it, so a chain of nested iterations is
// stored once however deep it is. The pass runs twice: to size the
// backing array, then to fill it.
func (c *Counted) fillChains() {
	t := c.Tree
	c.chainOf = make([][]parsetree.NodeID, t.N())
	var stack []parsetree.NodeID
	walk := func(backing []parsetree.NodeID) int {
		stack = stack[:0]
		used, off, run := 0, 0, 0 // backing[off:off+run] == stack[:run]
		for x := parsetree.NodeID(0); x < parsetree.NodeID(t.N()); x++ {
			for len(stack) > 0 && !t.IsAncestor(stack[len(stack)-1], x) {
				stack = stack[:len(stack)-1]
			}
			run = min(run, len(stack))
			switch t.Op[x] {
			case parsetree.OpIter:
				stack = append(stack, x)
			case parsetree.OpSym:
				d := len(stack)
				if d == 0 {
					continue
				}
				if run < d {
					if off+run != used {
						off, run = used, 0
					}
					if backing != nil {
						copy(backing[off+run:], stack[run:])
					}
					used, run = off+d, d
				}
				if backing != nil {
					c.chainOf[x] = backing[off : off+d : off+d]
				}
				c.maxChain = max(c.maxChain, d)
			}
		}
		return used
	}
	if size := walk(nil); size > 0 {
		walk(make([]parsetree.NodeID, size))
	}
}

// fillBySym sets bySym by a counting sort of the positions (# excluded)
// into one backing array, so each list keeps position order.
func (c *Counted) fillBySym() {
	t := c.Tree
	sigma := t.Alpha.Size()
	c.bySym = make([][]parsetree.NodeID, sigma)
	counts := make([]int32, sigma)
	for _, p := range t.PosNode[1:] {
		counts[t.Sym[p]]++
	}
	backing := make([]parsetree.NodeID, len(t.PosNode)-1)
	off := int32(0)
	for a, n := range counts {
		c.bySym[a] = backing[off : off : off+n]
		off += n
	}
	for _, p := range t.PosNode[1:] {
		c.bySym[t.Sym[p]] = append(c.bySym[t.Sym[p]], p)
	}
}

// CompileString parses math-notation source and compiles it.
func CompileString(src string) (*Counted, error) {
	alpha := ast.NewAlphabet()
	e, err := ast.ParseMath(src, alpha)
	if err != nil {
		return nil, err
	}
	return Compile(e, alpha)
}

// IsDeterministic reports the linear-test verdict.
func (c *Counted) IsDeterministic() bool { return c.det.Deterministic }

// Result exposes the detailed verdict (rule and candidate positions).
func (c *Counted) Result() *determinism.Result { return c.det }

// flexible reports whether iteration s can loop and exit on a common
// counter value, i.e. Min < Max. (Iterations with nullable bodies are
// flexible too, but they are unconditionally nondeterministic — rule N1 —
// so they never reach the flexibility checks.)
func (c *Counted) flexible(s parsetree.NodeID) bool {
	t := c.Tree
	return t.Op[s] == parsetree.OpIter && t.Max[s] > t.Min[s]
}

// check runs the §3.3 determinism test.
func (c *Counted) check() *determinism.Result {
	t := c.Tree
	sks := skeleton.Build(t, c.Fol, skeleton.Options{NumericLoops: true})
	if v := sks.NonDet; v != nil {
		return &determinism.Result{Rule: v.Rule, Q1: v.Q1, Q2: v.Q2}
	}

	// Rule N1: an iteration with a nullable body is ambiguous in itself —
	// empty iterations pad the counter, so the same input reaches the same
	// position with different counter values (distinct unrolled copies).
	// After normalization every iteration has Max ≥ 2, so no further
	// condition is needed.
	for n := parsetree.NodeID(0); n < parsetree.NodeID(t.N()); n++ {
		if t.Op[n] == parsetree.OpIter && t.Nullable[t.LChild[n]] {
			w := t.FirstWitness(n)
			return &determinism.Result{Rule: "nullable-iter-body", Q1: w, Q2: w, Node: n}
		}
	}

	// Rule N2: nested loop levels conflict when a position in Last(s2) can
	// loop at s1 and at s2 simultaneously with diverging counters. With s2
	// the lowest loop strictly above s1, the pair conflicts iff First and
	// Last of s1 survive to s2 (pointer checks) and either s1 is a
	// flexible iteration (it can loop and be exited on one counter value)
	// or s1 is a ∗ under an iteration (whose counter diverges between the
	// two routes). Rigid iterations make the two routes counter-disjoint;
	// star-under-star is the classical deterministic nesting.
	for s1 := parsetree.NodeID(0); s1 < parsetree.NodeID(t.N()); s1++ {
		if t.PLoop[s1] != s1 {
			continue // not a loop node
		}
		p := t.Parent[s1]
		if p == parsetree.Null {
			continue
		}
		s2 := t.PLoop[p]
		if s2 == parsetree.Null {
			continue
		}
		if !t.IsAncestor(t.PSupFirst[s1], s2) || !t.IsAncestor(t.PSupLast[s1], s2) {
			continue
		}
		conflict := c.flexible(s1) ||
			(t.Op[s1] == parsetree.OpStar && t.Op[s2] == parsetree.OpIter)
		if conflict {
			w := t.FirstWitness(s1)
			return &determinism.Result{Rule: "nested-loops", Q1: w, Q2: w, Node: s1}
		}
	}
	// Rule N3 — the universal flexible-iteration conflict. At a flexible
	// iteration s, FirstPos(s,a) follows every p ∈ Last(s) by looping
	// (counter < Max) while Next(s,a) follows the same p by exiting
	// (counter ≥ Min); Min < Max makes both live at once. Algorithm 1 has
	// already aggregated exactly these two candidates at s's skeleton
	// nodes, so the rule is a linear scan. It subsumes the paper's
	// descendant-loop cases ((ii-b) and friends); the explicit variants
	// below remain for diagnosis precision.
	for i := range sks.ENode {
		s1 := sks.ENode[i]
		if c.flexible(s1) &&
			sks.First[i] != parsetree.Null && sks.Next[i] != parsetree.Null {
			return &determinism.Result{Rule: "flex-loop-exit",
				Q1: sks.First[i], Q2: sks.Next[i], Node: s1}
		}
	}

	for _, cn := range sks.ColoredNodes {
		n := cn.Node
		w := sks.Wit[cn.Sk]
		f := sks.First[cn.Sk]
		rchild := t.RChild[n]
		// Case (i-b): the witness's SupFirst node is itself a flexible
		// iteration S′ = Rchild(n). Any p ∈ Last(S′) is followed by W via
		// an S′ loop (counter < Max) and by Next(n,a) via an S′ exit
		// (counter ≥ Min); with Min < Max both are live at once. The ∗
		// version of this conflict is absorbed by case (i) because ∗ is
		// nullable; a non-nullable iteration needs the explicit rule.
		if c.flexible(rchild) {
			if nx := sks.Next[cn.Sk]; nx != parsetree.Null {
				return &determinism.Result{Rule: "W-N-flex", Q1: w, Q2: nx, Node: n, Sym: cn.Sym}
			}
			// (ii-a) with the loop at Rchild(n) itself: W via an Rchild
			// loop vs FirstPos via an enclosing loop S — live together
			// exactly when Rchild is flexible.
			f := sks.First[cn.Sk]
			s := t.PLoop[n]
			if f != parsetree.Null && s != parsetree.Null && f != w &&
				t.IsAncestor(t.PSupFirst[f], s) &&
				t.IsAncestor(t.PSupLast[n], s) {
				return &determinism.Result{Rule: "W-F-rflex", Q1: w, Q2: f, Node: n, Sym: cn.Sym}
			}
		}
		if t.Nullable[rchild] {
			// Case (i): Witness vs Next.
			if nx := sks.Next[cn.Sk]; nx != parsetree.Null {
				return &determinism.Result{Rule: "W-N", Q1: w, Q2: nx, Node: n, Sym: cn.Sym}
			}
			// Case (ii-a): Witness vs FirstPos through an ancestor loop.
			s := t.PLoop[n]
			if f != parsetree.Null && s != parsetree.Null && f != w &&
				t.IsAncestor(t.PSupFirst[f], s) &&
				t.IsAncestor(t.PSupLast[n], s) {
				return &determinism.Result{Rule: "W-F", Q1: w, Q2: f, Node: n, Sym: cn.Sym}
			}
		}
		// Case (ii-b): Witness vs FirstPos through a flexible descendant
		// loop s on the chain from F up to Lchild(n). A SupLast node
		// strictly between kills lower candidates (their Last positions
		// cannot reach Lchild(n)); the top node m survives its own
		// SupLast flag.
		if f != parsetree.Null && f != w {
			m := t.LChild[n]
			if t.IsAncestor(m, f) {
				alive := false
				for x := f; x != parsetree.Null; x = t.Parent[x] {
					if x == m {
						if c.flexible(x) {
							alive = true
						}
						break
					}
					if c.flexible(x) {
						alive = true
					}
					if t.SupLast[x] {
						alive = false
					}
				}
				if alive {
					return &determinism.Result{Rule: "W-F-flex", Q1: w, Q2: f, Node: n, Sym: cn.Sym}
				}
			}
		}
	}
	return &determinism.Result{Deterministic: true}
}

// Stats reports counter-specific structure.
type Stats struct {
	Iterations int
	Flexible   int
	MaxBound   int32
	Unbounded  bool
}

// Stats summarizes the iteration structure.
func (c *Counted) Stats() Stats {
	t := c.Tree
	var s Stats
	for n := parsetree.NodeID(0); n < parsetree.NodeID(t.N()); n++ {
		if t.Op[n] != parsetree.OpIter {
			continue
		}
		s.Iterations++
		if c.flexible(n) {
			s.Flexible++
		}
		if t.Max[n] == parsetree.IterUnbounded {
			s.Unbounded = true
		} else if t.Max[n] > s.MaxBound {
			s.MaxBound = t.Max[n]
		}
	}
	return s
}
