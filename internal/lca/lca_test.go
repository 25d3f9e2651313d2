package lca

import (
	"math/rand"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/parsetree"
	"dregex/internal/wordgen"
)

func buildTree(t *testing.T, expr string) *parsetree.Tree {
	t.Helper()
	alpha := ast.NewAlphabet()
	e := ast.Normalize(ast.MustParseMath(expr, alpha))
	tr, err := parsetree.Build(e, alpha)
	if err != nil {
		t.Fatalf("Build(%q): %v", expr, err)
	}
	return tr
}

// naiveLCA walks parent pointers.
func naiveLCA(tr *parsetree.Tree, u, v parsetree.NodeID) parsetree.NodeID {
	anc := map[parsetree.NodeID]bool{}
	for x := u; x != parsetree.Null; x = tr.Parent[x] {
		anc[x] = true
	}
	for x := v; x != parsetree.Null; x = tr.Parent[x] {
		if anc[x] {
			return x
		}
	}
	return parsetree.Null
}

func TestLCAExhaustiveSmall(t *testing.T) {
	exprs := []string{
		"a",
		"ab",
		"(c?((ab*)(a?c)))*(ba)",
		"(ab+b(b?)a)*",
		"((a+b)?c)*d?",
		"a?b?c?d?e?",
	}
	for _, expr := range exprs {
		tr := buildTree(t, expr)
		idx := New(tr)
		n := parsetree.NodeID(tr.N())
		for u := parsetree.NodeID(0); u < n; u++ {
			for v := parsetree.NodeID(0); v < n; v++ {
				got := idx.Query(u, v)
				want := naiveLCA(tr, u, v)
				if got != want {
					t.Fatalf("%s: LCA(%d,%d) = %d, want %d", expr, u, v, got, want)
				}
			}
		}
	}
}

func TestLCARandomLarge(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		alpha := ast.NewAlphabet()
		e := ast.Normalize(wordgen.RandomExpr(r, alpha, wordgen.ExprConfig{
			Symbols:  6,
			MaxNodes: 400,
		}))
		tr, err := parsetree.Build(e, alpha)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		idx := New(tr)
		n := tr.N()
		for q := 0; q < 2000; q++ {
			u := parsetree.NodeID(r.Intn(n))
			v := parsetree.NodeID(r.Intn(n))
			got := idx.Query(u, v)
			want := naiveLCA(tr, u, v)
			if got != want {
				t.Fatalf("trial %d: LCA(%d,%d) = %d, want %d", trial, u, v, got, want)
			}
		}
	}
}

func TestLCAProperties(t *testing.T) {
	tr := buildTree(t, "(a(b?c)*)+(d(e+f)?)*")
	idx := New(tr)
	n := parsetree.NodeID(tr.N())
	for u := parsetree.NodeID(0); u < n; u++ {
		if idx.Query(u, u) != u {
			t.Fatalf("LCA(%d,%d) != %d", u, u, u)
		}
		if idx.Query(tr.Root, u) != tr.Root {
			t.Fatal("LCA with root must be root")
		}
		for v := parsetree.NodeID(0); v < n; v++ {
			l := idx.Query(u, v)
			if l != idx.Query(v, u) {
				t.Fatal("LCA not symmetric")
			}
			if !tr.IsAncestor(l, u) || !tr.IsAncestor(l, v) {
				t.Fatal("LCA is not a common ancestor")
			}
			// An ancestor of u that is an ancestor of v must be above l.
			if tr.IsAncestor(u, v) && l != u {
				t.Fatal("LCA of ancestor pair must be the ancestor")
			}
		}
	}
	if idx.Tree() != tr {
		t.Fatal("Tree() identity")
	}
}

func TestMixedContentScale(t *testing.T) {
	// A large balanced union under a star: thousands of nodes, so queries
	// cross many of the range-minimum index's 64-node blocks.
	alpha := ast.NewAlphabet()
	e := wordgen.MixedContent(alpha, 3000)
	tr, err := parsetree.Build(ast.Normalize(e), alpha)
	if err != nil {
		t.Fatal(err)
	}
	idx := New(tr)
	r := rand.New(rand.NewSource(9))
	for q := 0; q < 5000; q++ {
		u := parsetree.NodeID(r.Intn(tr.N()))
		v := parsetree.NodeID(r.Intn(tr.N()))
		l := idx.Query(u, v)
		if !tr.IsAncestor(l, u) || !tr.IsAncestor(l, v) {
			t.Fatalf("LCA(%d,%d)=%d is not a common ancestor", u, v, l)
		}
		// Lowest: neither child of l on the u/v sides is a common ancestor.
		if l != u && l != v {
			lc, rc := tr.LChild[l], tr.RChild[l]
			for _, c := range []parsetree.NodeID{lc, rc} {
				if c != parsetree.Null && tr.IsAncestor(c, u) && tr.IsAncestor(c, v) {
					t.Fatalf("LCA(%d,%d)=%d not lowest", u, v, l)
				}
			}
		}
	}
}

// exactTree builds a random tree of exactly n nodes; n ≥ 5, since the (R1)
// wrapper adds four nodes around the user expression.
func exactTree(t *testing.T, r *rand.Rand, n int) *parsetree.Tree {
	t.Helper()
	alpha := ast.NewAlphabet()
	var gen func(size int) *ast.Node
	gen = func(size int) *ast.Node {
		if size == 1 {
			return ast.Sym(alpha.Intern(wordgen.SymbolName(r.Intn(8))))
		}
		if size == 2 || r.Intn(4) == 0 {
			if r.Intn(2) == 0 {
				return ast.Opt(gen(size - 1))
			}
			return ast.Star(gen(size - 1))
		}
		left := 1 + r.Intn(size-2)
		if r.Intn(2) == 0 {
			return ast.Cat(gen(left), gen(size-1-left))
		}
		return ast.Union(gen(left), gen(size-1-left))
	}
	tr, err := parsetree.Build(gen(n-4), alpha)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tr.N() != n {
		t.Fatalf("built %d nodes, want %d", tr.N(), n)
	}
	return tr
}

// checkAgainstNaive compares the index with naiveLCA. Trees of up to two
// blocks and a bit are checked exhaustively; larger ones on query pairs
// inside one 64-node block, in adjacent blocks, three or more blocks
// apart, and straddling every block boundary.
func checkAgainstNaive(t *testing.T, name string, tr *parsetree.Tree, r *rand.Rand) {
	t.Helper()
	idx := New(tr)
	n := tr.N()
	check := func(u, v int) {
		t.Helper()
		got := idx.Query(parsetree.NodeID(u), parsetree.NodeID(v))
		if want := naiveLCA(tr, parsetree.NodeID(u), parsetree.NodeID(v)); got != want {
			t.Fatalf("%s (%d nodes): LCA(%d,%d) = %d, want %d", name, n, u, v, got, want)
		}
	}
	if n <= 130 {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				check(u, v)
			}
		}
		return
	}
	const b = 64
	nb := (n + b - 1) / b
	in := func(blk int) int { return blk*b + r.Intn(min(b, n-blk*b)) }
	for blk := 0; blk < nb; blk++ {
		lo, hi := blk*b, min(blk*b+b, n)-1
		check(lo, hi)
		if blk > 0 {
			check(lo-1, lo)
			check(lo-1, hi)
			check(lo-b, hi)
		}
	}
	for q := 0; q < 400; q++ {
		blk := r.Intn(nb)
		check(in(blk), in(blk))
		if blk+1 < nb {
			check(in(blk), in(blk+1))
			check(in(blk+1), in(blk))
		}
		if blk+3 < nb {
			check(in(blk), in(blk+3+r.Intn(nb-blk-3)))
		}
	}
}

func TestLCABlockEdges(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	// A whole number of 64-node blocks, and one node either side.
	for _, n := range []int{63, 64, 65, 128, 129, 4097} {
		for shape := 0; shape < 3; shape++ {
			checkAgainstNaive(t, "random", exactTree(t, r, n), r)
		}
	}
}

func TestLCADeepChains(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	alpha := ast.NewAlphabet()
	syms := make([]*ast.Node, 300)
	for i := range syms {
		syms[i] = ast.Sym(alpha.Intern(wordgen.SymbolName(i)))
	}
	right := syms[len(syms)-1]
	for i := len(syms) - 2; i >= 0; i-- {
		right = ast.Cat(syms[i], right)
	}
	for _, c := range []struct {
		name string
		e    *ast.Node
	}{
		{"left chain", ast.CatAll(syms...)},
		{"right chain", right},
		{"starred left chain", ast.Star(ast.Opt(ast.CatAll(syms...)))},
	} {
		tr, err := parsetree.Build(c.e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		depth := int32(0)
		for _, d := range tr.Depth {
			depth = max(depth, d)
		}
		if depth <= 64 {
			t.Fatalf("%s: depth %d, want a tree deeper than one block", c.name, depth)
		}
		checkAgainstNaive(t, c.name, tr, r)
	}
}

func TestLCANumericTrees(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 12; trial++ {
		alpha := ast.NewAlphabet()
		e := wordgen.RandomExpr(r, alpha, wordgen.ExprConfig{
			Symbols:   6,
			MaxNodes:  50 + r.Intn(1500),
			AllowIter: true,
			IterMax:   5,
		})
		tr, err := parsetree.BuildNumeric(ast.Normalize(ast.DesugarPlus(ast.Normalize(e))), alpha)
		if err != nil {
			t.Fatalf("BuildNumeric: %v", err)
		}
		checkAgainstNaive(t, "numeric", tr, r)
	}
}
