package colored

import (
	"math/rand"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/match"
	"dregex/internal/parsetree"
	"dregex/internal/wordgen"
)

// TestExample41 replays Example 4.1 of the paper on Figure 1's e0: from p3
// reading c must reach p5 (the Witness candidate); from p5 reading a must
// reach p2 (the FirstPos candidate).
func TestExample41(t *testing.T) {
	alpha := ast.NewAlphabet()
	tr, err := parsetree.Build(ast.Normalize(
		ast.MustParseMath("(c?((ab*)(a?c)))*(ba)", alpha)), alpha)
	if err != nil {
		t.Fatal(err)
	}
	fol := follow.New(tr)
	m := New(tr, fol, Options{})
	c, _ := alpha.Lookup("c")
	a, _ := alpha.Lookup("a")
	p := func(i int) parsetree.NodeID { return tr.PosNode[i] }
	if got := m.Next(p(3), c); got != p(5) {
		t.Errorf("Next(p3, c) = %d, want p5=%d", got, p(5))
	}
	if got := m.Next(p(5), a); got != p(2) {
		t.Errorf("Next(p5, a) = %d, want p2=%d", got, p(2))
	}
	// And the whole-word sanity: c a b b a c then b a.
	if !match.Chars(m, "cabbacba") {
		t.Error("e0 must accept cabbacba")
	}
}

// TestLargeAlphabet stresses the per-color structures: mixed content over
// 20k symbols, transitions on every symbol.
func TestLargeAlphabet(t *testing.T) {
	alpha := ast.NewAlphabet()
	const m = 20000
	tr, err := parsetree.Build(ast.Normalize(wordgen.MixedContent(alpha, m)), alpha)
	if err != nil {
		t.Fatal(err)
	}
	fol := follow.New(tr)
	for _, binary := range []bool{false, true} {
		cm := New(tr, fol, Options{BinarySearch: binary})
		r := rand.New(rand.NewSource(701))
		p := cm.Start()
		for step := 0; step < 5000; step++ {
			sym, _ := alpha.Lookup(wordgen.SymbolName(r.Intn(m)))
			q := cm.Next(p, sym)
			if q == parsetree.Null || tr.Sym[q] != sym {
				t.Fatalf("binary=%v step %d: transition failed", binary, step)
			}
			p = q
		}
		if !cm.Accept(p) {
			t.Fatalf("binary=%v: mixed content must accept any prefix", binary)
		}
	}
}

// TestAgainstClimbing checks that the O(log log) index and the O(depth)
// climb resolve to identical transitions everywhere.
func TestAgainstClimbing(t *testing.T) {
	r := rand.New(rand.NewSource(709))
	for trial := 0; trial < 80; trial++ {
		alpha := ast.NewAlphabet()
		e := wordgen.RandomDeterministicExpr(r, alpha, 8, 60, trial%2 == 0)
		tr, err := parsetree.Build(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		fol := follow.New(tr)
		cm := New(tr, fol, Options{})
		cl := NewClimbing(tr, fol)
		sigma := tr.Alpha.Size()
		for i := 0; i < tr.NumPositions()-1; i++ {
			p := tr.PosNode[i]
			for s := 2; s < sigma; s++ { // user symbols
				q1 := cm.Next(p, ast.Symbol(s))
				q2 := cl.Next(p, ast.Symbol(s))
				if q1 != q2 {
					t.Fatalf("%s: Next(%d,%d): colored=%d climbing=%d",
						ast.StringMath(e, alpha), p, s, q1, q2)
				}
			}
		}
	}
}
