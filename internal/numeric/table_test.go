package numeric

import (
	"math/rand"
	"reflect"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/match/table"
	"dregex/internal/wordgen"
	"dregex/internal/words"
)

// TestTableAgreesWithFallback differentially tests the counter-augmented
// transition table against the on-the-fly enumeration: same expression,
// same words, one Counted with the table and one with it disabled — the
// reachable configuration sets (not just the verdicts) must coincide.
func TestTableAgreesWithFallback(t *testing.T) {
	r := rand.New(rand.NewSource(431))
	samples := 0
	for trial := 0; trial < 300; trial++ {
		alpha := ast.NewAlphabet()
		e := wordgen.RandomExpr(r, alpha, wordgen.ExprConfig{
			Symbols:   1 + r.Intn(4),
			MaxNodes:  4 + r.Intn(30),
			AllowIter: true,
			IterMax:   4,
		})
		withTab, err := Compile(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		without, err := Compile(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		without.noTable = true
		samples++
		for i := 0; i < 20; i++ {
			var w []ast.Symbol
			if i%2 == 0 {
				if pw, ok := words.RandomWord(r, withTab.Fol, 16, 0.3); ok {
					w = pw
				}
			}
			if w == nil {
				w = words.NoiseWord(r, withTab.Tree, r.Intn(10))
			}
			if got, want := withTab.Match(w), without.Match(w); got != want {
				t.Fatalf("table match on %s word %v: got %v, fallback says %v",
					ast.StringMath(e, alpha), w, got, want)
			}
			gc, wc := withTab.SortedConfigs(w), without.SortedConfigs(w)
			if !reflect.DeepEqual(gc, wc) {
				t.Fatalf("configs diverge on %s word %v: table %v, fallback %v",
					ast.StringMath(e, alpha), w, gc, wc)
			}
		}
		if withTab.tab == nil {
			t.Fatalf("small expression %s must build the table", ast.StringMath(e, alpha))
		}
		if without.tab != nil {
			t.Fatal("noTable must suppress the table")
		}
	}
	if samples < 200 {
		t.Fatalf("only %d samples", samples)
	}
}

// TestTableBudgetFallsBack proves the budget gate: an expression that does
// not table.Fits gets no table and silently takes the enumeration path.
func TestTableBudgetFallsBack(t *testing.T) {
	alpha := ast.NewAlphabet()
	// ~1100 distinct counted factors: positions ≈ sigma ≈ 1100, so
	// rows×sigma > 1<<20.
	parts := make([]*ast.Node, 0, 1100)
	for i := 0; i < 1100; i++ {
		parts = append(parts, ast.Opt(ast.Iter(
			ast.Sym(alpha.Intern(wordgen.SymbolName(i))), 2, 5)))
	}
	c, err := Compile(ast.CatAll(parts...), alpha)
	if err != nil {
		t.Fatal(err)
	}
	if table.Fits(c.Tree.NumPositions(), c.Alpha.Size()) {
		t.Fatal("test expression too small to prove the budget gate")
	}
	w := c.Alpha.LookupWord(nil, []string{
		wordgen.SymbolName(0), wordgen.SymbolName(0),
		wordgen.SymbolName(3), wordgen.SymbolName(3),
	})
	if !c.Match(w) {
		t.Fatal("word must match")
	}
	if c.tab != nil {
		t.Fatal("over-budget expression must not build a table")
	}

	// Just-under-budget control: the same shape, sized to fit, builds one.
	alpha2 := ast.NewAlphabet()
	parts = parts[:0]
	for i := 0; i < 500; i++ {
		parts = append(parts, ast.Opt(ast.Iter(
			ast.Sym(alpha2.Intern(wordgen.SymbolName(i))), 2, 5)))
	}
	c2, err := Compile(ast.CatAll(parts...), alpha2)
	if err != nil {
		t.Fatal(err)
	}
	if !table.Fits(c2.Tree.NumPositions(), c2.Alpha.Size()) {
		t.Fatal("control expression unexpectedly over budget")
	}
	w2 := c2.Alpha.LookupWord(nil, []string{wordgen.SymbolName(2), wordgen.SymbolName(2)})
	if !c2.Match(w2) {
		t.Fatal("control word must match")
	}
	if c2.tab == nil {
		t.Fatal("under-budget expression must build the table")
	}
}
