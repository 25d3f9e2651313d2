package numeric

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/match/table"
	"dregex/internal/run"
	"dregex/internal/wordgen"
	"dregex/internal/words"
)

// compilePair compiles e twice: one Counted as streams use it, one with
// the DFA disabled, so its streams simulate the configuration set.
func compilePair(t *testing.T, e *ast.Node, alpha *ast.Alphabet) (withDFA, sim *Counted) {
	t.Helper()
	withDFA, err := Compile(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	sim, err = Compile(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	sim.noDFA = true
	return withDFA, sim
}

// TestTableAgreesWithFallback differentially tests the configuration DFA
// against the configuration-set simulation: same expression, same words,
// one Counted with the DFA and one with it disabled. At every prefix the
// Feed verdict, Accepts, ExpectedNext, the witness trace and the
// configuration (not just the verdicts) must coincide.
func TestTableAgreesWithFallback(t *testing.T) {
	r := rand.New(rand.NewSource(431))
	samples := 0
	var dt, st Stream
	var dtr, str run.Trace
	for trial := 0; trial < 1500; trial++ {
		alpha := ast.NewAlphabet()
		e := wordgen.RandomExpr(r, alpha, wordgen.ExprConfig{
			Symbols:   1 + r.Intn(4),
			MaxNodes:  4 + r.Intn(30),
			AllowIter: true,
			IterMax:   4,
		})
		withDFA, sim := compilePair(t, e, alpha)
		if !withDFA.IsDeterministic() {
			if withDFA.automaton() != nil {
				t.Fatalf("nondeterministic %s built a DFA", ast.StringMath(e, alpha))
			}
			continue
		}
		if withDFA.automaton() == nil {
			t.Fatalf("small deterministic expression %s must build the DFA", ast.StringMath(e, alpha))
		}
		if sim.automaton() != nil {
			t.Fatal("noDFA must suppress the DFA")
		}
		samples++
		for i := 0; i < 20; i++ {
			var w []ast.Symbol
			if i%2 == 0 {
				if pw, ok := words.RandomWord(r, withDFA.Fol, 16, 0.3); ok {
					w = pw
				}
			}
			if w == nil {
				w = words.NoiseWord(r, withDFA.Tree, r.Intn(10))
			}
			dt.Init(withDFA)
			st.Init(sim)
			dt.SetTrace(&dtr)
			st.SetTrace(&str)
			for k := 0; ; k++ {
				if got, want := dt.Accepts(), st.Accepts(); got != want {
					t.Fatalf("%s after %v: DFA accepts=%v, simulation %v", ast.StringMath(e, alpha), w[:k], got, want)
				}
				if got, want := dt.ExpectedNext(nil), st.ExpectedNext(nil); !slices.Equal(got, want) {
					t.Fatalf("%s after %v: DFA expects %v, simulation %v", ast.StringMath(e, alpha), w[:k], got, want)
				}
				if got, want := dt.sortedConfigs(), st.sortedConfigs(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s after %v: DFA configs %v, simulation %v", ast.StringMath(e, alpha), w[:k], got, want)
				}
				if !slices.Equal(dtr.Pos, str.Pos) || dt.Len() != st.Len() {
					t.Fatalf("%s after %v: DFA witness %v, simulation %v", ast.StringMath(e, alpha), w[:k], dtr.Pos, str.Pos)
				}
				if k == len(w) {
					break
				}
				if got, want := dt.Feed(w[k]), st.Feed(w[k]); got != want {
					t.Fatalf("%s feeding %v: DFA says %v, simulation %v", ast.StringMath(e, alpha), w[:k+1], got, want)
				}
			}
			if got, want := withDFA.Match(w), sim.Match(w); got != want {
				t.Fatalf("DFA match on %s word %v: got %v, simulation says %v",
					ast.StringMath(e, alpha), w, got, want)
			}
		}
	}
	if samples < 500 {
		t.Fatalf("only %d deterministic samples", samples)
	}
}

// TestTableBudgetFallsBack proves the budget gate: a deterministic
// expression whose configurations do not table.Fits gets no DFA and still
// matches on the simulation, and an under-budget control builds one.
func TestTableBudgetFallsBack(t *testing.T) {
	c, err := CompileString("a{1,5000}")
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsDeterministic() {
		t.Fatal("a{1,5000} must be deterministic")
	}
	if table.Fits(5000, c.Alpha.Size()) {
		t.Fatal("test expression too small to prove the budget gate")
	}
	a := c.symbol(t, "a")
	w := slices.Repeat([]ast.Symbol{a}, 5000)
	if !c.Match(w) || c.Match(append(w, a)) {
		t.Fatal("a^5000 must match and a^5001 must not")
	}
	if c.automaton() != nil {
		t.Fatal("over-budget expression must not build a DFA")
	}

	// Under budget: 1 + 900 configurations over three symbols.
	c2, err := CompileString("a{1,900}")
	if err != nil {
		t.Fatal(err)
	}
	if !table.Fits(901, c2.Alpha.Size()) {
		t.Fatal("control expression unexpectedly over budget")
	}
	if !c2.Match(w[:900]) || c2.Match(w[:901]) {
		t.Fatal("a^900 must match and a^901 must not")
	}
	d := c2.automaton()
	if d == nil {
		t.Fatal("under-budget expression must build the DFA")
	}
	if n := d.cfgs.n(); n != 901 {
		t.Fatalf("a{1,900} DFA has %d states, want 901", n)
	}

	// Past the budget by the search, not by one bound: b's counter pairs
	// with the outer one, 2500 configurations.
	c3, err := CompileString("(ab{1,50}c?){1,50}d")
	if err != nil {
		t.Fatal(err)
	}
	if !c3.IsDeterministic() {
		t.Fatal("(ab{1,50}c?){1,50}d must be deterministic")
	}
	if c3.automaton() != nil {
		t.Fatal("a search past the budget must give up")
	}
	a3, b, cc, dd := c3.symbol(t, "a"), c3.symbol(t, "b"), c3.symbol(t, "c"), c3.symbol(t, "d")
	var w3 []ast.Symbol
	for range 50 {
		w3 = append(w3, a3)
		w3 = append(w3, slices.Repeat([]ast.Symbol{b}, 50)...)
		w3 = append(w3, cc)
	}
	if !c3.Match(append(w3, dd)) || c3.Match(append(w3, b)) {
		t.Fatal("(a b^50 c)^50 d must match and (a b^50 c)^50 b must not")
	}
}

// symbol looks up a symbol of c by name.
func (c *Counted) symbol(t *testing.T, name string) ast.Symbol {
	t.Helper()
	a, ok := c.Alpha.Lookup(name)
	if !ok {
		t.Fatalf("no symbol %q", name)
	}
	return a
}
