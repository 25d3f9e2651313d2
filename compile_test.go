package dregex

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dregex/internal/ast"
)

// TestBoundsFitParseTree pins the occurrence-bound limit: a finite bound
// above ast.MaxBound is a parse error at the number's offset in both
// syntaxes and through both pipelines, so it can no longer wrap or turn
// into ∞ on its way into the parse tree's int32 arrays.
func TestBoundsFitParseTree(t *testing.T) {
	cases := []struct {
		src    string
		syntax Syntax
		offset int
	}{
		{"a{1,3000000000}b", Math, 4},
		{"(a{2,4294967298})b", Math, 5},
		{"a{2,2147483647}", Math, 4},
		{"a{99999999999999999999999}", Math, 2},
		{"a, b{3000000000,}", DTD, 5},
		{"(a{2,4294967298}), b", DTD, 5},
	}
	for _, c := range cases {
		_, err1 := Compile(c.src, c.syntax)
		_, err2 := CompileNumeric(c.src, c.syntax)
		for _, err := range []error{err1, err2} {
			var pe *ast.ParseError
			if !errors.As(err, &pe) || pe.Offset != c.offset || !strings.Contains(pe.Msg, "exceeds 2147483646") {
				t.Errorf("%q: error %v, want a parse error at offset %d", c.src, err, c.offset)
			}
		}
	}

	// The largest finite bound still works, and stays finite.
	e, err := CompileNumeric("a{2,2147483646}b", Math)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.IterationStats(); st.Unbounded || st.MaxBound != 2147483646 {
		t.Errorf("a{2,2147483646}: IterationStats = %+v", st)
	}
	for w, want := range map[string]bool{"ab": false, "aab": true, "aaab": true} {
		if got := e.MatchText(w); got != want {
			t.Errorf("a{2,2147483646}b matches %q = %v, want %v", w, got, want)
		}
	}
}

// TestExpansionBudget: nested e+ doubles the tree per level, so the
// desugaring stops with ErrExpansionBudget instead of building millions of
// nodes, while modest nesting compiles as before.
func TestExpansionBudget(t *testing.T) {
	deep := strings.Repeat("(", 22) + "a" + strings.Repeat(")+", 22)
	start := time.Now()
	if _, err := Compile(deep, DTD); !errors.Is(err, ErrExpansionBudget) {
		t.Errorf("Compile of 22 nested +: %v, want ErrExpansionBudget", err)
	}
	if _, err := CompileNumeric(deep, XSD); !errors.Is(err, ErrExpansionBudget) {
		t.Errorf("CompileNumeric of 22 nested +: %v, want ErrExpansionBudget", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("rejecting 22 nested + took %v", d)
	}

	// 18 levels copy 786,430 nodes: under the budget.
	e, err := Compile(strings.Repeat("(", 18)+"a"+strings.Repeat(")+", 18), DTD)
	if err != nil {
		t.Fatalf("18 nested +: %v", err)
	}
	if n := e.Stats().Size; n != 786434 {
		t.Errorf("18 nested +: %d nodes, want 786434", n)
	}

	e = MustCompile("((a)+)+", DTD)
	if e.IsDeterministic() || e.Rule() != "P2" {
		t.Errorf("((a)+)+: deterministic=%v rule=%q, want nondeterministic by P2", e.IsDeterministic(), e.Rule())
	}
}

// TestNormalizationLinear pins the flat normal form as linear: an
// iteration chain a{2,3}{2,3}… used to re-walk the whole subtree for its
// nullability at every bound.
func TestNormalizationLinear(t *testing.T) {
	best := func(k int) time.Duration {
		src := "a" + strings.Repeat("{2,3}", k)
		var min time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := CompileNumeric(src, Math); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); i == 0 || d < min {
				min = d
			}
		}
		return min
	}
	small, large := best(1000), best(16000)
	if large > 40*small {
		t.Errorf("k=16000 took %v, k=1000 %v: ratio %.0f, want ≤ 40", large, small, float64(large)/float64(small))
	}
}
