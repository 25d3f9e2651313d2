package dregex

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"dregex/internal/ast"
	"dregex/internal/wordgen"
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

// TestNestingBound: the grammar recurses once per group, so a group
// opened inside MaxNesting others fails fast with ErrNesting in both
// syntaxes, while MaxNesting levels, parenthesized or nested concatenation
// a tree that deep, still compile.
func TestNestingBound(t *testing.T) {
	nested := func(n int, open, sep string) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%sa%d%s", open, i, sep)
		}
		b.WriteString("z")
		b.WriteString(strings.Repeat(")", n))
		return b.String()
	}
	for _, src := range []string{
		strings.Repeat("(", MaxNesting) + "a" + strings.Repeat(")", MaxNesting),
		nested(MaxNesting, "(", ", "),
	} {
		e, err := Compile(src, DTD)
		if err != nil {
			t.Fatalf("%d nested groups: %v", MaxNesting, err)
		}
		if _, err := e.Matcher(Auto); err != nil {
			t.Fatalf("%d nested groups: Matcher: %v", MaxNesting, err)
		}
	}
	if e := MustCompile(nested(MaxNesting, "(", ", "), DTD); e.Stats().Depth < MaxNesting {
		t.Errorf("nested concatenation: tree depth %d, want ≥ %d", e.Stats().Depth, MaxNesting)
	}
	if _, err := Compile(strings.Repeat("(", MaxNesting)+"a"+strings.Repeat(")", MaxNesting), Math); err != nil {
		t.Errorf("%d nested groups in math notation: %v", MaxNesting, err)
	}
	for _, n := range []int{MaxNesting + 1, 1_000_000} {
		src := strings.Repeat("(", n) + "a" + strings.Repeat(")", n)
		start := time.Now()
		_, err := Compile(src, DTD)
		_, nerr := CompileNumeric(src, XSD)
		_, merr := Compile(src, Math)
		for _, err := range []error{err, nerr, merr} {
			if !errors.Is(err, ErrNesting) {
				t.Errorf("%d nested groups: %v, want ErrNesting", n, err)
			}
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("rejecting %d nested groups took %v", n, d)
		}
	}
	// A source rejected at offset MaxNesting pays for what was parsed, not
	// for its whole length. Two collections empty the record pool, whose
	// buffers the loop above has grown.
	deep := strings.Repeat("(", 1_000_000) + "a" + strings.Repeat(")", 1_000_000)
	for _, syntax := range []Syntax{DTD, Math} {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Compile(deep, syntax)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrNesting) {
			t.Fatalf("1M nested groups: %v, want ErrNesting", err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Errorf("rejecting 1M nested groups in syntax %d allocated %d B, want under 1 MiB", syntax, b)
		}
	}
}

// TestOneOccurrenceVerdicts: Compile decides an expression in which no
// symbol labels two positions (k ≤ 1) by that count alone, and runs the
// linear test of Theorem 3.5 on every other one. Seeded 1-OREs of about
// 64, 1k and 10k nodes compile deterministic in both syntaxes, and
// expressions with a repeated symbol keep the verdict and rule the test
// gives them. k is counted after e+ → e·e*, so (a+)* and (a | b+)+ reach
// the test, which calls them nondeterministic although each symbol marks
// one position of the e+ form; these rows pin that known defect until a
// change fixes it on purpose.
func TestOneOccurrenceVerdicts(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, nodes := range []int{64, 1024, 10240} {
		alpha := ast.NewAlphabet()
		root := wordgen.RandomDeterministicExpr(r, alpha, nodes, nodes, false)
		// Math notation takes one rune per symbol: rename the symbols, in
		// id order, to CJK ideographs.
		runes := ast.NewAlphabet()
		for i := range alpha.Names() {
			runes.Intern(string(rune(0x4e00 + i)))
		}
		for _, src := range []struct {
			text   string
			syntax Syntax
		}{
			{ast.StringDTD(root, alpha), DTD},
			{ast.StringMath(root, runes), Math},
		} {
			e, err := Compile(src.text, src.syntax)
			if err != nil {
				t.Fatalf("%d nodes, syntax %d: %v", nodes, src.syntax, err)
			}
			if st := e.Stats(); st.K != 1 || st.Size < nodes/2 {
				t.Fatalf("%d nodes, syntax %d: Stats %+v, want a 1-ORE of about %d nodes", nodes, src.syntax, st, nodes)
			}
			if !e.IsDeterministic() || e.Rule() != "" || e.Explain() != nil {
				t.Errorf("%d nodes, syntax %d: deterministic=%v rule=%q explain=%+v, want deterministic",
					nodes, src.syntax, e.IsDeterministic(), e.Rule(), e.Explain())
			}
		}
	}

	for _, c := range []struct {
		src    string
		syntax Syntax
		k      int
		rule   string
	}{
		{"(ab+b(b?)a)*", Math, 3, ""},
		{"(a*ba+bb)*", Math, 3, "P1"},
		// e+ desugars to e·e*, which repeats the symbols of e.
		{"(title, author+)", DTD, 2, ""},
		{"(a+)*", DTD, 2, "W-F"},
		{"(a | b+)+", DTD, 4, "P2"},
	} {
		e := MustCompile(c.src, c.syntax)
		if e.Stats().K != c.k || e.Rule() != c.rule || e.IsDeterministic() != (c.rule == "") ||
			(e.Explain() == nil) != (c.rule == "") {
			t.Errorf("%q: k=%d rule=%q deterministic=%v explain=%+v, want k=%d rule=%q",
				c.src, e.Stats().K, e.Rule(), e.IsDeterministic(), e.Explain(), c.k, c.rule)
		}
	}
}

// TestNormalizationLinear pins the flat normal form as linear: an
// iteration chain a{2,3}{2,3}… used to re-walk the whole subtree for its
// nullability at every bound. Each size takes its fastest of nine
// compiles, so a compile slowed by other packages' tests running
// alongside does not decide the ratio.
func TestNormalizationLinear(t *testing.T) {
	best := func(k int) time.Duration {
		src := "a" + strings.Repeat("{2,3}", k)
		var min time.Duration
		for i := 0; i < 9; i++ {
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
