package table

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/match"
	"dregex/internal/match/kore"
	"dregex/internal/parsetree"
	"dregex/internal/wordgen"
	"dregex/internal/words"
)

func compile(t *testing.T, src string) (*parsetree.Tree, *follow.Index, *ast.Alphabet) {
	t.Helper()
	alpha := ast.NewAlphabet()
	e, err := ast.ParseMath(src, alpha)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := parsetree.Build(ast.Normalize(ast.DesugarPlus(ast.Normalize(e))), alpha)
	if err != nil {
		t.Fatal(err)
	}
	return tr, follow.New(tr), alpha
}

func TestDFAMatchesKnownWords(t *testing.T) {
	cases := []struct {
		expr string
		yes  []string
		no   []string
	}{
		{"(ab+b(b?)a)*", []string{"", "ab", "bba", "ba", "abba", "baab"}, []string{"a", "b", "aa", "abb"}},
		{"a(b+c)*d", []string{"ad", "abd", "acbd"}, []string{"", "a", "d", "abc"}},
		{"(ab)?c", []string{"c", "abc"}, []string{"", "ab", "ac", "abcc"}},
	}
	for _, c := range cases {
		tr, fol, alpha := compile(t, c.expr)
		d, err := New(tr, fol)
		if err != nil {
			t.Fatalf("New(%q): %v", c.expr, err)
		}
		intern := func(w string) []ast.Symbol {
			out := make([]ast.Symbol, 0, len(w))
			for _, r := range w {
				s, ok := alpha.LookupRune(r)
				if !ok {
					s = ast.None
				}
				out = append(out, s)
			}
			return out
		}
		for _, w := range c.yes {
			if !d.MatchWord(intern(w)) {
				t.Errorf("%q: MatchWord(%q) = false, want true", c.expr, w)
			}
			if !match.Word(d, intern(w)) {
				t.Errorf("%q: match.Word(%q) = false, want true (TransitionSim path)", c.expr, w)
			}
		}
		for _, w := range c.no {
			if d.MatchWord(intern(w)) {
				t.Errorf("%q: MatchWord(%q) = true, want false", c.expr, w)
			}
			if match.Word(d, intern(w)) {
				t.Errorf("%q: match.Word(%q) = true, want false (TransitionSim path)", c.expr, w)
			}
		}
	}
}

// TestDFAAgreesWithKore cross-checks both the devirtualized MatchWord loop
// and the TransitionSim interface path against the k-ORE engine on random
// deterministic expressions.
func TestDFAAgreesWithKore(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		alpha := ast.NewAlphabet()
		root := wordgen.RandomDeterministicExpr(r, alpha, 6+r.Intn(10), 20+r.Intn(40), i%2 == 0)
		tr, err := parsetree.Build(ast.Normalize(root), alpha)
		if err != nil {
			t.Fatal(err)
		}
		fol := follow.New(tr)
		d, err := New(tr, fol)
		if err != nil {
			t.Fatal(err)
		}
		ref := kore.New(tr, fol)
		corpus := [][]ast.Symbol{{}}
		for j := 0; j < 8; j++ {
			if w, ok := words.RandomWord(r, fol, 24, 0.15); ok {
				corpus = append(corpus, w)
				corpus = append(corpus, words.Mutate(r, tr, w, 1+r.Intn(3)))
			}
			corpus = append(corpus, words.NoiseWord(r, tr, 1+r.Intn(10)))
		}
		for _, w := range corpus {
			want := match.Word(ref, w)
			if got := d.MatchWord(w); got != want {
				t.Errorf("case %d: MatchWord(%v) = %v, kore says %v", i, w, got, want)
			}
			if got := match.Word(d, w); got != want {
				t.Errorf("case %d: match.Word(%v) = %v, kore says %v", i, w, got, want)
			}
		}
	}
}

// TestDFAStream runs the generic match.Stream driver on the table engine:
// the per-word state is the single current NodeID.
func TestDFAStream(t *testing.T) {
	tr, fol, alpha := compile(t, "a(b+c)*d")
	d, err := New(tr, fol)
	if err != nil {
		t.Fatal(err)
	}
	var s match.Stream
	s.Init(d)
	for _, r := range "abcd" {
		sym, ok := alpha.LookupRune(r)
		if !ok {
			t.Fatalf("rune %q not interned", r)
		}
		if !s.Feed(sym) {
			t.Fatalf("Feed(%q) reported dead", r)
		}
	}
	if !s.Accepts() {
		t.Fatal("abcd must be accepted")
	}
	s.Reset()
	if s.Accepts() {
		t.Fatal("empty prefix must not be accepted")
	}
}

// TestDFABudget pins the budget rule: both the table (states × sigma
// entries) and its construction (states² probes) must fit DefaultBudget,
// and New refuses what does not Fit.
func TestDFABudget(t *testing.T) {
	for _, c := range []struct {
		states, sigma int
		fits          bool
	}{
		{1024, 1024, true},
		{1024, 1025, false}, // the table is one row past the budget
		{1025, 2, false},    // a tiny table, but 1025² construction probes
	} {
		if got := Fits(c.states, c.sigma); got != c.fits {
			t.Errorf("Fits(%d, %d) = %v, want %v", c.states, c.sigma, got, c.fits)
		}
	}
	// 1023 user positions plus # and $ are 1025 states.
	tr, fol, _ := compile(t, strings.Repeat("a", 1023))
	if _, err := New(tr, fol); !errors.Is(err, ErrBudget) {
		t.Fatalf("New on a 1023-symbol concatenation: %v, want ErrBudget", err)
	}
}

func TestDFARejectsForeignSymbols(t *testing.T) {
	tr, fol, _ := compile(t, "ab")
	d, err := New(tr, fol)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]ast.Symbol{
		{ast.None},
		{ast.Begin},
		{ast.End},
		{ast.Symbol(1000)},
		{ast.FirstUser, ast.FirstUser + 1, ast.Symbol(1000)},
	} {
		if d.MatchWord(w) {
			t.Errorf("MatchWord(%v) = true, want false", w)
		}
		if match.Word(d, w) {
			t.Errorf("match.Word(%v) = true, want false", w)
		}
	}
}

func TestDFAEntries(t *testing.T) {
	tr, fol, _ := compile(t, "ab")
	d, err := New(tr, fol)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.NumPositions() * tr.Alpha.Size()
	if d.Entries() != want {
		t.Fatalf("Entries() = %d, want %d", d.Entries(), want)
	}
	if fmt.Sprint(d.Start()) != fmt.Sprint(tr.BeginPos()) {
		t.Fatalf("Start() = %v, want %v", d.Start(), tr.BeginPos())
	}
}
