package match_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/glushkov"
	"dregex/internal/match"
	"dregex/internal/match/colored"
	"dregex/internal/match/kore"
	"dregex/internal/match/pathdecomp"
	"dregex/internal/parsetree"
	"dregex/internal/run"
	"dregex/internal/wordgen"
	"dregex/internal/words"
)

// sims builds every deterministic transition simulator for tr.
func sims(t *testing.T, tr *parsetree.Tree, fol *follow.Index) map[string]match.TransitionSim {
	t.Helper()
	out := map[string]match.TransitionSim{
		"kore":        kore.New(tr, fol),
		"colored-veb": colored.New(tr, fol, colored.Options{}),
		"colored-bin": colored.New(tr, fol, colored.Options{BinarySearch: true}),
		"climbing":    colored.NewClimbing(tr, fol),
	}
	pd, err := pathdecomp.New(tr, fol)
	if err != nil {
		t.Fatalf("pathdecomp.New: %v", err)
	}
	out["pathdecomp"] = pd
	return out
}

func compileDet(t *testing.T, expr string) (*parsetree.Tree, *follow.Index) {
	t.Helper()
	alpha := ast.NewAlphabet()
	e := ast.Normalize(ast.MustParseMath(expr, alpha))
	tr, err := parsetree.Build(e, alpha)
	if err != nil {
		t.Fatalf("Build(%q): %v", expr, err)
	}
	return tr, follow.New(tr)
}

func TestHandPickedWords(t *testing.T) {
	cases := []struct {
		expr   string
		accept []string
		reject []string
	}{
		{
			expr:   "(ab+b(b?)a)*",
			accept: []string{"", "ab", "ba", "bba", "abbaab", "bbaab", "abab"},
			reject: []string{"a", "b", "bb", "aba", "abb", "baa", "c"},
		},
		{
			expr:   "(c?((ab*)(a?c)))*(ba)",
			accept: []string{"ba", "acba", "abbbacba", "aacacba", "cacaacba"},
			reject: []string{"", "b", "ab", "acb", "bab", "caba"},
		},
		{
			expr:   "a?b?c?",
			accept: []string{"", "a", "b", "c", "ab", "ac", "bc", "abc"},
			reject: []string{"aa", "ba", "cb", "abca"},
		},
		{
			expr:   "(a+b)*",
			accept: []string{"", "a", "b", "abba", "bbbb"},
			reject: []string{"c", "abc"},
		},
	}
	for _, c := range cases {
		tr, fol := compileDet(t, c.expr)
		for name, sim := range sims(t, tr, fol) {
			for _, w := range c.accept {
				if !match.Chars(sim, w) {
					t.Errorf("%s/%s must accept %q", c.expr, name, w)
				}
			}
			for _, w := range c.reject {
				if match.Chars(sim, w) {
					t.Errorf("%s/%s must reject %q", c.expr, name, w)
				}
			}
		}
	}
}

// TestAgainstGlushkovOracle fuzzes every matcher against NFA simulation on
// positive samples, noise words, and near-miss mutations.
func TestAgainstGlushkovOracle(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	trials := 0
	for trials < 150 {
		alpha := ast.NewAlphabet()
		e := wordgen.RandomDeterministicExpr(r, alpha, 8, 50, trials%2 == 0)
		tr, err := parsetree.Build(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		fol := follow.New(tr)
		oracle := glushkov.Build(tr)
		ms := sims(t, tr, fol)
		trials++
		var corpus [][]ast.Symbol
		for i := 0; i < 10; i++ {
			if w, ok := words.RandomWord(r, fol, 30, 0.25); ok {
				corpus = append(corpus, w)
				corpus = append(corpus, words.Mutate(r, tr, w, 1+r.Intn(3)))
			}
			corpus = append(corpus, words.NoiseWord(r, tr, r.Intn(12)))
		}
		for _, w := range corpus {
			want := oracle.Match(w)
			for name, sim := range ms {
				if got := match.Word(sim, w); got != want {
					t.Fatalf("%s on %s word %v: got %v, oracle %v",
						name, ast.StringMath(e, alpha), w, got, want)
				}
			}
		}
	}
}

func TestKOREBound(t *testing.T) {
	alpha := ast.NewAlphabet()
	e := ast.Normalize(wordgen.KOccurrence(alpha, 6, 3))
	tr, err := parsetree.Build(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	m := kore.New(tr, follow.New(tr))
	if m.K != 3 {
		t.Errorf("K = %d, want 3", m.K)
	}
}

func TestNondeterministicKORE(t *testing.T) {
	// The NFA variant must match nondeterministic expressions correctly.
	r := rand.New(rand.NewSource(223))
	for trial := 0; trial < 120; trial++ {
		alpha := ast.NewAlphabet()
		e := ast.Normalize(wordgen.RandomExpr(r, alpha, wordgen.ExprConfig{Symbols: 3, MaxNodes: 30}))
		tr, err := parsetree.Build(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		fol := follow.New(tr)
		oracle := glushkov.Build(tr)
		nfa := kore.NewNFA(tr, fol)
		for i := 0; i < 20; i++ {
			var w []ast.Symbol
			if i%2 == 0 {
				if pw, ok := words.RandomWord(r, fol, 15, 0.3); ok {
					w = pw
				}
			}
			if w == nil {
				w = words.NoiseWord(r, tr, r.Intn(10))
			}
			if got, want := nfa.Match(w), oracle.Match(w); got != want {
				t.Fatalf("NFA on %s word %v: got %v, want %v",
					ast.StringMath(e, alpha), w, got, want)
			}
		}
	}
}

func TestStreamAPI(t *testing.T) {
	tr, fol := compileDet(t, "(ab+b(b?)a)*")
	m := kore.New(tr, fol)
	s := match.NewStream(m)
	if !s.Accepts() { // ε ∈ L
		t.Fatal("empty prefix must accept")
	}
	for _, step := range []struct {
		sym     string
		alive   bool
		accepts bool
	}{
		{"a", true, false},
		{"b", true, true},
		{"b", true, false},
		{"b", true, false},
		{"a", true, true},
		{"c", false, false},
	} {
		s.FeedName(step.sym)
		if s.Alive() != step.alive || s.Accepts() != step.accepts {
			t.Fatalf("after %q: alive=%v accepts=%v, want %v %v",
				step.sym, s.Alive(), s.Accepts(), step.alive, step.accepts)
		}
	}
	s.Reset()
	if !s.Alive() || s.Len() != 0 || !s.Accepts() {
		t.Fatal("Reset did not restore the start state")
	}
}

func TestFeedRune(t *testing.T) {
	tr, fol := compileDet(t, "(ab+b(b?)a)*")
	m := kore.New(tr, fol)
	var s match.Stream
	s.Init(m)
	for _, r := range "abba" {
		if !s.FeedRune(r) {
			t.Fatalf("FeedRune(%q) died", r)
		}
	}
	if !s.Accepts() {
		t.Fatal("abba must accept")
	}
	s.Init(m)
	if s.FeedRune('x') || s.Alive() {
		t.Fatal("rune outside the alphabet must kill the stream")
	}
	s.Init(m)
	if s.FeedRune('#') || s.FeedRune('$') {
		t.Fatal("phantom markers must reject")
	}
}

// TestFeedRuneZeroAlloc pins the rune hot path: ReaderRunes used to
// allocate a string per input rune via FeedName(string(ch)).
func TestFeedRuneZeroAlloc(t *testing.T) {
	tr, fol := compileDet(t, "(ab+b(b?)a)*")
	m := kore.New(tr, fol)
	var s match.Stream
	word := "abbaabbaab"
	allocs := testing.AllocsPerRun(1000, func() {
		s.Init(m)
		for _, r := range word {
			s.FeedRune(r)
		}
		_ = s.Accepts()
	})
	if allocs != 0 {
		t.Errorf("FeedRune path allocates %.1f per word, want 0", allocs)
	}
}

func TestReaders(t *testing.T) {
	tr, fol := compileDet(t, "(ab+b(b?)a)*")
	m := kore.New(tr, fol)
	var s match.Stream
	s.Init(m)
	ok, err := run.ReaderRunes(&s, strings.NewReader("abba\nab"))
	if err != nil || !ok {
		t.Fatalf("ReaderRunes: %v %v", ok, err)
	}
	// Token-separated input streams the same word: whitespace is skipped.
	s.Init(m)
	ok, err = run.ReaderRunes(&s, strings.NewReader("a b\tb a\nab"))
	if err != nil || !ok {
		t.Fatalf("ReaderRunes with spaces: %v %v", ok, err)
	}
	s.Init(m)
	ok, err = run.ReaderRunes(&s, strings.NewReader("abx"))
	if err != nil || ok {
		t.Fatalf("ReaderRunes reject: %v %v", ok, err)
	}

	alpha := ast.NewAlphabet()
	e := ast.Normalize(ast.MustParseDTD("title, author+, (section | appendix)*", alpha))
	e = ast.Normalize(ast.DesugarPlus(e))
	tr2, err := parsetree.Build(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	m2 := kore.New(tr2, follow.New(tr2))
	s.Init(m2)
	ok, err = run.ReaderTokens(&s, strings.NewReader("title author author section section appendix"))
	if err != nil || !ok {
		t.Fatalf("ReaderTokens: %v %v", ok, err)
	}
	s.Init(m2)
	ok, err = run.ReaderTokens(&s, strings.NewReader("title section"))
	if err != nil || ok {
		t.Fatalf("ReaderTokens reject: %v %v", ok, err)
	}
}

// TestExpectedNext pins the failure diagnostics: the legal continuations
// reported from a live prefix, and from the last viable prefix once dead.
func TestExpectedNext(t *testing.T) {
	alpha := ast.NewAlphabet()
	e := ast.Normalize(ast.MustParseDTD("title, author+, (section | appendix)*", alpha))
	e = ast.Normalize(ast.DesugarPlus(e))
	tr, err := parsetree.Build(e, alpha)
	if err != nil {
		t.Fatal(err)
	}
	m := kore.New(tr, follow.New(tr))
	var s match.Stream
	s.Init(m)
	if got := run.ExpectedNames(&s, nil); !reflect.DeepEqual(got, []string{"title"}) {
		t.Fatalf("expected at start: %v", got)
	}
	s.FeedName("title")
	if got := run.ExpectedNames(&s, nil); !reflect.DeepEqual(got, []string{"author"}) {
		t.Fatalf("expected after title: %v", got)
	}
	s.FeedName("author")
	want := []string{"author", "section", "appendix"}
	sortStrings(want)
	got := run.ExpectedNames(&s, nil)
	sortStrings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expected after author: %v, want %v", got, want)
	}
	// Kill the stream: expectations must report from the last viable prefix.
	if s.FeedName("title") || s.Alive() {
		t.Fatal("title after author must kill")
	}
	if s.Len() != 2 {
		t.Fatalf("Len after kill = %d, want 2 (killing symbol not counted)", s.Len())
	}
	got = run.ExpectedNames(&s, nil)
	sortStrings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expected after death: %v, want %v", got, want)
	}
}

func sortStrings(s []string) {
	sort.Strings(s)
}

// TestWitnessTrace pins the opt-in parse-witness recording: the trace of an
// accepted word is its position sequence, and Reset/Init truncate it.
func TestWitnessTrace(t *testing.T) {
	tr, fol := compileDet(t, "(ab+b(b?)a)*")
	m := kore.New(tr, fol)
	var s match.Stream
	s.Init(m)
	if s.Witness() != nil {
		t.Fatal("witness must be nil before a trace is attached")
	}
	var trace run.Trace
	s.SetTrace(&trace)
	for _, r := range "abba" {
		s.FeedRune(r)
	}
	w := s.Witness()
	if len(w) != 4 {
		t.Fatalf("witness length %d, want 4", len(w))
	}
	for i, p := range w {
		if p == parsetree.Null {
			t.Fatalf("witness[%d] is Null", i)
		}
		if got, want := tr.Alpha.Name(tr.Sym[p]), string("abba"[i]); got != want {
			t.Fatalf("witness[%d] labeled %q, want %q", i, got, want)
		}
	}
	// A rejected word, then Init: no stale positions may leak.
	s.Init(m)
	s.SetTrace(&trace)
	s.FeedRune('a')
	s.FeedRune('x') // dies
	s.Init(m)
	if len(s.Witness()) != 0 {
		t.Fatalf("witness after Init = %v, want empty", s.Witness())
	}
	s.FeedRune('b')
	if w := s.Witness(); len(w) != 1 || tr.Alpha.Name(tr.Sym[w[0]]) != "b" {
		t.Fatalf("witness after reuse = %v", w)
	}
}
