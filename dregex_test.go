package dregex

import (
	"errors"
	"strings"
	"testing"

	"dregex/internal/match/starfree"
)

func TestCompileAndDeterminism(t *testing.T) {
	cases := []struct {
		src    string
		syntax Syntax
		det    bool
	}{
		{"(ab+b(b?)a)*", Math, true},
		{"(a*ba+bb)*", Math, false},
		{"ab*b", Math, false},
		{"(title, author+, (section | appendix)*)", DTD, true},
		{"(a|b)*, a", DTD, false},
		{"para*", DTD, true},
	}
	for _, c := range cases {
		e, err := Compile(c.src, c.syntax)
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.src, err)
		}
		if e.IsDeterministic() != c.det {
			t.Errorf("%q: deterministic = %v, want %v", c.src, e.IsDeterministic(), c.det)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("a{2,3}", Math); err != ErrNumericIndicator {
		t.Errorf("a{2,3}: err = %v, want ErrNumericIndicator", err)
	}
	if _, err := Compile("(((", Math); err == nil {
		t.Error("parse error not reported")
	}
	if _, err := Compile("a+", Math); err == nil {
		t.Error("trailing union accepted")
	}
	// e+ in DTD syntax is desugared, not rejected.
	if _, err := Compile("a+", DTD); err != nil {
		t.Errorf("DTD a+: %v", err)
	}
}

func TestExplain(t *testing.T) {
	e := MustCompile("ab*b", Math)
	amb := e.Explain()
	if amb == nil || amb.Symbol != "b" {
		t.Fatalf("Explain(ab*b) = %+v, want ambiguity on b", amb)
	}
	if len(amb.Word) == 0 || amb.Word[len(amb.Word)-1] != "b" {
		t.Fatalf("witness word %v must end in b", amb.Word)
	}
	if det := MustCompile("ab*c", Math).Explain(); det != nil {
		t.Fatalf("deterministic expression explained: %+v", det)
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	e := MustCompile("(c?((ab*)(a?c)))*(ba)", Math)
	accept := []string{"ba", "acba", "abbbacba", "aacacba", "cacaacba"}
	reject := []string{"", "b", "ab", "acb", "bab", "caba", "x"}
	for _, algo := range []Algorithm{Auto, KORE, Colored, ColoredBinary, PathDecomp, Climbing, NFA} {
		m, err := e.Matcher(algo)
		if err != nil {
			t.Fatalf("Matcher(%v): %v", algo, err)
		}
		for _, w := range accept {
			if !m.MatchText(w) {
				t.Errorf("%v must accept %q", algo, w)
			}
		}
		for _, w := range reject {
			if m.MatchText(w) {
				t.Errorf("%v must reject %q", algo, w)
			}
		}
	}
	// Star-free scan requires star-free input.
	if _, err := e.Matcher(StarFreeScan); !errors.Is(err, starfree.ErrNotStarFree) {
		t.Errorf("StarFreeScan on a starred expression: %v, want ErrNotStarFree", err)
	}
}

func TestAutoSelection(t *testing.T) {
	m, err := MustCompile("(a|b)*, c", DTD).Matcher(Auto)
	if err != nil {
		t.Fatal(err)
	}
	if m.Algorithm() == Auto {
		t.Error("Auto not resolved")
	}
}

// TestNondeterministicPaths: determinism is decided once, at Compile, and
// Matcher refuses a nondeterministic expression for every engine but NFA —
// the engines themselves do not test it again. The star-free a?a is
// refused the same way under StarFreeScan, which checks only star-freeness.
func TestNondeterministicPaths(t *testing.T) {
	e := MustCompile("(a*ba+bb)*", Math)
	sf := MustCompile("a?a", Math)
	for algo := Algorithm(0); int(algo) < numAlgorithms; algo++ {
		if algo == NFA {
			continue
		}
		if _, err := e.Matcher(algo); err == nil || !strings.Contains(err.Error(), "not deterministic") {
			t.Errorf("Matcher(%v) on (a*ba+bb)*: %v, want a nondeterminism error", algo, err)
		}
	}
	if _, err := sf.Matcher(StarFreeScan); err == nil || !strings.Contains(err.Error(), "not deterministic") {
		t.Errorf("Matcher(StarFreeScan) on a?a: %v, want a nondeterminism error", err)
	}
	m, err := e.Matcher(NFA)
	if err != nil {
		t.Fatal(err)
	}
	if !m.MatchText("bb") || !m.MatchText("aaba") || m.MatchText("ab") {
		t.Error("NFA engine wrong on (a*ba+bb)*")
	}
	if m.Stream() != nil {
		t.Error("NFA engine returned a stream")
	}
	if _, err := e.MatchAll([][]string{{"b", "b"}}, Auto); err == nil {
		t.Error("MatchAll accepted nondeterministic expression")
	}
}

func TestMatchAllStarFreeAndGeneral(t *testing.T) {
	sf := MustCompile("(title, author, abstract?)", DTD)
	got, err := sf.MatchAll([][]string{
		{"title", "author"},
		{"title", "author", "abstract"},
		{"title"},
		{"title", "author", "abstract", "abstract"},
	}, Auto)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("star-free MatchAll[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	starred := MustCompile("(a|b)*, c", DTD)
	got2, err := starred.MatchAll([][]string{{"a", "c"}, {"c"}, {"a"}}, Auto)
	if err != nil {
		t.Fatal(err)
	}
	want2 := []bool{true, true, false}
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Errorf("general MatchAll[%d] = %v, want %v", i, got2[i], want2[i])
		}
	}
}

func TestStatsAndStreaming(t *testing.T) {
	e := MustCompile("(a|b)*, c?, d", DTD)
	st := e.Stats()
	if st.Sigma != 4 || st.StarFree || !st.Deterministic || st.K != 1 {
		t.Errorf("Stats = %+v", st)
	}
	m, err := e.Matcher(Auto)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := m.MatchReaderTokens(strings.NewReader("a b a c d"))
	if err != nil || !ok {
		t.Fatalf("MatchReaderTokens: %v %v", ok, err)
	}
	s := m.Stream()
	for _, sym := range []string{"b", "a", "d"} {
		s.FeedName(sym)
	}
	if !s.Accepts() {
		t.Error("stream must accept b a d")
	}
	s.FeedName("d")
	if s.Alive() {
		t.Error("stream must die after second d")
	}
}

func TestSourceAndString(t *testing.T) {
	e := MustCompile("(a?)?b", Math)
	if e.Source() != "(a?)?b" {
		t.Error("Source lost")
	}
	if got := e.String(); got != "a?b" { // normalized per (R3)
		t.Errorf("String = %q, want %q", got, "a?b")
	}
	if len(e.Symbols()) != 2 {
		t.Errorf("Symbols = %v", e.Symbols())
	}
}
