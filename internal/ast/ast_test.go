package ast

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestParseMathBasics(t *testing.T) {
	cases := []struct {
		in   string
		want string // re-rendered math form
	}{
		{"a", "a"},
		{"ab", "ab"},
		{"a b", "ab"},
		{"a+b", "a+b"},
		{"(a+b)c", "(a+b)c"},
		{"a+bc", "a+bc"},
		{"(ab+b(b?)a)*", "(ab+bb?a)*"},
		{"(a*ba+bb)*", "(a*ba+bb)*"},
		{"a?", "a?"},
		{"a??", "a??"},
		{"a{2,3}", "a{2,3}"},
		{"a{2}", "a{2}"},
		{"a{2,}", "a{2,}"},
		{"(a{2,3}+b){2}b", "(a{2,3}+b){2}b"},
	}
	for _, c := range cases {
		alpha := NewAlphabet()
		e, err := ParseMath(c.in, alpha)
		if err != nil {
			t.Fatalf("ParseMath(%q): %v", c.in, err)
		}
		if got := StringMath(e, alpha); got != c.want {
			t.Errorf("ParseMath(%q) rendered %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseMathErrors(t *testing.T) {
	bad := []string{
		"", "(", ")", "a+", "+a", "a)", "(a", "a{", "a{2", "a{3,2}", "a{0,0}",
		"#", "$", "a#", "*", "a**b(",
	}
	for _, in := range bad {
		alpha := NewAlphabet()
		if _, err := ParseMath(in, alpha); err == nil {
			t.Errorf("ParseMath(%q): expected error", in)
		}
	}
}

func TestParseDTDBasics(t *testing.T) {
	cases := []struct{ in, want string }{
		{"title", "title"},
		{"title,body", "title,body"},
		{"(title , body)", "title,body"},
		{"(a|b)*,c?", "(a|b)*,c?"},
		{"(title, author+, (section | appendix)*)", "title,author+,(section|appendix)*"},
		{"chapter{2,4}", "chapter{2,4}"},
		{"x+", "x+"},
	}
	for _, c := range cases {
		alpha := NewAlphabet()
		e, err := ParseDTD(c.in, alpha)
		if err != nil {
			t.Fatalf("ParseDTD(%q): %v", c.in, err)
		}
		if got := StringDTD(e, alpha); got != c.want {
			t.Errorf("ParseDTD(%q) rendered %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseDTDErrors(t *testing.T) {
	bad := []string{"", "a,", ",a", "a|", "(a", "a)", "a{1,0}", "#PCDATA", "a b"}
	for _, in := range bad {
		alpha := NewAlphabet()
		if _, err := ParseDTD(in, alpha); err == nil {
			t.Errorf("ParseDTD(%q): expected error", in)
		}
	}
}

func TestRoundTripMath(t *testing.T) {
	exprs := []string{
		"a", "ab", "a+b", "(a+b)*", "a?b*c", "((a+b)c?)*d",
		"(ab+b(b?)a)*", "(a*ba+bb)*", "(c?((ab*)(a?c)))*(ba)",
	}
	for _, in := range exprs {
		alpha := NewAlphabet()
		e := MustParseMath(in, alpha)
		out := StringMath(e, alpha)
		e2, err := ParseMath(out, alpha)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", out, in, err)
		}
		if !Equal(e, e2) {
			t.Errorf("round trip changed %q -> %q", in, out)
		}
	}
}

func TestNullable(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"a", false},
		{"a?", true},
		{"a*", true},
		{"ab", false},
		{"a?b", false},
		{"a?b?", true},
		{"a+b", false},
		{"a?+b", true},
		{"a{0,2}", true},
		{"a{1,2}", false},
		{"(a?){2}", true},
	}
	for _, c := range cases {
		alpha := NewAlphabet()
		e := MustParseMath(c.in, alpha)
		if got := Nullable(e); got != c.want {
			t.Errorf("Nullable(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a", "a"},
		{"(a*)*", "a*"},
		{"((a*)*)*", "a*"},
		{"(a?)?", "a?"},
		{"(a*)?", "a*"},
		{"(a?b?)?", "a?b?"},
		{"(a?)*", "a?*"}, // allowed by (R2)/(R3); kept as written
		{"a{1,1}", "a"},
		{"a{0,}", "a*"},
		{"a{0,1}", "a?"},
		{"a{0,3}", "a{1,3}?"},
		{"(a?){2,3}", "a?{1,3}"}, // nullable body: lower bound drops to 1
		{"(a*){2,}", "a*"},       // (a*){2,∞} ≡ a*
	}
	for _, c := range cases {
		alpha := NewAlphabet()
		e := Normalize(MustParseMath(c.in, alpha))
		if got := StringMath(e, alpha); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeInvariants(t *testing.T) {
	exprs := []string{
		"((a*)*)?", "((a?)?)*", "(a?b?)?c", "((a+b?)?)*", "(a{0,2})?",
		"(a{2,2}b)*", "((a*)*(b?)?)?",
	}
	for _, in := range exprs {
		alpha := NewAlphabet()
		orig := MustParseMath(in, alpha)
		e := Normalize(orig)
		Walk(e, func(n *Node) {
			switch n.Kind {
			case KStar:
				if n.L.Kind == KStar {
					t.Errorf("Normalize(%q): (R2) violated: star under star", in)
				}
			case KOpt:
				if Nullable(n.L) {
					t.Errorf("Normalize(%q): (R3) violated: nullable under ?", in)
				}
			case KIter:
				if n.Min < 1 || n.Max < 2 {
					t.Errorf("Normalize(%q): iter bounds {%d,%d} not normalized", in, n.Min, n.Max)
				}
			}
		})
		if Nullable(orig) != Nullable(e) {
			t.Errorf("Normalize(%q) changed nullability", in)
		}
	}
}

func TestDesugarPlus(t *testing.T) {
	alpha := NewAlphabet()
	e := MustParseDTD("a+", alpha)
	d := DesugarPlus(e)
	if got := StringDTD(d, alpha); got != "a,a*" {
		t.Errorf("DesugarPlus(a+) = %q, want %q", got, "a,a*")
	}
	// Nullable body degenerates to a star.
	e2 := MustParseDTD("(a?)+", alpha)
	d2 := DesugarPlus(e2)
	if got := StringDTD(d2, alpha); got != "a?*" {
		t.Errorf("DesugarPlus((a?)+) = %q, want %q", got, "a?*")
	}
}

func TestUnroll(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a{2}", "aa"},
		{"a{2,4}", "aa(a(a)?)?"},
		{"a{1,}", "aa*"},
		{"a{0,2}", "(aa?)?"}, // optional copies nest innermost-first
		{"(ab){2,3}", "ab(ab)(ab)?"},
	}
	for _, c := range cases {
		alpha := NewAlphabet()
		e := MustParseMath(c.in, alpha)
		u, err := Unroll(e, 100)
		if err != nil {
			t.Fatalf("Unroll(%q): %v", c.in, err)
		}
		// Compare up to parenthesization by re-parsing the expected form.
		want := MustParseMath(c.want, alpha)
		if !Equal(u, want) {
			t.Errorf("Unroll(%q) = %q, want %q", c.in, StringMath(u, alpha), c.want)
		}
	}
	alpha := NewAlphabet()
	e := MustParseMath("a{100}", alpha)
	if _, err := Unroll(e, 10); err != ErrUnrollTooLarge {
		t.Errorf("Unroll(a{100}, 10): got %v, want ErrUnrollTooLarge", err)
	}
}

func TestMetrics(t *testing.T) {
	alpha := NewAlphabet()
	e := MustParseMath("(ab+b(b?)a)*", alpha)
	if got := CountPositions(e); got != 5 {
		t.Errorf("CountPositions = %d, want 5", got)
	}
	if got := MaxOccurrence(e); got != 3 {
		t.Errorf("MaxOccurrence = %d, want 3", got)
	}
	if !HasStar(e) {
		t.Error("HasStar = false, want true")
	}
	if HasIter(e) {
		t.Error("HasIter = true, want false")
	}

	cases := []struct {
		in   string
		want int
	}{
		{"a", 0},
		{"ab", 1},
		{"abc", 1},
		{"a+b", 1},
		{"a+b+c", 1},
		{"(a+b)c", 2},
		{"((a+b)c+d)e", 4},
		{"((ab)(cd))((ef)(gh))", 1},
		{"(a+b)(c+d)", 2},
	}
	for _, c := range cases {
		alpha := NewAlphabet()
		e := MustParseMath(c.in, alpha)
		if got := AlternationDepth(e); got != c.want {
			t.Errorf("AlternationDepth(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAlphabet(t *testing.T) {
	a := NewAlphabet()
	x := a.Intern("x")
	y := a.Intern("y")
	if x == y {
		t.Fatal("distinct names interned to same id")
	}
	if got := a.Intern("x"); got != x {
		t.Error("re-interning returned a different id")
	}
	if a.Name(Begin) != BeginName || a.Name(End) != EndName {
		t.Error("phantom marker names wrong")
	}
	if a.UserSize() != 2 {
		t.Errorf("UserSize = %d, want 2", a.UserSize())
	}
	if got := strings.Join(a.Names(), ","); got != "x,y" {
		t.Errorf("Names = %q", got)
	}
	if _, ok := a.Lookup("z"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}

func TestCloneAndEqual(t *testing.T) {
	alpha := NewAlphabet()
	e := MustParseMath("(a+b)*c{2,3}", alpha)
	c := Clone(e)
	if !Equal(e, c) {
		t.Fatal("clone not equal to original")
	}
	c.L.Kind = KCat // mutate clone
	if Equal(e, c) {
		t.Fatal("mutated clone still equal")
	}
}

func TestAlphabetWordHelpers(t *testing.T) {
	a := NewAlphabet()
	word := a.InternWord([]string{"title", "author", "title", "x"})
	if len(word) != 4 || word[0] != word[2] || word[0] == word[1] {
		t.Fatalf("InternWord ids wrong: %v", word)
	}
	if word[0] < FirstUser {
		t.Fatalf("user symbol below FirstUser: %v", word[0])
	}
	// LookupWord resolves known names to the same ids and unknown names
	// to None, without interning them.
	size := a.Size()
	got := a.LookupWord(nil, []string{"author", "ghost", "x"})
	if got[0] != word[1] || got[1] != None || got[2] != word[3] {
		t.Fatalf("LookupWord = %v, want [%v None %v]", got, word[1], word[3])
	}
	if a.Size() != size {
		t.Fatal("LookupWord mutated the alphabet")
	}
	// LookupWord appends into the provided buffer.
	buf := make([]Symbol, 0, 8)
	buf = a.LookupWord(buf, []string{"title"})
	buf = a.LookupWord(buf, []string{"x"})
	if len(buf) != 2 || buf[0] != word[0] || buf[1] != word[3] {
		t.Fatalf("LookupWord append = %v", buf)
	}
	// LookupRune agrees with Lookup on single-rune names (ASCII fast
	// path and the map path), including the reserved markers.
	a.Intern("π")
	for _, r := range []rune{'x', 'π', '#', '$', 'q'} {
		id1, ok1 := a.LookupRune(r)
		id2, ok2 := a.Lookup(string(r))
		if ok1 != ok2 || (ok1 && id1 != id2) {
			t.Errorf("LookupRune(%q) = (%v,%v), Lookup = (%v,%v)", r, id1, ok1, id2, ok2)
		}
	}
}

// TestParseErrorQuote: a message quotes a short input whole, and at most
// quoteMax bytes around the offset of a long one, cut on rune boundaries.
func TestParseErrorQuote(t *testing.T) {
	_, err := ParseMath("a)", NewAlphabet())
	if want := `parse "a)" at offset 1: unexpected ')'`; err == nil || err.Error() != want {
		t.Errorf("short input: %v, want %s", err, want)
	}
	src := "a" + strings.Repeat(" ", 2<<20) + ")"
	_, err = ParseMath(src, NewAlphabet())
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Input != src || pe.Offset != len(src)-1 {
		t.Fatalf("2 MB source: %.200v, want a ParseError at offset %d", err, len(src)-1)
	}
	if msg := err.Error(); len(msg) >= 512 || !strings.Contains(msg, fmt.Sprintf("at offset %d", len(src)-1)) {
		t.Errorf("2 MB source: a %d-byte message %.200q", len(msg), msg)
	}
	wide := strings.Repeat("é", 1000)
	for _, off := range []int{0, 1, 999, 1001, len(wide)} {
		msg := (&ParseError{Input: wide, Offset: off, Msg: "m"}).Error()
		if len(msg) >= 512 || !utf8.ValidString(msg) {
			t.Errorf("offset %d: a %d-byte message %q", off, len(msg), msg)
		}
	}
	// Not UTF-8: no rune boundary to cut on.
	cont := strings.Repeat("\x81", 1000)
	if msg := (&ParseError{Input: cont, Offset: 500, Msg: "m"}).Error(); len(msg) >= 1024 {
		t.Errorf("continuation bytes: a %d-byte message", len(msg))
	}
}
