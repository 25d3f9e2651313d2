package dregex

import "testing"

func TestCompileNumeric(t *testing.T) {
	cases := []struct {
		src    string
		syntax Syntax
		det    bool
	}{
		{"(ab){2}a(b+d)", Math, true},
		{"(ab){1,2}a", Math, false},
		{"((a{2,3}+b){2}){2}b", Math, false},
		{"(a{2,1000000000}b)*", Math, true},
		{"item{3,7}", DTD, true},
		{"(a{1,2}), a", DTD, false},
	}
	for _, c := range cases {
		e, err := CompileNumeric(c.src, c.syntax)
		if err != nil {
			t.Fatalf("CompileNumeric(%q): %v", c.src, err)
		}
		if got := e.IsDeterministic(); got != c.det {
			t.Errorf("%q: deterministic = %v (%s), want %v", c.src, got, e.Rule(), c.det)
		}
		if e.Source() != c.src {
			t.Errorf("%q: source lost", c.src)
		}
	}
}

func TestNumericMatching(t *testing.T) {
	e, err := CompileNumeric("(ab){2,3}c", Math)
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range map[string]bool{
		"ababc":     true,
		"abababc":   true,
		"abc":       false,
		"ababababc": false,
		"abab":      false,
		"abaxbc":    false, // x is not in the alphabet
		"#ababc":    false, // nor is the phantom #
	} {
		if got := e.MatchText(w); got != want {
			t.Errorf("MatchText(%q) = %v, want %v", w, got, want)
		}
	}
	if !e.MatchSymbols([]string{"a", "b", "a", "b", "c"}) {
		t.Error("MatchSymbols failed on abab c")
	}
	st := e.IterationStats()
	if st.Iterations != 1 || st.Flexible != 1 || st.Unbounded {
		t.Errorf("IterationStats = %+v", st)
	}
}

func TestCompileNumericErrors(t *testing.T) {
	if _, err := CompileNumeric("(((", Math); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := CompileNumeric("a{3,2}", Math); err == nil {
		t.Error("inverted bounds accepted")
	}
}
