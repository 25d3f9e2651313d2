package dregex

import (
	"fmt"
	"sync"
	"testing"

	"dregex/internal/ast"
)

// TestNumericMatcherStream exercises the NumericExpr Matcher/InitStream
// parity path: incremental feeding, prefix acceptance, reuse across words.
func TestNumericMatcherStream(t *testing.T) {
	e, err := CompileNumeric("(a, b){2,3}, c?", DTD)
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsDeterministic() {
		t.Fatalf("(a,b){2,3},c? must be deterministic, rule=%s", e.Rule())
	}
	m := e.Matcher()
	if m2 := e.Matcher(); m2 != m {
		t.Error("Matcher must return the same cached engine")
	}

	var s NumericStream
	if !m.InitStream(&s) {
		t.Fatal("InitStream reported false")
	}
	feedAll := func(names ...string) bool {
		m.InitStream(&s)
		for _, n := range names {
			if !s.FeedName(n) {
				return false
			}
		}
		return true
	}
	cases := []struct {
		word   []string
		viable bool
		accept bool
	}{
		{[]string{"a", "b", "a", "b"}, true, true},
		{[]string{"a", "b", "a", "b", "c"}, true, true},
		{[]string{"a", "b", "a", "b", "a", "b"}, true, true},
		{[]string{"a", "b"}, true, false},                           // below Min
		{[]string{"a", "b", "a", "b", "a", "b", "a"}, false, false}, // beyond Max
		{[]string{"a", "a"}, false, false},
		{[]string{"z"}, false, false},
	}
	for _, c := range cases {
		viable := feedAll(c.word...)
		if viable != c.viable {
			t.Errorf("feed %v: viable=%v, want %v", c.word, viable, c.viable)
		}
		if got := s.Accepts(); got != c.accept {
			t.Errorf("feed %v: accepts=%v, want %v", c.word, got, c.accept)
		}
		// Matcher word-at-once APIs must agree with the stream.
		if got := m.MatchSymbols(c.word); got != c.accept {
			t.Errorf("MatchSymbols(%v)=%v, want %v", c.word, got, c.accept)
		}
		if got := m.MatchWord(e.Intern(c.word)); got != c.accept {
			t.Errorf("MatchWord(%v)=%v, want %v", c.word, got, c.accept)
		}
	}
	// Accepts must be non-destructive: querying mid-word must not disturb
	// the run.
	m.InitStream(&s)
	for i, n := range []string{"a", "b", "a", "b", "a", "b"} {
		s.Accepts()
		if !s.FeedName(n) {
			t.Fatalf("stream died at symbol %d", i)
		}
	}
	if !s.Accepts() {
		t.Error("(ab)^3 must accept after interleaved Accepts probes")
	}
}

// TestNumericStreamZeroAlloc pins the satellite acceptance criterion: the
// interned steady-state path — InitStream, one Feed per symbol, Accepts —
// performs zero allocations per word once the stream's buffers have warmed
// up, matching the plain Matcher.MatchWord/InitStream guarantee.
func TestNumericStreamZeroAlloc(t *testing.T) {
	e, err := CompileNumeric("(a{2,4}, (b | c)){1,3}, d?", DTD)
	if err != nil {
		t.Fatal(err)
	}
	if !e.IsDeterministic() {
		t.Fatalf("model must be deterministic, rule=%s", e.Rule())
	}
	m := e.Matcher()
	word := e.Intern([]string{"a", "a", "a", "b", "a", "a", "c", "d"})
	var s NumericStream
	run := func() bool {
		m.InitStream(&s)
		for _, a := range word {
			if !s.Feed(a) {
				return false
			}
		}
		return s.Accepts()
	}
	if !run() { // warm up the stream buffers — and check the verdict
		t.Fatal("warm-up word must match")
	}
	if n := testing.AllocsPerRun(500, func() {
		if !run() {
			t.Fatal("word must match")
		}
	}); n != 0 {
		t.Errorf("steady-state numeric stream path allocates %.2f/word, want 0", n)
	}

	// Nondeterministic expressions keep a configuration set; that path must
	// also settle to zero allocations (bounded live set).
	flex, err := CompileNumeric("(a, b?){2,3}, a", DTD)
	if err != nil {
		t.Fatal(err)
	}
	fm := flex.Matcher()
	fword := flex.Intern([]string{"a", "b", "a", "a"})
	frun := func() bool {
		fm.InitStream(&s)
		for _, a := range fword {
			if !s.Feed(a) {
				return false
			}
		}
		return s.Accepts()
	}
	if !frun() {
		t.Fatal("a b a a must match (a,b?){2,3},a")
	}
	if n := testing.AllocsPerRun(500, func() { frun() }); n != 0 {
		t.Errorf("nondeterministic stream path allocates %.2f/word, want 0", n)
	}

	// A deterministic expression whose configurations are past the DFA
	// budget simulates; its singleton set settles to zero allocations too.
	big, err := CompileNumeric("(a, b{1,50}, c?){1,50}, d", DTD)
	if err != nil {
		t.Fatal(err)
	}
	if !big.IsDeterministic() {
		t.Fatalf("past-budget model must be deterministic, rule=%s", big.Rule())
	}
	bm := big.Matcher()
	bword := big.Intern([]string{"a", "b", "b", "c", "a", "b", "d"})
	brun := func() bool {
		bm.InitStream(&s)
		for _, a := range bword {
			if !s.Feed(a) {
				return false
			}
		}
		return s.Accepts()
	}
	if !brun() {
		t.Fatal("a b b c a b d must match (a,b{1,50},c?){1,50},d")
	}
	if n := testing.AllocsPerRun(500, func() { brun() }); n != 0 {
		t.Errorf("past-budget stream path allocates %.2f/word, want 0", n)
	}
}

// TestNumericStreamConcurrentInit races the lazy DFA build: goroutines
// Init and Feed streams on one fresh NumericExpr at once (run under
// -race), and every one must reach the same verdicts.
func TestNumericStreamConcurrentInit(t *testing.T) {
	e, err := CompileNumeric("(label, point{2,12}, (flag | comment){0,3}, unit?)", DTD)
	if err != nil {
		t.Fatal(err)
	}
	m := e.Matcher()
	good := e.Intern([]string{"label", "point", "point", "flag", "unit"})
	bad := e.Intern([]string{"label", "point", "unit"})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s NumericStream
			for i := 0; i < 50; i++ {
				for _, c := range []struct {
					word []ast.Symbol
					want bool
				}{{good, true}, {bad, false}} {
					m.InitStream(&s)
					ok := true
					for _, a := range c.word {
						ok = ok && s.Feed(a)
					}
					if got := ok && s.Accepts(); got != c.want {
						errs <- fmt.Sprintf("verdict %v, want %v", got, c.want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestNumericExplain checks the counterexample diagnosis parity with the
// plain pipeline.
func TestNumericExplain(t *testing.T) {
	det, err := CompileNumeric("(a, b){2}, c", DTD)
	if err != nil {
		t.Fatal(err)
	}
	if amb := det.Explain(); amb != nil {
		t.Fatalf("deterministic expression diagnosed: %+v", amb)
	}

	// (a,b){2,3},a: after (ab)^2 a third 'a' can start iteration 3 or exit.
	flex, err := CompileNumeric("(a, b){2,3}, a", DTD)
	if err != nil {
		t.Fatal(err)
	}
	if flex.IsDeterministic() {
		t.Fatal("(a,b){2,3},a must be nondeterministic")
	}
	amb := flex.Explain()
	if amb == nil || amb.Rule == "" {
		t.Fatalf("missing diagnosis: %+v", amb)
	}
	if amb.Symbol != "a" {
		t.Errorf("ambiguous symbol = %q, want a", amb.Symbol)
	}
	if len(amb.Word) > 0 {
		// A reported witness word must at least be a viable prefix.
		var s NumericStream
		flex.Matcher().InitStream(&s)
		for _, n := range amb.Word {
			if !s.FeedName(n) {
				t.Fatalf("witness word %v is not a viable prefix", amb.Word)
			}
		}
		if amb.Word[len(amb.Word)-1] != amb.Symbol {
			t.Errorf("witness word %v does not end in symbol %q", amb.Word, amb.Symbol)
		}
	}
}
