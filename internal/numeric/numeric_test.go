package numeric

import (
	"math/rand"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/determinism"
	"dregex/internal/follow"
	"dregex/internal/glushkov"
	"dregex/internal/parsetree"
	"dregex/internal/run"
	"dregex/internal/wordgen"
	"dregex/internal/words"
)

// unrollVerdict computes the spec verdict: determinism of the canonical
// unrolling, decided by the (independently validated) plain linear test.
func unrollVerdict(t *testing.T, e *ast.Node, alpha *ast.Alphabet, budget int) (bool, bool) {
	t.Helper()
	u, err := ast.Unroll(e, budget)
	if err != nil {
		return false, false // too large to unroll; skip
	}
	tr, err := parsetree.Build(ast.Normalize(u), alpha)
	if err != nil {
		t.Fatal(err)
	}
	return determinism.Check(tr, follow.New(tr)).Deterministic, true
}

func TestPaperExamples(t *testing.T) {
	cases := []struct {
		src string
		det bool
	}{
		{"(ab){2}a(b+d)", true},        // §3.3: deterministic
		{"(ab){1,2}a", false},          // §3.3: w = aba is ambiguous
		{"((a{2,3}+b){2}){2}b", false}, // e5 from [19]: a⁸b reaches two b's
		{"((a{2}+b){2}){2}b", true},    // rigid variant is fine
		{"a{2,3}", true},
		{"(a{2,3})*", false}, // exit after 2 or 3 then restart vs continue
		{"(a{2}b){3,5}", true},
		{"(a?){1,3}b", false}, // nullable body: counter padding on a
	}
	for _, c := range cases {
		ct, err := CompileString(c.src)
		if err != nil {
			t.Fatalf("Compile(%s): %v", c.src, err)
		}
		if got := ct.IsDeterministic(); got != c.det {
			t.Errorf("%s: deterministic = %v (%s), want %v",
				c.src, got, ct.Result().Rule, c.det)
		}
		// Cross-check against the unrolling spec.
		alpha := ast.NewAlphabet()
		e := ast.MustParseMath(c.src, alpha)
		want, ok := unrollVerdict(t, e, alpha, 10000)
		if !ok {
			t.Fatalf("%s: spec unroll failed", c.src)
		}
		if want != c.det {
			t.Fatalf("%s: test expectation %v disagrees with unrolling spec %v",
				c.src, c.det, want)
		}
	}
}

// TestAgainstUnrollingSpec is the decisive fuzz: the linear counted test
// must agree with determinism of the canonical unrolling.
func TestAgainstUnrollingSpec(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	agree, nondet := 0, 0
	for trial := 0; trial < 9000; trial++ {
		alpha := ast.NewAlphabet()
		e := wordgen.RandomExpr(r, alpha, wordgen.ExprConfig{
			Symbols:   1 + r.Intn(4),
			MaxNodes:  4 + r.Intn(30),
			AllowIter: true,
			IterMax:   4,
		})
		if !ast.HasIter(ast.Normalize(e)) {
			continue
		}
		want, ok := unrollVerdict(t, e, alpha, 3000)
		if !ok {
			continue
		}
		ct, err := Compile(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if got := ct.IsDeterministic(); got != want {
			t.Fatalf("disagreement on %s (normalized %s): linear=%v (%s), unroll-spec=%v",
				ast.StringMath(e, alpha), ast.StringMath(ast.Normalize(ast.DesugarPlus(ast.Normalize(e))), alpha),
				got, ct.Result().Rule, want)
		}
		agree++
		if !want {
			nondet++
		}
	}
	if agree < 1200 {
		t.Fatalf("only %d comparable samples", agree)
	}
	if nondet < agree/10 || nondet > agree*9/10 {
		t.Fatalf("unbalanced corpus: %d/%d nondeterministic", nondet, agree)
	}
}

// TestMatchAgainstUnrolledOracle checks counter matching against NFA
// simulation of the unrolled expression.
func TestMatchAgainstUnrolledOracle(t *testing.T) {
	r := rand.New(rand.NewSource(409))
	samples := 0
	for trial := 0; trial < 400; trial++ {
		alpha := ast.NewAlphabet()
		e := wordgen.RandomExpr(r, alpha, wordgen.ExprConfig{
			Symbols:   1 + r.Intn(3),
			MaxNodes:  4 + r.Intn(20),
			AllowIter: true,
			IterMax:   3,
		})
		u, err := ast.Unroll(e, 800)
		if err != nil {
			continue
		}
		utr, err := parsetree.Build(ast.Normalize(u), alpha)
		if err != nil {
			t.Fatal(err)
		}
		oracle := glushkov.Build(utr)
		ufol := follow.New(utr)
		ct, err := Compile(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		samples++
		for i := 0; i < 20; i++ {
			var w []ast.Symbol
			if i%2 == 0 {
				if pw, ok := words.RandomWord(r, ufol, 18, 0.3); ok {
					w = pw
				}
			}
			if w == nil {
				w = words.NoiseWord(r, utr, r.Intn(10))
			}
			if got, want := ct.Match(w), oracle.Match(w); got != want {
				t.Fatalf("counter match on %s word %v: got %v, want %v",
					ast.StringMath(e, alpha), w, got, want)
			}
		}
	}
	if samples < 150 {
		t.Fatalf("only %d samples", samples)
	}
}

// TestBoundMagnitudeInvariance: the verdict must depend on the bounds only
// through the flags the theory uses (Min<Max, Min≥2, nullable body) — so
// scaling bounds up (preserving flags) must not change it. This is what
// lets the linear test handle maxOccurs=10⁹ without unrolling.
func TestBoundMagnitudeInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(419))
	checked := 0
	for trial := 0; trial < 1500; trial++ {
		alpha := ast.NewAlphabet()
		e := wordgen.RandomExpr(r, alpha, wordgen.ExprConfig{
			Symbols:   1 + r.Intn(3),
			MaxNodes:  4 + r.Intn(20),
			AllowIter: true,
			IterMax:   3,
		})
		if !ast.HasIter(e) {
			continue
		}
		scaled := ast.Clone(e)
		ast.Walk(scaled, func(n *ast.Node) {
			if n.Kind != ast.KIter {
				return
			}
			wasFlexible := n.Max == ast.Unbounded || n.Max > n.Min
			if n.Min >= 2 {
				n.Min += 1000
			}
			if n.Max != ast.Unbounded {
				if wasFlexible {
					n.Max = n.Min + 1000 + r.Intn(1000)
				} else {
					n.Max = n.Min
				}
			}
		})
		c1, err := Compile(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Compile(scaled, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if c1.IsDeterministic() != c2.IsDeterministic() {
			t.Fatalf("bound scaling changed verdict: %s vs %s",
				ast.StringMath(e, alpha), ast.StringMath(scaled, alpha))
		}
		checked++
	}
	if checked < 300 {
		t.Fatalf("only %d samples", checked)
	}
}

func TestCounterMatchingHandPicked(t *testing.T) {
	// Deterministic rigid bound: (ab){2}a(b+d), the paper's example.
	rigid, err := CompileString("(ab){2}a(b+d)")
	if err != nil {
		t.Fatal(err)
	}
	if !rigid.IsDeterministic() {
		t.Fatalf("(ab){2}a(b+d) must be deterministic, rule=%s", rigid.Result().Rule)
	}
	// Flexible bound: nondeterministic (aba is ambiguous at the third a),
	// but the configuration matcher still decides membership exactly.
	flex, err := CompileString("(ab){2,3}a(b+d)")
	if err != nil {
		t.Fatal(err)
	}
	if flex.IsDeterministic() {
		t.Fatal("(ab){2,3}a(b+d) must be nondeterministic")
	}
	accept := [][]string{
		{"a", "b", "a", "b", "a", "b"},           // (ab)² a b
		{"a", "b", "a", "b", "a", "d"},           // (ab)² a d
		{"a", "b", "a", "b", "a", "b", "a", "b"}, // (ab)³ a b
		{"a", "b", "a", "b", "a", "b", "a", "d"}, // (ab)³ a d
	}
	reject := [][]string{
		{"a", "b", "a", "b"},
		{"a", "b", "a"},
		{"a", "b", "a", "b", "a", "b", "a", "b", "a", "b"},
		{"a", "b", "a", "b", "a", "b", "a", "b", "a", "d"},
	}
	for _, w := range accept {
		if !flex.MatchNames(w) {
			t.Errorf("flex must accept %v", w)
		}
	}
	for _, w := range reject {
		if flex.MatchNames(w) {
			t.Errorf("flex must reject %v", w)
		}
	}
	if !rigid.MatchNames([]string{"a", "b", "a", "b", "a", "d"}) {
		t.Error("rigid must accept abab·ad")
	}
	if rigid.MatchNames([]string{"a", "b", "a", "b", "a", "b", "a", "b"}) {
		t.Error("rigid must reject (ab)³ab")
	}
}

func TestStatsAndUnbounded(t *testing.T) {
	ct, err := CompileString("(a{2,5}b){3,}c{2}")
	if err != nil {
		t.Fatal(err)
	}
	st := ct.Stats()
	if st.Iterations != 3 || st.Flexible != 2 || !st.Unbounded || st.MaxBound != 5 {
		t.Errorf("Stats = %+v", st)
	}
	// Unbounded iteration matches arbitrarily many repetitions.
	w := []string{}
	for i := 0; i < 7; i++ {
		w = append(w, "a", "a", "b")
	}
	w = append(w, "c", "c")
	if !ct.MatchNames(w) {
		t.Error("unbounded repetition rejected")
	}
}

// TestStreamWitnessReuse pins that Init after a rejected word fully
// resets the witness-trace state: the attached trace is truncated, a
// fresh run records from scratch, and the dead stream kept its last
// viable configuration set (Len counts consumed symbols only).
func TestStreamWitnessReuse(t *testing.T) {
	c, err := CompileString("(ab){2,3}")
	if err != nil {
		t.Fatal(err)
	}
	var s Stream
	s.Init(c)
	var tr run.Trace
	s.SetTrace(&tr)

	if s.FeedName("a") != true || s.FeedName("a") != false {
		t.Fatal("aa must die on the second a")
	}
	if s.Alive() || s.Len() != 1 {
		t.Fatalf("after death: alive=%v len=%d, want dead len 1", s.Alive(), s.Len())
	}
	if len(tr.Pos) != 1 {
		t.Fatalf("trace after rejected word: %v", tr.Pos)
	}

	s.Init(c)
	if len(tr.Pos) != 0 {
		t.Fatalf("Init must truncate the attached trace, got %v", tr.Pos)
	}
	for _, n := range []string{"a", "b", "a", "b"} {
		if !s.FeedName(n) {
			t.Fatalf("abab rejected at %q", n)
		}
	}
	if !s.Accepts() || len(tr.Pos) != 4 {
		t.Fatalf("fresh run: accepts=%v trace=%v", s.Accepts(), tr.Pos)
	}
	for _, p := range tr.Pos {
		if p == parsetree.Null {
			t.Fatalf("deterministic singleton run recorded Null: %v", tr.Pos)
		}
	}
}
