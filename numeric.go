package dregex

import (
	"dregex/internal/ast"
	"dregex/internal/determinism"
	"dregex/internal/numeric"
	"dregex/internal/parsetree"
)

// NumericExpr is a compiled expression with XML-Schema numeric occurrence
// indicators e{m,n} (paper §3.3). Its determinism test runs in O(|e|)
// regardless of the magnitudes of the bounds — maxOccurs="1000000000"
// costs the same as maxOccurs="2" — improving the O(σ|e|) bound of
// Kilpeläinen's checker. Like Expr, a NumericExpr is immutable and safe
// for concurrent use once compiled.
type NumericExpr struct {
	source string
	c      *numeric.Counted
	m      NumericMatcher
	// explain memoizes the Explain diagnosis, like Expr.explain.
	explain ambSlot
}

// CompileNumeric parses (through the same front end as Compile) and
// preprocesses an expression that may use numeric occurrence indicators.
func CompileNumeric(source string, syntax Syntax) (*NumericExpr, error) {
	tree, err := parseTree(source, syntax, true)
	if err != nil {
		return nil, err
	}
	c := numeric.FromTree(tree)
	e := &NumericExpr{source: source, c: c}
	e.m = NumericMatcher{c: c}
	numericBuilds.Add(1)
	return e, nil
}

// Source returns the original expression text.
func (e *NumericExpr) Source() string { return e.source }

// IsDeterministic reports the linear §3.3 verdict.
func (e *NumericExpr) IsDeterministic() bool { return e.c.IsDeterministic() }

// Rule names the condition that proved nondeterminism ("" when
// deterministic).
func (e *NumericExpr) Rule() string { return e.c.Result().Rule }

// Explain returns a counterexample diagnosis for a nondeterministic
// expression (nil for deterministic ones), with the same shape the plain
// pipeline produces: the rule that fired, the doubly-matchable symbol, and
// — when one can be verified — a witness word whose last letter is the
// ambiguous symbol. Counter-level ambiguities (a position competing with
// itself on diverging counter values, e.g. a nullable iteration body) have
// Q1 = Q2; the word then leads to the symbol at which the counters diverge.
// Diagnosis may take O(|Pos(e)|²); the verdict itself is always linear,
// and the diagnosis is memoized like Expr.Explain's.
func (e *NumericExpr) Explain() *Ambiguity {
	det := e.c.Result()
	if det.Deterministic {
		return nil
	}
	e.explain.once.Do(func() { e.explain.amb = e.diagnose(det) })
	return e.explain.amb.clone()
}

func (e *NumericExpr) diagnose(det *determinism.Result) *Ambiguity {
	amb := &Ambiguity{Rule: det.Rule}
	if det.Q1 != parsetree.Null {
		amb.Symbol = e.c.Tree.Label(det.Q1)
	}
	w := determinism.DiagnoseLoops(e.c.Tree, e.c.Fol, det)
	if w == nil {
		return amb
	}
	amb.Symbol = e.c.Tree.Label(w.Q1)
	word := determinism.ShortestWitnessWordLoops(e.c.Tree, e.c.Fol, w)
	if word == nil {
		return amb
	}
	// The witness word comes from the plain follow relation; a counter
	// minimum could make it infeasible (an exit before Min). Keep it only
	// if the counter simulation confirms it is a viable prefix.
	var s numeric.Stream
	s.Init(e.c)
	for _, a := range word {
		if !s.Feed(a) {
			return amb
		}
	}
	for _, a := range word {
		amb.Word = append(amb.Word, e.c.Alpha.Name(a))
	}
	return amb
}

// MatchSymbols matches a word of symbol names by counter simulation.
func (e *NumericExpr) MatchSymbols(names []string) bool { return e.c.MatchNames(names) }

// MatchWord matches a word of interned symbols (see NumericExpr.Intern).
func (e *NumericExpr) MatchWord(word []ast.Symbol) bool { return e.c.Match(word) }

// Intern translates symbol names to interned symbols without mutating the
// alphabet; unknown names map to a sentinel the simulation rejects.
func (e *NumericExpr) Intern(names []string) []ast.Symbol {
	return e.c.Alpha.LookupWord(make([]ast.Symbol, 0, len(names)), names)
}

// InternInto is Intern appending into a caller-provided buffer, for
// allocation-free reuse across calls.
func (e *NumericExpr) InternInto(dst []ast.Symbol, names []string) []ast.Symbol {
	return e.c.Alpha.LookupWord(dst, names)
}

// MatchText matches a math-notation word (one rune per symbol), interning
// runes directly instead of materializing a per-rune string slice.
func (e *NumericExpr) MatchText(w string) bool {
	word := make([]ast.Symbol, 0, len(w))
	for _, r := range w {
		s, ok := e.c.Alpha.LookupRune(r)
		if !ok {
			return false
		}
		word = append(word, s)
	}
	return e.c.Match(word)
}

// IterationStats summarizes the counter structure.
func (e *NumericExpr) IterationStats() numeric.Stats { return e.c.Stats() }

// NumericStream is the reusable per-word state of the counter engine: feed
// symbols one at a time, query acceptance at any prefix. It is the numeric
// counterpart of match.Stream — embed one by value per worker or stack
// frame and rewind it with NumericMatcher.InitStream for the
// zero-allocation steady-state path.
type NumericStream = numeric.Stream

// NumericMatcher matches words against one compiled counted expression by
// streaming counter simulation. It is the NumericExpr counterpart of
// Matcher: safe for concurrent use (per-word state lives in NumericStream
// values), obtained from NumericExpr.Matcher, and shared by all callers of
// the same NumericExpr. Unlike the deterministic plain engines it accepts
// nondeterministic expressions too — the simulation then tracks every live
// run, like the NFA engine.
type NumericMatcher struct {
	c *numeric.Counted
}

// Matcher returns the counter-simulation engine. The same engine value
// backs every call (parity with Expr.Matcher's per-algorithm cache; the
// counter engine needs no construction beyond compilation itself).
func (e *NumericExpr) Matcher() *NumericMatcher { return &e.m }

// MatchSymbols matches a word given as symbol names.
func (m *NumericMatcher) MatchSymbols(names []string) bool { return m.c.MatchNames(names) }

// MatchWord matches a word of interned symbols (see NumericExpr.Intern).
// Hot callers should prefer a reused NumericStream via InitStream: that
// path performs no allocation in steady state, while MatchWord sets up a
// fresh stream per call.
func (m *NumericMatcher) MatchWord(word []ast.Symbol) bool { return m.c.Match(word) }

// MatchText matches a math-notation word (one rune per symbol).
func (m *NumericMatcher) MatchText(w string) bool {
	word := make([]ast.Symbol, 0, len(w))
	for _, r := range w {
		s, ok := m.c.Alpha.LookupRune(r)
		if !ok {
			return false
		}
		word = append(word, s)
	}
	return m.c.Match(word)
}

// Stream starts an incremental match at the empty prefix.
func (m *NumericMatcher) Stream() *NumericStream { return numeric.NewStream(m.c) }

// InitStream rewinds a caller-owned stream onto this matcher's expression,
// for allocation-free reuse (one NumericStream value per goroutine or stack
// frame, reset per word). It always reports true — the counter engine
// streams every expression — mirroring Matcher.InitStream's signature.
func (m *NumericMatcher) InitStream(s *NumericStream) bool {
	s.Init(m.c)
	return true
}
