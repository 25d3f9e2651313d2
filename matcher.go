package dregex

import (
	"errors"
	"fmt"
	"io"

	"dregex/internal/ast"
	"dregex/internal/match"
	"dregex/internal/match/colored"
	"dregex/internal/match/kore"
	"dregex/internal/match/pathdecomp"
	"dregex/internal/match/starfree"
	"dregex/internal/match/table"
	"dregex/internal/run"
)

// Algorithm selects a transition-simulation engine (§4 of the paper, plus
// the dense-table fast path).
type Algorithm int

// Matching algorithms. Auto picks the dense-table DFA whenever the
// expression fits the TableBudget (real-world content models are tiny
// 1-OREs, where a table transition is one indexed load). Past the budget
// it takes the shortest ladder the engine sweep (benchtab -exp ladder)
// measured: the k-ORE simulator while no symbol occurs more than koreMaxK
// times, and the colored-ancestor simulator with binary-search
// predecessors otherwise. PathDecomp won one swept model, a near-tie on
// bytes, and the vEB-backed Colored none, so Auto picks neither; like
// every engine, they stay selectable explicitly.
const (
	Auto Algorithm = iota
	// Table is the flat-table DFA: the Glushkov automaton of a
	// deterministic expression materialized as a dense transition table
	// (states = positions, no subset construction), O(1) loads per symbol.
	// Available only while the table and its construction fit
	// TableBudget.
	Table
	// KORE is Theorem 4.3: O(k) per symbol.
	KORE
	// Colored is Theorem 4.2: O(log log |e|) per symbol via van Emde
	// Boas lowest-colored-ancestor queries.
	Colored
	// ColoredBinary is Colored with a binary-search predecessor backend
	// (ablation baseline, O(log |e|) per symbol).
	ColoredBinary
	// PathDecomp is Theorem 4.10: amortized O(c_e) per symbol.
	PathDecomp
	// StarFreeScan is the §4.4 single-word scan; requires a star-free
	// expression, total O(|e| + |w|) per word.
	StarFreeScan
	// Climbing is the naive O(depth(e)) per-symbol baseline of §4.3.
	Climbing
	// NFA is position-set simulation on the Glushkov relation; the only
	// engine that accepts nondeterministic expressions (O(k²) per symbol).
	NFA

	// numAlgorithms sizes the per-Expr engine cache.
	numAlgorithms = int(NFA) + 1
)

// TableBudget caps the dense-table tier: Auto selects Table only while
// both the table, (positions+2) × (alphabet+2) entries — the phantom # and
// $ occupy one state and two columns — and its construction,
// (positions+2)² pair probes, stay within it (table.Fits). Above the budget
// the linear-precomputation engines of §4 take over, keeping the paper's
// O(|e|) preprocessing guarantee for pathological sizes.
const TableBudget = table.DefaultBudget

// tableEligible reports whether Auto may pick the dense-table tier: the
// rule table.New builds under, so Auto never selects a tier that would
// then refuse to build.
func tableEligible(st Stats) bool {
	return st.Deterministic && table.Fits(st.Positions+2, st.Sigma+2)
}

// koreMaxK is K*, the largest occurrence bound k at which the ladder sweep
// (benchtab -exp ladder, recorded in BENCH_20261019.json) found KORE the
// winner of every swept model at every k' ≤ k: fastest, or within 10% of
// the fastest with fewer bytes. It is a constant, so KORE's O(k) per
// symbol keeps matching linear.
const koreMaxK = 5

// autoSelect resolves Auto from the compile-time stats: the dense-table
// fast path while it fits TableBudget, KORE while k ≤ koreMaxK, and
// ColoredBinary, the sweep's winner past koreMaxK, otherwise.
func autoSelect(st Stats) Algorithm {
	switch {
	case tableEligible(st):
		return Table
	case st.K <= koreMaxK:
		return KORE
	default:
		return ColoredBinary
	}
}

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Table:
		return "table"
	case KORE:
		return "kore"
	case Colored:
		return "colored"
	case ColoredBinary:
		return "colored-binary"
	case PathDecomp:
		return "pathdecomp"
	case StarFreeScan:
		return "starfree-scan"
	case Climbing:
		return "climbing"
	case NFA:
		return "nfa"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Matcher matches words against one compiled expression with a fixed
// algorithm. Matchers are safe for concurrent use; per-word state lives in
// Stream values.
type Matcher struct {
	expr *Expr
	algo Algorithm
	sim  match.TransitionSim
	nfa  *kore.NFA
	// tab aliases sim for the Table engine, so MatchWord can take the
	// devirtualized table loop instead of per-symbol interface calls.
	tab *table.DFA
}

// Matcher returns the engine for algo, building it on first use and
// returning the same cached *Matcher on every subsequent call (Auto
// resolves to a concrete algorithm first, so Matcher(Auto) and an explicit
// request for the same algorithm share one engine). All algorithms except
// NFA require a deterministic expression.
func (e *Expr) Matcher(algo Algorithm) (*Matcher, error) {
	if algo == Auto {
		algo = e.auto
	}
	if int(algo) < 0 || int(algo) >= numAlgorithms {
		return nil, fmt.Errorf("dregex: unknown algorithm %v", algo)
	}
	if algo != NFA && !e.det.Deterministic {
		return nil, fmt.Errorf("dregex: %w", errNondet(e))
	}
	slot := &e.engines[algo]
	slot.once.Do(func() {
		slot.m, slot.err = e.buildMatcher(algo)
	})
	return slot.m, slot.err
}

// buildMatcher constructs one engine; it runs at most once per algorithm
// per Expr, under the engine slot's sync.Once. Matcher has already refused
// a nondeterministic expression for every engine but NFA, so the engines
// are built on the compile-time verdict and do not test it again.
func (e *Expr) buildMatcher(algo Algorithm) (*Matcher, error) {
	m := &Matcher{expr: e, algo: algo}
	var err error
	switch algo {
	case Table:
		m.tab, err = table.New(e.tree, e.fol)
		m.sim = m.tab
	case KORE:
		m.sim = kore.New(e.tree, e.fol)
	case Colored:
		m.sim = colored.New(e.tree, e.fol, colored.Options{})
	case ColoredBinary:
		m.sim = colored.New(e.tree, e.fol, colored.Options{BinarySearch: true})
	case PathDecomp:
		m.sim, err = pathdecomp.New(e.tree, e.fol)
	case StarFreeScan:
		if !e.stats.StarFree {
			return nil, starfree.ErrNotStarFree
		}
		m.sim = starfree.NewScan(e.tree, e.fol)
	case Climbing:
		m.sim = colored.NewClimbing(e.tree, e.fol)
	case NFA:
		m.nfa = kore.NewNFA(e.tree, e.fol)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// batchEngine returns the cached Theorem 4.12 star-free batch engine; the
// caller has checked that the expression is deterministic and star-free.
func (e *Expr) batchEngine() *starfree.Batch {
	e.batch.once.Do(func() {
		e.batch.b = starfree.NewBatch(e.tree, e.fol)
		batchBuilds.Add(1)
	})
	return e.batch.b
}

func errNondet(e *Expr) error {
	return fmt.Errorf("expression %q is not deterministic (%s)", e.source, e.det.Rule)
}

// Algorithm returns the engine actually selected (resolving Auto).
func (m *Matcher) Algorithm() Algorithm { return m.algo }

// MatchSymbols matches a word given as symbol names.
func (m *Matcher) MatchSymbols(names []string) bool {
	if m.nfa != nil {
		return m.nfa.MatchNames(names)
	}
	return match.Names(m.sim, names)
}

// MatchWord matches a word of interned symbols (see Expr.Intern). For the
// deterministic engines this is the zero-allocation hot path: no map
// lookups, no per-symbol conversions, O(1) state.
func (m *Matcher) MatchWord(word []ast.Symbol) bool {
	if m.tab != nil {
		return m.tab.MatchWord(word)
	}
	if m.nfa != nil {
		return m.nfa.Match(word)
	}
	return match.Word(m.sim, word)
}

// MatchText matches a word written in math notation: each rune is one
// symbol, interned directly (no per-rune string allocation).
func (m *Matcher) MatchText(w string) bool {
	if m.nfa != nil {
		alpha := m.expr.alpha
		word := make([]ast.Symbol, 0, len(w))
		for _, r := range w {
			s, ok := alpha.LookupRune(r)
			if !ok {
				return false
			}
			word = append(word, s)
		}
		return m.nfa.Match(word)
	}
	return match.Chars(m.sim, w)
}

// Stream starts an incremental match (one-pass, O(1) state beyond the
// preprocessed expression). The NFA engine has no single-position state and
// returns nil.
func (m *Matcher) Stream() *match.Stream {
	if m.sim == nil {
		return nil
	}
	return match.NewStream(m.sim)
}

// InitStream rewinds a caller-owned stream onto this matcher's engine, for
// allocation-free reuse (one Stream value per goroutine or stack frame,
// reset per word). It reports false for the NFA engine, which has no
// single-position stream state.
func (m *Matcher) InitStream(s *match.Stream) bool {
	if m.sim == nil {
		return false
	}
	s.Init(m.sim)
	return true
}

// errNeedDeterministicStream rejects streaming requests on expressions
// that compiled without a streaming simulator (nondeterministic ones).
var errNeedDeterministicStream = errors.New("dregex: streaming requires a deterministic engine")

// MatchReaderRunes streams single-rune symbols from r (ASCII whitespace
// skipped).
func (m *Matcher) MatchReaderRunes(r io.Reader) (bool, error) {
	if m.sim == nil {
		return false, errNeedDeterministicStream
	}
	var s match.Stream
	s.Init(m.sim)
	return run.ReaderRunes(&s, r)
}

// MatchReaderTokens streams whitespace-separated symbol names from r.
func (m *Matcher) MatchReaderTokens(r io.Reader) (bool, error) {
	if m.sim == nil {
		return false, errNeedDeterministicStream
	}
	var s match.Stream
	s.Init(m.sim)
	return run.ReaderTokens(&s, r)
}

// MatchAll matches many words at once. Under Auto, table-eligible
// expressions ride the dense-table engine word by word (a table step is
// cheaper than the batch machinery's bookkeeping, and the path allocates
// nothing beyond the result slice); star-free expressions beyond the table
// budget take the Theorem 4.12 batch algorithm (combined linear time). An
// explicitly requested Algorithm is honored and matches each word
// independently (including NFA on nondeterministic expressions, exactly
// as through Matcher). The batch engine, like the per-algorithm
// simulators, is built once and reused across calls.
func (e *Expr) MatchAll(wordsNames [][]string, algo Algorithm) ([]bool, error) {
	if algo == Auto && e.det.Deterministic && e.stats.StarFree && e.auto != Table {
		return e.batchEngine().MatchAllNames(wordsNames), nil
	}
	// Matcher enforces determinism for every engine except NFA, so an
	// explicit NFA request works on nondeterministic expressions here
	// just as it does through Matcher directly.
	m, err := e.Matcher(algo)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(wordsNames))
	for i, w := range wordsNames {
		out[i] = m.MatchSymbols(w)
	}
	return out, nil
}

// MatchAllWords is MatchAll over pre-interned words (see Expr.Intern).
func (e *Expr) MatchAllWords(words [][]ast.Symbol, algo Algorithm) ([]bool, error) {
	if algo == Auto && e.det.Deterministic && e.stats.StarFree && e.auto != Table {
		return e.batchEngine().MatchAll(words), nil
	}
	m, err := e.Matcher(algo)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(words))
	for i, w := range words {
		out[i] = m.MatchWord(w)
	}
	return out, nil
}
