// Package dregex is a library for deterministic regular expressions — the
// class required of content models in DTDs and XML Schema — implementing
// the algorithms of Groz, Maneth and Staworko, "Deterministic Regular
// Expressions in Linear Time" (PODS 2012):
//
//   - determinism (one-unambiguity) testing in O(|e|) time (Theorem 3.5),
//     with counterexample diagnosis;
//   - word matching by transition simulation in O(|e| + |w|·f) time with
//     f = k for k-occurrence expressions (Theorem 4.3), f = c_e for
//     bounded union/concatenation alternation depth (Theorem 4.10), and
//     f = log log |e| for arbitrary deterministic expressions
//     (Theorem 4.2);
//   - batch matching of many words against star-free expressions in
//     combined linear time (Theorem 4.12);
//   - determinism testing with XML-Schema numeric occurrence indicators
//     e{m,n} in O(|e|) (§3.3).
//
// Two concrete syntaxes are accepted: the paper's mathematical notation
// ("(ab+b(b?)a)*", one rune per symbol) and DTD content-model notation
// ("(title, author+, (section | appendix)*)"). All matchers are streaming:
// input is consumed symbol by symbol in one pass.
//
// The library is shaped for amortized use, the workload of real schema
// validators (a small set of content models matched at enormous rates):
//
//   - Compile runs every O(|e|) preprocessing step once, including Stats;
//   - Expr lazily builds and permanently caches one engine per Algorithm,
//     so repeated Matcher and MatchAll calls never rebuild a simulator;
//   - Cache is a concurrency-safe LRU over compiled expressions keyed by
//     (syntax, source), deduplicating concurrent compiles;
//   - Expr.Intern plus Matcher.MatchWord (or a value match.Stream reused
//     via Matcher.InitStream) give a steady-state match path with zero
//     allocations and no per-symbol map lookups.
package dregex

import (
	"errors"
	"fmt"
	"sync"

	"dregex/internal/ast"
	"dregex/internal/determinism"
	"dregex/internal/follow"
	"dregex/internal/match/starfree"
	"dregex/internal/parsetree"
	"dregex/internal/skeleton"
)

// Syntax selects the concrete syntax accepted by Compile.
type Syntax int

// Concrete syntaxes.
const (
	// Math is the paper's notation: single-rune symbols, juxtaposition
	// for concatenation, + for union, postfix * ? {m,n}.
	Math Syntax = iota
	// DTD is XML content-model notation: multi-rune names, ',' for
	// concatenation, '|' for union, postfix * ? + {m,n}.
	DTD
	// XSD is the notation of content models lowered from XML Schema
	// complex types (package internal/xsd). It parses exactly like DTD —
	// the lowering serializes sequence/choice particles into that grammar,
	// with minOccurs/maxOccurs as {m,n} — but forms its own cache-key
	// space: an XSD-derived model and a syntactically identical DTD model
	// are distinct Cache entries, so purging or bounding one workload never
	// evicts the other's hot models.
	XSD
)

// Expr is a compiled expression. It is immutable and safe for concurrent
// use once compiled; the per-algorithm engine cache is filled lazily under
// sync.Once, so sharing one Expr across goroutines shares its engines.
//
// It keeps only what matching, Stats and Explain read: the parse tree, its
// follow index (the tree plus an LCA index), the alphabet and the verdict.
// The §3.1 skeleta serve the determinism test and are dropped when
// Compile returns; the colored engines, the only ones that read them,
// build their own.
type Expr struct {
	source string
	syntax Syntax
	alpha  *ast.Alphabet
	tree   *parsetree.Tree
	fol    *follow.Index
	det    *determinism.Result
	stats  Stats     // memoized at compile time
	auto   Algorithm // Auto resolved against stats, once, at compile time

	// engines[a] caches the Algorithm(a) simulator; batch caches the
	// Theorem 4.12 star-free multi-word engine. Both build on first use
	// and are then reused for the lifetime of the Expr.
	engines [numAlgorithms]engineSlot
	batch   batchSlot

	// explain memoizes the (possibly quadratic) Explain diagnosis, so a
	// hot nondeterministic expression served from a cache diagnoses once.
	explain ambSlot
}

type ambSlot struct {
	once sync.Once
	amb  *Ambiguity
}

type engineSlot struct {
	once sync.Once
	m    *Matcher
	err  error
}

type batchSlot struct {
	once sync.Once
	b    *starfree.Batch
}

// ErrNumericIndicator is returned by Compile for expressions with numeric
// occurrence indicators beyond e+ — use CompileNumeric (package numeric's
// pipeline) for those.
var ErrNumericIndicator = errors.New("dregex: numeric occurrence indicators require CompileNumeric")

// ExpansionBudget caps the e+ → e·e* desugaring: Compile and
// CompileNumeric fail with ErrExpansionBudget once the copies it makes pass
// this many parse-tree nodes. Each nested + doubles its body, so only
// expressions of more than ExpansionBudget nodes, or with nested +, can
// reach it.
const ExpansionBudget = ast.ExpansionBudget

// ErrExpansionBudget is the error Compile and CompileNumeric return for
// expressions whose e+ desugaring passes ExpansionBudget. Schema compilers
// wrap it, so match it with errors.Is.
var ErrExpansionBudget = ast.ErrExpansionBudget

// MaxNesting bounds the groups an expression may have open at once:
// Compile and CompileNumeric fail with ErrNesting on a group opened inside
// MaxNesting others, so a deeply nested source cannot exhaust the stack of
// the grammar, which recurses once per group.
const MaxNesting = ast.MaxNesting

// ErrNesting is the error Compile and CompileNumeric return for an
// expression nested deeper than MaxNesting. Schema compilers wrap it, so
// match it with errors.Is.
var ErrNesting = ast.ErrNesting

// Compile parses, normalizes (rules R1–R3 of the paper) and preprocesses an
// expression: LCA structures, the Lemma 2.3 pointers, the §3.1 skeleta and
// the linear determinism test all run here, in O(|e|) total. The e+
// postfix of DTD syntax is desugared to e·e* (determinism-preserving);
// other numeric bounds are rejected — see CompileNumeric.
//
// The source is parsed straight into the parse tree's arrays
// (parsetree.Parse); no pointer AST is built.
func Compile(source string, syntax Syntax) (*Expr, error) {
	tree, err := parseTree(source, syntax, false)
	if err != nil {
		if errors.Is(err, parsetree.ErrIterUnsupported) {
			return nil, ErrNumericIndicator
		}
		return nil, err
	}
	fol := follow.New(tree)
	det := determinism.CheckSkeletons(tree, skeleton.Build(tree, fol, skeleton.Options{}), false)
	e := &Expr{
		source: source,
		syntax: syntax,
		alpha:  tree.Alpha,
		tree:   tree,
		fol:    fol,
		det:    det,
	}
	e.stats = computeStats(e)
	e.auto = autoSelect(e.stats)
	recordAutoSelection(e.auto, e.stats)
	return e, nil
}

// notation maps a Syntax to the grammar's notation.
func notation(syntax Syntax) (ast.Notation, error) {
	switch syntax {
	case Math:
		return ast.MathNotation, nil
	case DTD, XSD:
		return ast.DTDNotation, nil
	}
	return 0, fmt.Errorf("dregex: unknown syntax %d", syntax)
}

// parseTree is the front end shared by Compile and CompileNumeric (and,
// through them, by Cache).
func parseTree(source string, syntax Syntax, numeric bool) (*parsetree.Tree, error) {
	nt, err := notation(syntax)
	if err != nil {
		return nil, err
	}
	return parsetree.Parse(source, nt, numeric)
}

// MustCompile is Compile that panics on error, for tests and constants.
func MustCompile(source string, syntax Syntax) *Expr {
	e, err := Compile(source, syntax)
	if err != nil {
		panic(err)
	}
	return e
}

// Source returns the original expression text.
func (e *Expr) Source() string { return e.source }

// String renders the normalized expression in its own syntax. The
// normalized expression is not retained, so String re-derives it from the
// source.
func (e *Expr) String() string {
	nt, _ := notation(e.syntax)
	alpha := ast.NewAlphabet()
	raw, err := ast.AppendParse(nil, e.source, alpha, nt)
	var recs []ast.Rec
	if err == nil {
		recs, err = ast.AppendNormal(nil, raw)
	}
	if err != nil {
		return e.source // unreachable: the source compiled
	}
	if nt == ast.DTDNotation {
		return ast.StringDTD(ast.FromRecs(recs), alpha)
	}
	return ast.StringMath(ast.FromRecs(recs), alpha)
}

// IsDeterministic reports whether the expression is deterministic
// (one-unambiguous); the verdict was computed at compile time in O(|e|).
func (e *Expr) IsDeterministic() bool { return e.det.Deterministic }

// Rule names the internal condition that proved nondeterminism ("P1",
// "P2", "W-N", …); it is "" for deterministic expressions. Unlike Explain
// it costs nothing beyond the compile-time verdict.
func (e *Expr) Rule() string { return e.det.Rule }

// Ambiguity describes why an expression is nondeterministic: a word w and
// the two distinct positions of symbol Symbol that can both consume its
// last letter.
type Ambiguity struct {
	// Rule is the internal condition that fired ("P1", "P2", "W-N", …).
	Rule string
	// Symbol is the doubly-matchable symbol name.
	Symbol string
	// Word is a shortest witness word (as symbol names) whose last letter
	// is ambiguous; nil if the verdict predates diagnosis.
	Word []string
}

// clone copies an Ambiguity so every Explain call keeps returning a value
// the caller owns outright, even though the diagnosis itself is memoized.
func (a *Ambiguity) clone() *Ambiguity {
	if a == nil {
		return nil
	}
	c := *a
	c.Word = append([]string(nil), a.Word...)
	return &c
}

// Explain returns a verified counterexample for a nondeterministic
// expression (nil for deterministic ones). Diagnosis may take
// O(|Pos(e)|²); the verdict itself is always linear, and the diagnosis is
// memoized — repeated Explain calls (a hot nondeterministic expression
// behind a Cache, say) cost a pointer read after the first.
func (e *Expr) Explain() *Ambiguity {
	if e.det.Deterministic {
		return nil
	}
	e.explain.once.Do(func() {
		w := determinism.Diagnose(e.tree, e.fol, e.det)
		if w == nil {
			e.explain.amb = &Ambiguity{Rule: e.det.Rule}
			return
		}
		amb := &Ambiguity{
			Rule:   e.det.Rule,
			Symbol: e.tree.Label(w.Q1),
		}
		for _, s := range determinism.ShortestWitnessWord(e.tree, e.fol, w) {
			amb.Word = append(amb.Word, e.alpha.Name(s))
		}
		e.explain.amb = amb
	})
	return e.explain.amb.clone()
}

// Stats summarizes the structural parameters the paper's complexity bounds
// depend on.
type Stats struct {
	// Size is the parse-tree node count including the (R1) wrapper.
	Size int
	// Positions is |Pos(e)| excluding the phantom # and $.
	Positions int
	// Sigma is the number of distinct symbols.
	Sigma int
	// K is the maximal occurrence count of any symbol (k-ORE parameter).
	K int
	// AlternationDepth is c_e, the maximal +/⊙ alternation depth.
	AlternationDepth int
	// StarFree reports absence of ∗.
	StarFree bool
	// Depth is the parse-tree depth.
	Depth int
	// Deterministic mirrors IsDeterministic.
	Deterministic bool
}

// Stats returns the structural summary, computed once at compile time.
func (e *Expr) Stats() Stats { return e.stats }

// computeStats summarizes e, reading the parse tree's arrays in one
// bottom-up pass. K counts the user positions per symbol. The alternation
// depth c_e is taken over e′ (ids 3…n−2, the user subtree): for each node,
// cat[n] and union[n] hold the depth of its subtree when the nearest ⊙/+
// above it is a ⊙ (resp. a +), since a ⊙ directly below a ⊙ (or a + below
// a +) does not deepen it.
func computeStats(e *Expr) Stats {
	t := e.tree
	n := t.N()
	s := Stats{
		Size:          n,
		Positions:     t.NumPositions() - 2,
		Sigma:         e.alpha.UserSize(),
		StarFree:      true,
		Deterministic: e.det.Deterministic,
	}
	buf := statsPool.Get().(*[]int32)
	defer statsPool.Put(buf)
	if cap(*buf) < 2*n+e.alpha.Size() {
		*buf = make([]int32, 2*n+e.alpha.Size())
	}
	scratch := (*buf)[:2*n+e.alpha.Size()]
	clear(scratch)
	cat, union, counts := scratch[:n], scratch[n:2*n], scratch[2*n:]
	for _, p := range t.PosNode[1 : len(t.PosNode)-1] {
		counts[t.Sym[p]]++
		s.K = max(s.K, int(counts[t.Sym[p]]))
	}
	for id := parsetree.NodeID(n - 1); id >= 0; id-- {
		s.Depth = max(s.Depth, int(t.Depth[id]))
		switch op := t.Op[id]; op {
		case parsetree.OpStar:
			s.StarFree = false
		case parsetree.OpIter:
			if t.Max[id] > 1 {
				s.StarFree = false
			}
		case parsetree.OpCat, parsetree.OpUnion:
			l, r := t.LChild[id], t.RChild[id]
			if op == parsetree.OpCat {
				cat[id] = max(cat[l], cat[r])
				union[id] = cat[id] + 1
			} else {
				union[id] = max(union[l], union[r])
				cat[id] = union[id] + 1
			}
			continue
		}
		if c := t.LChild[id]; c != parsetree.Null {
			cat[id], union[id] = cat[c], union[c]
		}
	}
	s.AlternationDepth = int(max(cat[t.UserRoot], union[t.UserRoot]))
	return s
}

// statsPool recycles computeStats's scratch.
var statsPool = sync.Pool{New: func() any { return new([]int32) }}

// Symbols returns the distinct symbol names of the expression.
func (e *Expr) Symbols() []string { return e.alpha.Names() }

// Symbol is an interned symbol id (dense, expression-local). It aliases
// the internal representation so interned words flow between Intern,
// MatchWord and Stream.Feed without conversion.
type Symbol = ast.Symbol

// Intern translates a word of symbol names to the expression's interned
// symbols: the input format of Matcher.MatchWord, Stream.Feed and
// Expr.MatchAllWords. Names outside the alphabet map to a sentinel every
// engine rejects, so interning never mutates the (shared, concurrently
// read) alphabet. Interning once and matching many times removes all
// per-symbol map lookups from the hot path.
func (e *Expr) Intern(names []string) []ast.Symbol {
	return e.alpha.LookupWord(make([]ast.Symbol, 0, len(names)), names)
}

// InternInto is Intern appending into a caller-provided buffer, for
// allocation-free reuse across calls.
func (e *Expr) InternInto(dst []ast.Symbol, names []string) []ast.Symbol {
	return e.alpha.LookupWord(dst, names)
}
