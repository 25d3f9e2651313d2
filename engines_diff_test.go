// Cross-engine differential test: every engine of §4 — and the Theorem
// 4.12 batch matcher where legal — must agree on every word. Expressions
// come from the internal/wordgen families; words are sampled from the
// language (positives) and perturbed or random (negatives).
package dregex_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dregex"
	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/parsetree"
	"dregex/internal/wordgen"
	"dregex/internal/words"
)

// diffCase is one compiled expression plus a word corpus in name form.
type diffCase struct {
	source string
	corpus [][]string
}

// buildDiffCase renders a generated AST to DTD source and samples a mixed
// positive/negative corpus for it. The generator's parse tree is used only
// for sampling; the engines under test recompile from source through the
// public API, so the two alphabets are decoupled deliberately.
func buildDiffCase(t *testing.T, r *rand.Rand, root *ast.Node, alpha *ast.Alphabet) diffCase {
	t.Helper()
	tr, err := parsetree.Build(ast.Normalize(root), alpha)
	if err != nil {
		t.Fatal(err)
	}
	fol := follow.New(tr)
	toNames := func(w []ast.Symbol) []string {
		names := make([]string, len(w))
		for i, s := range w {
			names[i] = alpha.Name(s)
		}
		return names
	}
	var corpus [][]string
	corpus = append(corpus, []string{}) // empty word
	for i := 0; i < 6; i++ {
		if w, ok := words.RandomWord(r, fol, 24, 0.15); ok {
			corpus = append(corpus, toNames(w))
			corpus = append(corpus, toNames(words.Mutate(r, tr, w, 1+r.Intn(3))))
		}
	}
	for i := 0; i < 4; i++ {
		corpus = append(corpus, toNames(words.NoiseWord(r, tr, 1+r.Intn(12))))
	}
	corpus = append(corpus, []string{"never-declared-name"})
	return diffCase{source: ast.StringDTD(root, alpha), corpus: corpus}
}

func TestEnginesUnanimous(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var cases []diffCase
	for i := 0; i < 30; i++ {
		alpha := ast.NewAlphabet()
		root := wordgen.RandomDeterministicExpr(r, alpha, 8+r.Intn(8), 30+r.Intn(30), i%3 == 0)
		cases = append(cases, buildDiffCase(t, r, root, alpha))
	}
	for i := 0; i < 20; i++ {
		// Star-free family: exercises StarFreeScan and the batch engine.
		alpha := ast.NewAlphabet()
		root := wordgen.StarFree(r, alpha, 10+r.Intn(10), 30+r.Intn(30))
		cases = append(cases, buildDiffCase(t, r, root, alpha))
	}
	for i := 0; i < 10; i++ {
		// CHARE family: the shape of real-world DTD content models.
		alpha := ast.NewAlphabet()
		root := ast.DesugarPlus(wordgen.CHARE(r, alpha, 2+r.Intn(5), 4))
		cases = append(cases, buildDiffCase(t, r, root, alpha))
	}
	for k := 1; k <= ladderFamilyMaxK; k++ {
		// Past-table family: starred k-OREs of about 1100 positions, over
		// TableBudget, with and without an alternation prefix past c_e 8
		// (the ladder sweep's shapes), on both sides of Auto's KORE cutoff.
		for _, depth := range []int{0, 5} {
			alpha := ast.NewAlphabet()
			cases = append(cases, buildDiffCase(t, r, wordgen.LadderModel(alpha, 1100, k, depth), alpha))
		}
	}

	autoTiers := map[dregex.Algorithm]int{}
	for ci, c := range cases {
		c := c
		t.Run(fmt.Sprintf("case%02d", ci), func(t *testing.T) {
			e, err := dregex.Compile(c.source, dregex.DTD)
			if err != nil {
				t.Fatalf("Compile(%q): %v", c.source, err)
			}
			if !e.IsDeterministic() {
				t.Fatalf("generator emitted nondeterministic %q (%s)", c.source, e.Rule())
			}
			autoTiers[e.AutoAlgorithm()]++
			algos := []dregex.Algorithm{
				dregex.Auto, dregex.KORE, dregex.Colored, dregex.ColoredBinary,
				dregex.PathDecomp, dregex.Climbing,
			}
			if e.AutoAlgorithm() == dregex.Table {
				algos = append(algos, dregex.Table)
			}
			if e.Stats().StarFree {
				algos = append(algos, dregex.StarFreeScan)
			}

			// Reference verdicts from position-set simulation (the NFA
			// engine), which no Auto tier runs.
			ref := make([]bool, len(c.corpus))
			refM, err := e.Matcher(dregex.NFA)
			if err != nil {
				t.Fatal(err)
			}
			for wi, names := range c.corpus {
				ref[wi] = refM.MatchSymbols(names)
			}

			for _, algo := range algos {
				m, err := e.Matcher(algo)
				if err != nil {
					t.Fatalf("Matcher(%v): %v", algo, err)
				}
				for wi, names := range c.corpus {
					if got := m.MatchSymbols(names); got != ref[wi] {
						t.Errorf("%v disagrees on %q / word %v: got %v, want %v",
							algo, c.source, names, got, ref[wi])
					}
					if got := m.MatchWord(e.Intern(names)); got != ref[wi] {
						t.Errorf("%v interned path disagrees on %q / word %v",
							algo, c.source, names)
					}
				}
			}

			// MatchAll under Auto (batch engine for the star-free cases)
			// and under an explicit engine must both agree.
			for _, algo := range []dregex.Algorithm{dregex.Auto, dregex.Colored} {
				all, err := e.MatchAll(c.corpus, algo)
				if err != nil {
					t.Fatalf("MatchAll(%v): %v", algo, err)
				}
				for wi := range c.corpus {
					if all[wi] != ref[wi] {
						t.Errorf("MatchAll(%v) disagrees on %q / word %v: got %v, want %v",
							algo, c.source, c.corpus[wi], all[wi], ref[wi])
					}
				}
			}
		})
	}
	// The past-table family must reach both of Auto's §4 tiers.
	for _, tier := range []dregex.Algorithm{dregex.KORE, dregex.ColoredBinary} {
		if autoTiers[tier] == 0 {
			t.Errorf("no case resolves Auto to %v (tiers reached: %v)", tier, autoTiers)
		}
	}
}

// ladderFamilyMaxK bounds the past-table family's occurrence counts: one
// past K*, the largest k Auto sends to KORE (koreMaxK in matcher.go).
const ladderFamilyMaxK = 6

// TestEngineWitnessesUnanimous extends the differential test to parse
// witnesses: every recorded engine must produce the identical position
// trace, failure point, expected-next set, and parse tree — the trace is
// the parse, so a disagreement is an engine bug even when the verdicts
// agree. The counter engine recompiles the same source through the numeric
// pipeline (the normalized trees are node-for-node identical) and must
// report config-set-equivalent witnesses: same verdict and failure point,
// and wherever its configuration set is a singleton, the same position.
func TestEngineWitnessesUnanimous(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var cases []diffCase
	for i := 0; i < 12; i++ {
		alpha := ast.NewAlphabet()
		root := wordgen.RandomDeterministicExpr(r, alpha, 8+r.Intn(8), 30+r.Intn(30), i%3 == 0)
		cases = append(cases, buildDiffCase(t, r, root, alpha))
	}
	for i := 0; i < 6; i++ {
		alpha := ast.NewAlphabet()
		root := ast.DesugarPlus(wordgen.CHARE(r, alpha, 2+r.Intn(5), 4))
		cases = append(cases, buildDiffCase(t, r, root, alpha))
	}

	for ci, c := range cases {
		c := c
		t.Run(fmt.Sprintf("case%02d", ci), func(t *testing.T) {
			e, err := dregex.Compile(c.source, dregex.DTD)
			if err != nil {
				t.Fatalf("Compile(%q): %v", c.source, err)
			}
			refM, err := e.Matcher(dregex.KORE)
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]*dregex.ParseResult, len(c.corpus))
			for wi, names := range c.corpus {
				if ref[wi], err = refM.Parse(names); err != nil {
					t.Fatal(err)
				}
			}

			for _, algo := range []dregex.Algorithm{
				dregex.Table, dregex.Colored, dregex.ColoredBinary,
				dregex.PathDecomp, dregex.Climbing,
			} {
				m, err := e.Matcher(algo)
				if err != nil {
					t.Fatalf("Matcher(%v): %v", algo, err)
				}
				for wi, names := range c.corpus {
					got, err := m.Parse(names)
					if err != nil {
						t.Fatal(err)
					}
					want := ref[wi]
					if got.Accepted != want.Accepted || got.FailedAt != want.FailedAt {
						t.Errorf("%v verdict on %q / %v: (%v,%d) want (%v,%d)",
							algo, c.source, names, got.Accepted, got.FailedAt, want.Accepted, want.FailedAt)
						continue
					}
					if !reflect.DeepEqual(got.Trace, want.Trace) {
						t.Errorf("%v trace on %q / %v:\n got %v\nwant %v",
							algo, c.source, names, got.Trace, want.Trace)
					}
					if !reflect.DeepEqual(got.Expected, want.Expected) {
						t.Errorf("%v expected-next on %q / %v: got %v, want %v",
							algo, c.source, names, got.Expected, want.Expected)
					}
					if got.TreeString() != want.TreeString() {
						t.Errorf("%v tree on %q / %v:\n got %s\nwant %s",
							algo, c.source, names, got.TreeString(), want.TreeString())
					}
				}
			}

			// Counter engine on the same source: the numeric pipeline
			// normalizes to the identical tree, so node ids line up.
			ne, err := dregex.CompileNumeric(c.source, dregex.DTD)
			if err != nil {
				t.Fatalf("CompileNumeric(%q): %v", c.source, err)
			}
			if !ne.IsDeterministic() {
				return // the plain pipeline's determinism test is stricter
			}
			nm := ne.Matcher()
			for wi, names := range c.corpus {
				got, err := nm.Parse(names)
				if err != nil {
					t.Fatal(err)
				}
				want := ref[wi]
				if got.Accepted != want.Accepted || got.FailedAt != want.FailedAt {
					t.Errorf("numeric verdict on %q / %v: (%v,%d) want (%v,%d)",
						c.source, names, got.Accepted, got.FailedAt, want.Accepted, want.FailedAt)
					continue
				}
				if len(got.Trace) != len(want.Trace) {
					t.Errorf("numeric trace length on %q / %v: %d want %d",
						c.source, names, len(got.Trace), len(want.Trace))
					continue
				}
				for i := range got.Trace {
					if got.Trace[i] != parsetree.Null && got.Trace[i] != want.Trace[i] {
						t.Errorf("numeric trace[%d] on %q / %v: %v want %v",
							i, c.source, names, got.Trace[i], want.Trace[i])
					}
				}
				if !reflect.DeepEqual(got.Expected, want.Expected) {
					t.Errorf("numeric expected-next on %q / %v: got %v, want %v",
						c.source, names, got.Expected, want.Expected)
				}
			}
		})
	}
}

// TestTableBudgetBoundary proves the Auto fallback engages exactly at the
// size cutoff: the largest n with (n+2)² ≤ TableBudget resolves Auto to
// Table, n+1 falls back to the §4 ladder — and both engines agree with the
// reference on every sampled word.
func TestTableBudgetBoundary(t *testing.T) {
	// Largest n with (n+2)*(n+2) <= TableBudget.
	n := 2
	for (n+3)*(n+3) <= dregex.TableBudget {
		n++
	}
	under := dregex.MustCompile(wordgen.OptChainDTD(n), dregex.DTD)
	over := dregex.MustCompile(wordgen.OptChainDTD(n+1), dregex.DTD)

	entries := func(e *dregex.Expr) int {
		st := e.Stats()
		return (st.Positions + 2) * (st.Sigma + 2)
	}
	if got := entries(under); got > dregex.TableBudget {
		t.Fatalf("under-budget expression computes %d entries > budget %d", got, dregex.TableBudget)
	}
	if got := entries(over); got <= dregex.TableBudget {
		t.Fatalf("over-budget expression computes %d entries <= budget %d", got, dregex.TableBudget)
	}

	mUnder, err := under.Matcher(dregex.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if mUnder.Algorithm() != dregex.Table {
		t.Errorf("at the cutoff (%d entries) Auto resolves to %v, want Table", entries(under), mUnder.Algorithm())
	}
	mOver, err := over.Matcher(dregex.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if mOver.Algorithm() == dregex.Table {
		t.Errorf("one position past the cutoff (%d entries) Auto still resolves to Table", entries(over))
	}
	// An explicit Table request past the budget must refuse, not build a
	// bigger table.
	if _, err := over.Matcher(dregex.Table); err == nil {
		t.Error("explicit Matcher(Table) past the budget must fail")
	}

	// Differential verification across the boundary: the fallback engine
	// must agree with the reference (k-ORE) on the same corpus, exactly as
	// the table engine does just under the cutoff.
	corpus := [][]string{
		{},
		{"a0"},
		{"a0", "a1", "a2"},
		{"a2", "a0"}, // out of order: reject
		{"a1", fmt.Sprintf("a%d", n-1)},
		{"a0", "a0"}, // repeat: reject
		{"nope"},
	}
	for _, e := range []*dregex.Expr{under, over} {
		ref, err := e.Matcher(dregex.KORE)
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Matcher(dregex.Auto)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range corpus {
			want := ref.MatchSymbols(w)
			if got := m.MatchSymbols(w); got != want {
				t.Errorf("%v (auto=%v) disagrees with kore on %v: got %v, want %v",
					e.Source()[:24]+"…", m.Algorithm(), w, got, want)
			}
			if got := m.MatchWord(e.Intern(w)); got != want {
				t.Errorf("%v (auto=%v) interned path disagrees on %v", e.Source()[:24]+"…", m.Algorithm(), w)
			}
		}
	}
}
