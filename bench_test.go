// Benchmarks regenerating the paper's complexity claims — one benchmark
// family per measurable claim (the paper has no numeric tables). `make
// bench` snapshots representative output into BENCH_<date>.json.
package dregex_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dregex"
	"dregex/internal/ast"
	"dregex/internal/determinism"
	"dregex/internal/follow"
	"dregex/internal/glushkov"
	"dregex/internal/match"
	"dregex/internal/match/colored"
	"dregex/internal/match/kore"
	"dregex/internal/match/pathdecomp"
	"dregex/internal/match/starfree"
	"dregex/internal/match/table"
	"dregex/internal/numeric"
	"dregex/internal/parsetree"
	"dregex/internal/wordgen"
	"dregex/internal/words"
)

func buildTree(b *testing.B, e *ast.Node, alpha *ast.Alphabet) (*parsetree.Tree, *follow.Index) {
	b.Helper()
	tr, err := parsetree.Build(ast.Normalize(e), alpha)
	if err != nil {
		b.Fatal(err)
	}
	return tr, follow.New(tr)
}

// --- E1: determinism testing on mixed content E = (a1+…+am)* -------------
// Theorem 3.5 (linear skeleton test) vs the Brüggemann-Klein baseline,
// whose Glushkov automaton is Θ(m²) on this family (§1).

func BenchmarkE1DeterminismMixedContentLinear(b *testing.B) {
	for _, m := range []int{1024, 4096, 16384, 65536, 262144} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			alpha := ast.NewAlphabet()
			tr, fol := buildTree(b, wordgen.MixedContent(alpha, m), alpha)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !determinism.Check(tr, fol).Deterministic {
					b.Fatal("mixed content must be deterministic")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/sym")
		})
	}
}

func BenchmarkE1DeterminismMixedContentGlushkovBK(b *testing.B) {
	for _, m := range []int{1024, 2048, 4096} { // quadratic: capped
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			alpha := ast.NewAlphabet()
			tr, _ := buildTree(b, wordgen.MixedContent(alpha, m), alpha)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if glushkov.CheckBK(tr) != nil {
					b.Fatal("mixed content must be deterministic")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/sym")
		})
	}
}

// --- E2: determinism testing on random deterministic expressions ----------

func BenchmarkE2DeterminismRandom(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			alpha := ast.NewAlphabet()
			e := wordgen.RandomDeterministicExpr(r, alpha, size/4, size, true)
			tr, fol := buildTree(b, e, alpha)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				determinism.Check(tr, fol)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.N()), "ns/node")
		})
	}
}

// --- E3: k-ORE matching, O(|e| + k|w|) (Theorem 4.3) ----------------------

func BenchmarkE3KORE(b *testing.B) {
	const m, wordLen = 16, 4096
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			alpha := ast.NewAlphabet()
			// The k-occurrence block is starred so arbitrarily long words
			// exist; the loop back to the fresh per-block separator keeps
			// the expression deterministic and k-occurrence.
			tr, fol := buildTree(b, ast.Star(wordgen.KOccurrence(alpha, m, k)), alpha)
			sim := kore.New(tr, fol)
			if sim.K != k {
				b.Fatalf("K = %d, want %d", sim.K, k)
			}
			w, ok := words.RandomWord(rand.New(rand.NewSource(2)), fol, wordLen, 0.0001)
			if !ok || len(w) < wordLen/2 {
				b.Fatalf("could not sample a long word (%d)", len(w))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !match.Word(sim, w) {
					b.Fatal("sampled word must match")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w)), "ns/sym")
		})
	}
}

// --- E4: path-decomposition matching, O(|e| + c_e|w|) (Theorem 4.10) vs
// the naive climbing baseline, O(depth(e)·|w|) ------------------------------

func benchSimOnWord(b *testing.B, sim match.TransitionSim, w []ast.Symbol) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !match.Word(sim, w) {
			b.Fatal("sampled word must match")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w)), "ns/sym")
}

func BenchmarkE4PathDecomp(b *testing.B) {
	for _, depth := range []int{2, 4, 6} {
		alpha := ast.NewAlphabet()
		e := wordgen.DeepAlternation(alpha, depth, 3)
		tr, fol := buildTree(b, e, alpha)
		w, ok := words.RandomWord(rand.New(rand.NewSource(3)), fol, 4096, 0.0001)
		if !ok {
			b.Fatal("no word")
		}
		pd, err := pathdecomp.New(tr, fol)
		if err != nil {
			b.Fatal(err)
		}
		cl := colored.NewClimbing(tr, fol)
		b.Run(fmt.Sprintf("ce=%d/pathdecomp", pd.CE), func(b *testing.B) { benchSimOnWord(b, pd, w) })
		b.Run(fmt.Sprintf("ce=%d/climbing", pd.CE), func(b *testing.B) { benchSimOnWord(b, cl, w) })
	}
}

// --- E5: colored-ancestor matching, O(|w| log log |e|) (Theorem 4.2), with
// the binary-search predecessor ablation ------------------------------------

func BenchmarkE5Colored(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	for _, size := range []int{1000, 10000, 100000} {
		alpha := ast.NewAlphabet()
		// Starred 3-occurrence blocks: |e| scales with size while long
		// words always exist (the deterministic-random family generates
		// languages whose words are as long as the expression, making
		// fixed-length sampling infeasible at 100k nodes).
		e := ast.Star(wordgen.KOccurrence(alpha, size/8, 3))
		tr, fol := buildTree(b, e, alpha)
		w, ok := words.RandomWord(r, fol, 2048, 0.0001)
		if !ok || len(w) < 1024 {
			b.Fatal("no usable sample")
		}
		veb := colored.New(tr, fol, colored.Options{})
		bin := colored.New(tr, fol, colored.Options{BinarySearch: true})
		b.Run(fmt.Sprintf("nodes=%d/veb", size), func(b *testing.B) { benchSimOnWord(b, veb, w) })
		b.Run(fmt.Sprintf("nodes=%d/binary", size), func(b *testing.B) { benchSimOnWord(b, bin, w) })
	}
}

// --- E5b: dense-table tier vs the §4 engines on a table-eligible workload --
// The flat-table DFA trades O(positions × σ) space for one indexed load
// per symbol; this benchmark quantifies the gap against the k-ORE engine
// (the fastest paper engine on this family) on one shared word.

func BenchmarkTableVsKore(b *testing.B) {
	alpha := ast.NewAlphabet()
	// Starred 3-occurrence blocks over 200 symbols: ~800 positions, well
	// within the dense-table budget, with arbitrarily long words.
	e := ast.Star(wordgen.KOccurrence(alpha, 200, 3))
	tr, fol := buildTree(b, e, alpha)
	w, ok := words.RandomWord(rand.New(rand.NewSource(8)), fol, 4096, 0.0001)
	if !ok || len(w) < 2048 {
		b.Fatal("could not sample a long word")
	}
	tab, err := table.New(tr, fol)
	if err != nil {
		b.Fatal(err)
	}
	k := kore.New(tr, fol)
	b.Run("table", func(b *testing.B) {
		// The devirtualized loop Matcher.MatchWord takes for the Table tier.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !tab.MatchWord(w) {
				b.Fatal("sampled word must match")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w)), "ns/sym")
	})
	b.Run("table-sim", func(b *testing.B) {
		// The generic TransitionSim driver (streams, readers) on the table.
		benchSimOnWord(b, tab, w)
	})
	b.Run(fmt.Sprintf("kore-k%d", k.K), func(b *testing.B) { benchSimOnWord(b, k, w) })
}

// --- E6: star-free multi-word matching, O(|e| + Σ|wᵢ|) (Theorem 4.12) ------

func BenchmarkE6StarFree(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	alpha := ast.NewAlphabet()
	e := wordgen.StarFree(r, alpha, 400, 2000)
	tr, fol := buildTree(b, e, alpha)
	const n = 1000
	corpus := make([][]ast.Symbol, 0, n)
	for len(corpus) < n {
		if w, ok := words.RandomWord(r, fol, 40, 0.2); ok {
			corpus = append(corpus, w)
		} else {
			corpus = append(corpus, words.NoiseWord(r, tr, 10))
		}
	}
	total := 0
	for _, w := range corpus {
		total += len(w)
	}
	batch := starfree.NewBatch(tr, fol)
	scan := starfree.NewScan(tr, fol)
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch.MatchAll(corpus)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/sym")
	})
	b.Run("scan-per-word", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range corpus {
				match.Word(scan, w)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/sym")
	})
}

// --- E7: numeric occurrence determinism, O(|e|) independent of bound
// magnitude (§3.3); the unrolling baseline scales with the bounds ----------

func countedMixed(alpha *ast.Alphabet, m, bound int) *ast.Node {
	parts := make([]*ast.Node, 0, m)
	for i := 0; i < m; i++ {
		parts = append(parts, ast.Opt(ast.Iter(
			ast.Sym(alpha.Intern(wordgen.SymbolName(i))), 2, bound)))
	}
	return ast.CatAll(parts...)
}

func BenchmarkE7NumericLinear(b *testing.B) {
	for _, bound := range []int{4, 1024, 1 << 30} {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			alpha := ast.NewAlphabet()
			e := countedMixed(alpha, 200, bound)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := numeric.Compile(e, alpha)
				if err != nil {
					b.Fatal(err)
				}
				if !c.IsDeterministic() {
					b.Fatal("counted mixed content must be deterministic")
				}
			}
		})
	}
}

func BenchmarkE7NumericUnrollBaseline(b *testing.B) {
	for _, bound := range []int{4, 64, 1024} { // blows up with the bound
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			alpha := ast.NewAlphabet()
			e := countedMixed(alpha, 200, bound)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, err := ast.Unroll(e, 1<<22)
				if err != nil {
					b.Fatal(err)
				}
				tr, err := parsetree.Build(ast.Normalize(u), alpha)
				if err != nil {
					b.Fatal(err)
				}
				if glushkov.CheckBK(tr) != nil {
					b.Fatal("must be deterministic")
				}
			}
		})
	}
}

// --- E8: checkIfFollow is O(1) after O(|e|) preprocessing (Theorem 2.4) ----

func BenchmarkE8CheckIfFollow(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			alpha := ast.NewAlphabet()
			e := wordgen.RandomDeterministicExpr(r, alpha, size/4, size, true)
			tr, fol := buildTree(b, e, alpha)
			m := tr.NumPositions()
			pairs := make([][2]parsetree.NodeID, 4096)
			for i := range pairs {
				pairs[i] = [2]parsetree.NodeID{
					tr.PosNode[r.Intn(m)], tr.PosNode[r.Intn(m)],
				}
			}
			b.ResetTimer()
			sink := false
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sink = fol.CheckIfFollow(p[0], p[1]) != sink
			}
			_ = sink
		})
	}
}

// --- E9: synthetic real-world DTD corpus (98% 1-ORE, 90% CHARE, c_e ≤ 4) ---

func BenchmarkE9DTDCorpus(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	type model struct {
		tr  *parsetree.Tree
		fol *follow.Index
	}
	corpus := make([]model, 0, 500)
	for i := 0; i < 500; i++ {
		alpha := ast.NewAlphabet()
		var e *ast.Node
		switch {
		case i%10 != 0: // 90% CHARE
			e = ast.DesugarPlus(wordgen.CHARE(r, alpha, 2+r.Intn(6), 4))
		case i%100 < 98: // further 1-OREs
			e = wordgen.RandomDeterministicExpr(r, alpha, 12, 40, false)
		default: // the rare repeated-symbol models
			e = wordgen.RandomDeterministicExpr(r, alpha, 12, 40, true)
		}
		tr, err := parsetree.Build(ast.Normalize(e), alpha)
		if err != nil {
			b.Fatal(err)
		}
		corpus = append(corpus, model{tr, follow.New(tr)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range corpus {
			if !determinism.Check(m.tr, m.fol).Deterministic {
				b.Fatal("corpus must be deterministic")
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(corpus)), "ns/model")
}

// --- Compile from source: the write path -----------------------------------
// dregex.Compile on DTD source text — grammar, normal form, parse tree,
// follow index, skeleta, determinism test and Stats — for seeded random
// 1-OREs of about 64, 1k and 10k nodes, plus one counted model through
// CompileNumeric. ns/node divides by the parse-tree size, (R1) wrapper
// included. Every scratch buffer of the pipeline is pooled, so allocs/op
// grows only with the alphabet's name map, not per node.

func BenchmarkCompileSource(b *testing.B) {
	r := rand.New(rand.NewSource(16))
	for _, nodes := range []int{64, 1024, 10240} {
		alpha := ast.NewAlphabet()
		src := ast.StringDTD(wordgen.RandomDeterministicExpr(r, alpha, nodes, nodes, false), alpha)
		size := dregex.MustCompile(src, dregex.DTD).Stats().Size
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dregex.Compile(src, dregex.DTD); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/node")
		})
	}
	b.Run("numeric", func(b *testing.B) {
		alpha := ast.NewAlphabet()
		src := ast.StringDTD(countedMixed(alpha, 200, 1024), alpha)
		size := ast.Size(ast.MustParseDTD(src, ast.NewAlphabet()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dregex.CompileNumeric(src, dregex.DTD); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/node")
	})
}
