// Command benchtab prints the experiment tables recorded in EXPERIMENTS.md
// — wall-clock scaling of the determinism tests (E1), per-symbol matching
// cost of every engine on one workload (E3–E5 summary), numeric-bound
// independence (E7), the synthetic DTD corpus statistics (E9) and the
// engine-ladder sweep Auto's cutoffs are read from (ladder) — and diffs
// the BENCH_<date>.json snapshots `make bench` writes, so the performance
// trajectory is comparable PR over PR.
//
// Usage:
//
//	benchtab [-exp e1,e5,e7,e9,ladder]
//	benchtab -diff OLD.json NEW.json
//
// Diff mode parses the `go test -bench` output embedded in both snapshots
// and reports the per-benchmark delta of every shared metric (ns/op,
// B/op, allocs/op, ns/sym, …).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"time"

	"dregex/internal/ast"
	"dregex/internal/determinism"
	"dregex/internal/follow"
	"dregex/internal/glushkov"
	"dregex/internal/match"
	"dregex/internal/match/colored"
	"dregex/internal/match/kore"
	"dregex/internal/match/pathdecomp"
	"dregex/internal/match/table"
	"dregex/internal/numeric"
	"dregex/internal/parsetree"
	"dregex/internal/wordgen"
	"dregex/internal/words"
)

func main() {
	exps := flag.String("exp", "e1,e5,e7,e9", "comma-separated experiments")
	diff := flag.Bool("diff", false, "diff two BENCH_*.json snapshots: benchtab -diff OLD.json NEW.json")
	gatePat := flag.String("gate", "", "with -diff: regexp of benchmarks gated against regression (CI fails the diff when one regresses)")
	maxRegress := flag.Float64("max-regress", 25, "with -diff -gate: largest tolerated regression in percent (zero baselines tolerate none)")
	gateUnits := flag.String("gate-units", "", "with -diff -gate: comma-separated metrics to gate (default ns/op,ns/sym,B/op,allocs/op; CI passes B/op,allocs/op — time is machine-dependent)")
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchtab -diff [-gate REGEXP [-max-regress PCT]] OLD.json NEW.json")
			os.Exit(2)
		}
		var gate *gateConfig
		if *gatePat != "" {
			re, err := regexp.Compile(*gatePat)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error: bad -gate pattern:", err)
				os.Exit(2)
			}
			gate = &gateConfig{Pattern: re, MaxRegressPct: *maxRegress}
			if *gateUnits != "" {
				gate.Units = map[string]bool{}
				for _, u := range strings.Split(*gateUnits, ",") {
					gate.Units[strings.TrimSpace(u)] = true
				}
			}
		}
		if err := diffSnapshots(flag.Arg(0), flag.Arg(1), gate); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	for _, e := range strings.Split(*exps, ",") {
		switch strings.TrimSpace(e) {
		case "e1":
			e1()
		case "e5":
			e5()
		case "e7":
			e7()
		case "e9":
			e9()
		case "ladder":
			ladder()
		default:
			fmt.Printf("unknown experiment %q\n", e)
		}
	}
}

func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// E1: linear determinism test vs Glushkov/BK on E = (a1+…+am)*.
func e1() {
	fmt.Println("E1: determinism on mixed content E=(a1+…+am)*  (Thm 3.5 vs BK baseline)")
	fmt.Printf("%10s %14s %14s %10s\n", "m", "linear", "glushkov-BK", "ratio")
	for _, m := range []int{1024, 2048, 4096, 8192, 16384} {
		alpha := ast.NewAlphabet()
		tr, err := parsetree.Build(ast.Normalize(wordgen.MixedContent(alpha, m)), alpha)
		if err != nil {
			panic(err)
		}
		fol := follow.New(tr)
		lin := timeIt(func() {
			if !determinism.Check(tr, fol).Deterministic {
				panic("must be deterministic")
			}
		})
		var bk time.Duration
		if m <= 8192 {
			bk = timeIt(func() {
				if glushkov.CheckBK(tr) != nil {
					panic("must be deterministic")
				}
			})
			fmt.Printf("%10d %14v %14v %9.1fx\n", m, lin, bk, float64(bk)/float64(lin))
		} else {
			fmt.Printf("%10d %14v %14s %10s\n", m, lin, "(skipped)", "-")
		}
	}
	fmt.Println()
}

// E5-summary: per-symbol matching cost of every deterministic engine on one
// shared workload.
func e5() {
	fmt.Println("E5: per-symbol transition cost by engine (shared 100k-node workload)")
	r := rand.New(rand.NewSource(4))
	alpha := ast.NewAlphabet()
	// Starred 3-occurrence block over ~30k symbols: ~90k positions, and
	// the star guarantees arbitrarily long words.
	e := ast.Star(wordgen.KOccurrence(alpha, 30000, 3))
	tr, err := parsetree.Build(ast.Normalize(e), alpha)
	if err != nil {
		panic(err)
	}
	fol := follow.New(tr)
	w, ok := words.RandomWord(r, fol, 1<<15, 0.0001)
	if !ok || len(w) < 1<<14 {
		panic("no word")
	}
	sims := []struct {
		name string
		sim  match.TransitionSim
	}{}
	k := kore.New(tr, fol)
	sims = append(sims, struct {
		name string
		sim  match.TransitionSim
	}{fmt.Sprintf("kore (k=%d)", k.K), k})
	if cv, err := colored.New(tr, fol, colored.Options{}); err == nil {
		sims = append(sims, struct {
			name string
			sim  match.TransitionSim
		}{"colored-veb", cv})
	}
	if cb, err := colored.New(tr, fol, colored.Options{BinarySearch: true}); err == nil {
		sims = append(sims, struct {
			name string
			sim  match.TransitionSim
		}{"colored-binary", cb})
	}
	if pd, err := pathdecomp.New(tr, fol); err == nil {
		sims = append(sims, struct {
			name string
			sim  match.TransitionSim
		}{fmt.Sprintf("pathdecomp (ce=%d)", pd.CE), pd})
	}
	if cl, err := colored.NewClimbing(tr, fol); err == nil {
		sims = append(sims, struct {
			name string
			sim  match.TransitionSim
		}{"climbing", cl})
	}
	fmt.Printf("%22s %12s  (word length %d)\n", "engine", "ns/symbol", len(w))
	for _, s := range sims {
		reps := 5
		d := timeIt(func() {
			for i := 0; i < reps; i++ {
				if !match.Word(s.sim, w) {
					panic("must match")
				}
			}
		})
		fmt.Printf("%22s %12.1f\n", s.name, float64(d.Nanoseconds())/float64(reps*len(w)))
	}
	fmt.Printf("%22s %12s  (workload exceeds the %d-entry table budget)\n",
		"table", "-", table.DefaultBudget)
	fmt.Println()
	e5Table()
}

// e5Table is the table-eligible companion workload: the same starred
// 3-occurrence family sized to fit the dense-table budget, where the
// flat-table tier applies — the common case of real content models.
func e5Table() {
	fmt.Println("E5b: per-symbol transition cost with the dense-table tier (2k-node workload)")
	r := rand.New(rand.NewSource(4))
	alpha := ast.NewAlphabet()
	e := ast.Star(wordgen.KOccurrence(alpha, 200, 3))
	tr, err := parsetree.Build(ast.Normalize(e), alpha)
	if err != nil {
		panic(err)
	}
	fol := follow.New(tr)
	w, ok := words.RandomWord(r, fol, 1<<15, 0.0001)
	if !ok || len(w) < 1<<14 {
		panic("no word")
	}
	tab, err := table.New(tr, fol, 0)
	if err != nil {
		panic(err)
	}
	type row struct {
		name string
		run  func() bool
	}
	rows := []row{
		{"table (direct)", func() bool { return tab.MatchWord(w) }},
		{"table (sim)", func() bool { return match.Word(tab, w) }},
	}
	k := kore.New(tr, fol)
	rows = append(rows, row{fmt.Sprintf("kore (k=%d)", k.K), func() bool { return match.Word(k, w) }})
	if cv, err := colored.New(tr, fol, colored.Options{}); err == nil {
		rows = append(rows, row{"colored-veb", func() bool { return match.Word(cv, w) }})
	}
	if pd, err := pathdecomp.New(tr, fol); err == nil {
		rows = append(rows, row{fmt.Sprintf("pathdecomp (ce=%d)", pd.CE), func() bool { return match.Word(pd, w) }})
	}
	fmt.Printf("%22s %12s  (word length %d, %d table entries)\n",
		"engine", "ns/symbol", len(w), tab.Entries())
	for _, s := range rows {
		reps := 20
		d := timeIt(func() {
			for i := 0; i < reps; i++ {
				if !s.run() {
					panic("must match")
				}
			}
		})
		fmt.Printf("%22s %12.1f\n", s.name, float64(d.Nanoseconds())/float64(reps*len(w)))
	}
	fmt.Println()
}

// E7: numeric determinism cost vs bound magnitude.
func e7() {
	fmt.Println("E7: numeric occurrence determinism, 200 counted factors (§3.3)")
	fmt.Printf("%14s %14s\n", "maxOccurs", "linear check")
	for _, bound := range []int{4, 1024, 1 << 20, 1 << 30} {
		alpha := ast.NewAlphabet()
		parts := make([]*ast.Node, 0, 200)
		for i := 0; i < 200; i++ {
			parts = append(parts, ast.Opt(ast.Iter(
				ast.Sym(alpha.Intern(wordgen.SymbolName(i))), 2, bound)))
		}
		e := ast.CatAll(parts...)
		d := timeIt(func() {
			c, err := numeric.Compile(e, alpha)
			if err != nil || !c.IsDeterministic() {
				panic("must be deterministic")
			}
		})
		fmt.Printf("%14d %14v\n", bound, d)
	}
	fmt.Println()
}

// E9: synthetic DTD corpus with the real-world proportions reported in the
// paper's related work (98% 1-ORE, 90% CHARE, alternation depth ≤ 4).
func e9() {
	fmt.Println("E9: synthetic DTD corpus (target: 98% 1-ORE, 90% CHARE, ce ≤ 4)")
	r := rand.New(rand.NewSource(7))
	const n = 2000
	var oneORE, chare, det, ceLE4 int
	maxCE := 0
	total := time.Duration(0)
	for i := 0; i < n; i++ {
		alpha := ast.NewAlphabet()
		var e *ast.Node
		isChare := i%10 != 0
		if isChare {
			e = ast.DesugarPlus(wordgen.CHARE(r, alpha, 2+r.Intn(5), 4))
			chare++
		} else if i%100 < 98 {
			e = wordgen.RandomDeterministicExpr(r, alpha, 10, 24, false)
		} else {
			e = wordgen.RandomDeterministicExpr(r, alpha, 10, 24, true)
		}
		// Classify before DesugarPlus: e+ is a 1-ORE construct.
		if ast.MaxOccurrence(e) <= 1 || isChare {
			oneORE++
		}
		ce := ast.AlternationDepth(e)
		if ce <= 4 {
			ceLE4++
		}
		if ce > maxCE {
			maxCE = ce
		}
		tr, err := parsetree.Build(ast.Normalize(e), alpha)
		if err != nil {
			panic(err)
		}
		fol := follow.New(tr)
		total += timeIt(func() {
			if determinism.Check(tr, fol).Deterministic {
				det++
			}
		})
	}
	fmt.Printf("  models: %d   1-ORE: %.1f%%   CHARE: %.1f%%   ce≤4: %.1f%% (max ce %d)\n",
		n, 100*float64(oneORE)/n, 100*float64(chare)/n, 100*float64(ceLE4)/n, maxCE)
	fmt.Printf("  deterministic: %.1f%%   total check time: %v (%.1fµs/model)\n",
		100*float64(det)/n, total, float64(total.Microseconds())/n)
	fmt.Println()
}
