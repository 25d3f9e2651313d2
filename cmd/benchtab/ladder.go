package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"dregex"
	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/match/kore"
	"dregex/internal/parsetree"
	"dregex/internal/wordgen"
)

// ladderEngines are the §4 engines the sweep weighs for Auto's tiers past
// TableBudget, in ladder order: ladderCutoffs reads KORE at index 0,
// PathDecomp at 1 and the colored engines from 2.
var ladderEngines = [...]dregex.Algorithm{dregex.KORE, dregex.PathDecomp, dregex.Colored, dregex.ColoredBinary}

// The ladder experiment's grid: model sizes in positions (all past the
// table budget), occurrence bounds k, and DeepAlternation prefix depths
// (0: no prefix), which carry the alternation depth c_e past 8.
var (
	ladderSizes  = []int{2000, 10000, 100000}
	ladderKs     = []int{1, 2, 3, 4, 5, 6, 7, 8}
	ladderDepths = []int{0, 3, 5}
)

const (
	ladderWordLen = 1 << 13 // symbols per timed word
	ladderReps    = 15      // interleaved timed passes per engine; the fastest counts
	ladderTie     = 1.10    // within 10% of the fastest is a near-tie, won on bytes
)

// ladderCell is one swept model: its compile-time stats and, per engine of
// ladderEngines, the per-symbol time, the build time and the bytes the
// built engine keeps live.
type ladderCell struct {
	st    dregex.Stats
	ns    [len(ladderEngines)]float64
	build [len(ladderEngines)]time.Duration
	bytes [len(ladderEngines)]int64
}

// winner returns the index of the cell's winning engine among
// ladderEngines[from:]: the fastest, except that among the engines within
// ladderTie of it the one with the fewest bytes wins.
func (c ladderCell) winner(from int) int {
	fast := from
	for i := from; i < len(c.ns); i++ {
		if c.ns[i] < c.ns[fast] {
			fast = i
		}
	}
	w := fast
	for i := from; i < len(c.ns); i++ {
		if c.ns[i] <= ladderTie*c.ns[fast] && c.bytes[i] < c.bytes[w] {
			w = i
		}
	}
	return w
}

// ladder sweeps starred k-OREs past TableBudget and prints, per model and
// engine, the per-symbol time, build time and bytes, then the cutoffs the
// Auto ladder reads off them.
func ladder() {
	fmt.Println("LADDER: §4 engines past the table budget on starred k-OREs (wordgen.LadderModel)")
	fmt.Printf("  min of %d interleaved passes over a %d-symbol word; a near-tie (within %.0f%%) goes to fewer bytes\n",
		ladderReps, ladderWordLen, 100*(ladderTie-1))
	fmt.Printf("%7s %6s %2s %3s |", "pos", "sigma", "k", "ce")
	for _, a := range ladderEngines {
		fmt.Printf(" %14s", a)
	}
	fmt.Printf(" | %-14s | build ms (same order)       | engine KiB (same order)\n", "winner")
	r := rand.New(rand.NewSource(11))
	var cells []ladderCell
	for _, size := range ladderSizes {
		for _, k := range ladderKs {
			for _, depth := range ladderDepths {
				c := ladderMeasure(r, size, k, depth)
				cells = append(cells, c)
				fmt.Printf("%7d %6d %2d %3d |", c.st.Positions, c.st.Sigma, c.st.K, c.st.AlternationDepth)
				for _, ns := range c.ns {
					fmt.Printf(" %14.1f", ns)
				}
				fmt.Printf(" | %-14s |", ladderEngines[c.winner(0)])
				for _, d := range c.build {
					fmt.Printf(" %6.2f", float64(d.Microseconds())/1000)
				}
				fmt.Print(" |")
				for _, b := range c.bytes {
					fmt.Printf(" %6d", b>>10)
				}
				fmt.Println()
			}
		}
	}
	var wins [len(ladderEngines)]int
	for _, c := range cells {
		wins[c.winner(0)]++
	}
	fmt.Print("  cells won:")
	for i, a := range ladderEngines {
		fmt.Printf(" %s %d", a, wins[i])
	}
	fmt.Println()
	kStar, ceStar, last := ladderCutoffs(cells)
	fmt.Printf("  K* = %d: kore wins every cell at every k <= K*\n", kStar)
	if ceStar > 0 {
		fmt.Printf("  C* = %d: past K*, pathdecomp beats the colored engines in every cell at every ce <= C*\n", ceStar)
		fmt.Printf("  ladder: table -> kore while k <= %d -> pathdecomp while ce <= %d -> %s\n", kStar, ceStar, last)
	} else {
		fmt.Println("  C* = none: past K*, pathdecomp loses a cell at the shallowest ce to a colored engine")
		fmt.Printf("  ladder: table -> kore while k <= %d -> %s\n", kStar, last)
	}
	fmt.Println()
}

// ladderMeasure compiles one swept model and measures every ladder engine
// on one word of its language.
func ladderMeasure(r *rand.Rand, size, k, depth int) ladderCell {
	alpha := ast.NewAlphabet()
	root := ast.Normalize(wordgen.LadderModel(alpha, size, k, depth))
	names := ladderWord(r, root, alpha)
	e, err := dregex.Compile(ast.StringDTD(root, alpha), dregex.DTD)
	if err != nil || !e.IsDeterministic() {
		panic(fmt.Sprintf("ladder model (size %d, k %d, depth %d): %v", size, k, depth, err))
	}
	w := e.Intern(names)
	c := ladderCell{st: e.Stats()}
	var ms [len(ladderEngines)]*dregex.Matcher
	for i, algo := range ladderEngines {
		before := liveHeap()
		t0 := time.Now()
		if ms[i], err = e.Matcher(algo); err != nil {
			panic(err)
		}
		c.build[i] = time.Since(t0)
		c.bytes[i] = max(0, liveHeap()-before)
	}
	for i := range c.ns {
		c.ns[i] = math.Inf(1)
	}
	for rep := 0; rep < ladderReps; rep++ {
		for i, m := range ms {
			t0 := time.Now()
			if !m.MatchWord(w) {
				panic(fmt.Sprintf("%v rejects a word of the ladder model", ladderEngines[i]))
			}
			c.ns[i] = min(c.ns[i], float64(time.Since(t0).Nanoseconds())/float64(len(w)))
		}
	}
	return c
}

// liveHeap returns the bytes of live heap objects. It collects twice: the
// second collection frees what sync.Pools released in the first (the
// compile pipeline pools its arenas).
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// ladderWord draws a word of L(root), a starred model, of about
// ladderWordLen symbols the way perfbench draws wide-models documents,
// from shorter pool words: eight random-walk words of at least 128
// symbols (perfbench's have 256), concatenated at random, which stays in
// the language because root is starred. The walk is
// words.RandomWord's (a uniformly random follower per step) with the
// follower drawn by rejection: each symbol labels at most one follower of
// a position in a deterministic expression, so a uniformly random symbol
// that has one gives a uniformly random follower, in O(|Σ|/|Follow(p)|)
// KORE steps rather than RandomWord's scan of every position.
func ladderWord(r *rand.Rand, root *ast.Node, alpha *ast.Alphabet) []string {
	t, err := parsetree.Build(root, alpha)
	if err != nil {
		panic(err)
	}
	fol := follow.New(t)
	km := kore.New(t, fol)
	user := alpha.Size() - int(ast.FirstUser)
	pool := make([][]string, 8)
	for i := range pool {
		p := t.BeginPos()
		for len(pool[i]) < 128 || !fol.CheckIfFollow(p, t.EndPos()) {
			q := parsetree.Null
			for q == parsetree.Null {
				q = km.Next(p, ast.FirstUser+ast.Symbol(r.Intn(user)))
			}
			pool[i] = append(pool[i], alpha.Name(t.Sym[q]))
			p = q
		}
	}
	var out []string
	for len(out) < ladderWordLen {
		out = append(out, pool[r.Intn(len(pool))]...)
	}
	return out
}

// ladderCutoffs reads Auto's cutoffs off the sweep. K* is the largest k
// such that KORE wins every cell at every k' ≤ k. Past K* the ladder cannot
// pick KORE, so the contest is among the engines after it: C* is the
// largest c_e such that PathDecomp wins every cell past K* at every
// c_e' ≤ c_e (0 when it loses a cell at the shallowest c_e), and last is
// the colored engine that wins the most cells past both.
func ladderCutoffs(cells []ladderCell) (kStar, ceStar int, last dregex.Algorithm) {
	const kore, pathDecomp, colored = 0, 1, 2
	winsAll := func(engine int, in func(c ladderCell) bool) bool {
		for _, c := range cells {
			if in(c) && c.winner(engine) != engine {
				return false
			}
		}
		return true
	}
	for _, k := range ladderKs {
		if !winsAll(kore, func(c ladderCell) bool { return c.st.K == k }) {
			break
		}
		kStar = k
	}
	var ces []int
	for _, c := range cells {
		ces = append(ces, c.st.AlternationDepth)
	}
	slices.Sort(ces)
	for _, ce := range slices.Compact(ces) {
		if !winsAll(pathDecomp, func(c ladderCell) bool { return c.st.K > kStar && c.st.AlternationDepth == ce }) {
			break
		}
		ceStar = ce
	}
	var wins [len(ladderEngines)]int
	for _, c := range cells {
		if c.st.K > kStar && c.st.AlternationDepth > ceStar {
			wins[c.winner(colored)]++
		}
	}
	best := len(ladderEngines) - 1
	for i := range wins {
		if wins[i] > wins[best] {
			best = i
		}
	}
	return kStar, ceStar, ladderEngines[best]
}
