package starfree

import (
	"math/rand"
	"sync"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/glushkov"
	"dregex/internal/match"
	"dregex/internal/parsetree"
	"dregex/internal/wordgen"
	"dregex/internal/words"
)

func compile(t *testing.T, e *ast.Node, alpha *ast.Alphabet) (*parsetree.Tree, *follow.Index) {
	t.Helper()
	tr, err := parsetree.Build(ast.Normalize(e), alpha)
	if err != nil {
		t.Fatal(err)
	}
	return tr, follow.New(tr)
}

func TestPaperExample411(t *testing.T) {
	// Example 4.11: e = (a+ba)(c?)(d?b) against w1..w4; expression written
	// without the phantom markers (added by the compiler).
	alpha := ast.NewAlphabet()
	tr, fol := compile(t, ast.MustParseMath("((a+ba)(c?))(d?b)", alpha), alpha)
	b := NewBatch(tr, fol)
	ws := [][]string{
		{"b", "c", "d", "b"},      // w1 = bcdb
		{"a", "c", "d", "b", "a"}, // w2 = acdba
		{"a", "c", "b"},           // w3 = acb
		{"b", "a", "d", "a"},      // w4 = bada
	}
	got := b.MatchAllNames(ws)
	want := []bool{false, false, true, false} // only w3 matches (paper)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("w%d: got %v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestScanAndBatchAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(307))
	for trial := 0; trial < 120; trial++ {
		alpha := ast.NewAlphabet()
		e := wordgen.StarFree(r, alpha, 3+r.Intn(10), 10+r.Intn(60))
		tr, fol := compile(t, e, alpha)
		oracle := glushkov.Build(tr)
		scan := NewScan(tr, fol)
		batch := NewBatch(tr, fol)
		var corpus [][]ast.Symbol
		for i := 0; i < 25; i++ {
			switch i % 3 {
			case 0:
				if w, ok := words.RandomWord(r, fol, 20, 0.3); ok {
					corpus = append(corpus, w)
				}
			case 1:
				corpus = append(corpus, words.NoiseWord(r, tr, r.Intn(8)))
			default:
				if w, ok := words.RandomWord(r, fol, 20, 0.3); ok {
					corpus = append(corpus, words.Mutate(r, tr, w, 1+r.Intn(2)))
				} else {
					corpus = append(corpus, nil)
				}
			}
		}
		batchGot := batch.MatchAll(corpus)
		for i, w := range corpus {
			want := oracle.Match(w)
			if got := match.Word(scan, w); got != want {
				t.Fatalf("Scan on %s word %v: got %v, want %v",
					ast.StringMath(e, alpha), w, got, want)
			}
			if batchGot[i] != want {
				t.Fatalf("Batch on %s word %v: got %v, want %v",
					ast.StringMath(e, alpha), w, batchGot[i], want)
			}
		}
	}
}

func TestBatchManyIdenticalAndEmpty(t *testing.T) {
	alpha := ast.NewAlphabet()
	tr, fol := compile(t, ast.MustParseMath("a?b?c?", alpha), alpha)
	b := NewBatch(tr, fol)
	a, _ := alpha.Lookup("a")
	c, _ := alpha.Lookup("c")
	ws := [][]ast.Symbol{
		nil,    // ε ∈ L
		{a},    // a
		{a, c}, // ac
		{c, a}, // ca — reject
		{a, a}, // aa — reject
		{a, c}, // duplicate word: independent verdicts
		{},     // ε again
	}
	got := b.MatchAll(ws)
	want := []bool{true, true, true, false, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBatchScale(t *testing.T) {
	// Many words against a larger CHARE-like star-free expression.
	r := rand.New(rand.NewSource(311))
	alpha := ast.NewAlphabet()
	e := wordgen.StarFree(r, alpha, 20, 200)
	tr, fol := compile(t, e, alpha)
	oracle := glushkov.Build(tr)
	batch := NewBatch(tr, fol)
	var corpus [][]ast.Symbol
	for i := 0; i < 500; i++ {
		if w, ok := words.RandomWord(r, fol, 40, 0.2); ok && i%2 == 0 {
			corpus = append(corpus, w)
		} else {
			corpus = append(corpus, words.NoiseWord(r, tr, r.Intn(20)))
		}
	}
	got := batch.MatchAll(corpus)
	for i, w := range corpus {
		if want := oracle.Match(w); got[i] != want {
			t.Fatalf("word %d (%v): got %v, want %v", i, w, got[i], want)
		}
	}
}

// TestBatchConcurrentPooledScratch hammers one Batch from many goroutines:
// pooled scratch must never leak state between concurrent MatchAll calls
// (run under -race in CI).
func TestBatchConcurrentPooledScratch(t *testing.T) {
	alpha := ast.NewAlphabet()
	tr, fol := compile(t, ast.MustParseMath("((a+ba)(c?))(d?b)", alpha), alpha)
	b := NewBatch(tr, fol)
	ws := [][]string{
		{"b", "c", "d", "b"},
		{"a", "c", "d", "b", "a"},
		{"a", "c", "b"},
		{"b", "a", "d", "a"},
		{},
		{"no-such-name"},
	}
	want := []bool{false, false, true, false, false, false}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				got := b.MatchAllNames(ws)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("word %d: got %v, want %v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestBatchAllocsSteadyState pins the pooled-scratch claim: once the
// buffers have grown, a MatchAll call allocates only the returned verdict
// slice (and MatchAllNames one flat interning arena slice header at most).
func TestBatchAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates closure allocation counts")
	}
	alpha := ast.NewAlphabet()
	tr, fol := compile(t, ast.MustParseMath("((a+ba)(c?))(d?b)", alpha), alpha)
	b := NewBatch(tr, fol)
	a, _ := alpha.Lookup("a")
	c, _ := alpha.Lookup("c")
	d, _ := alpha.Lookup("d")
	bb, _ := alpha.Lookup("b")
	ws := [][]ast.Symbol{{a, c, bb}, {bb, c, d, bb}, {a, bb}, {}}
	names := [][]string{{"a", "c", "b"}, {"b", "c", "d", "b"}, {"a", "b"}, {}}
	b.MatchAll(ws)
	b.MatchAllNames(names) // warm the pool
	if n := testing.AllocsPerRun(200, func() { b.MatchAll(ws) }); n > 1 {
		t.Errorf("MatchAll allocates %v/op in steady state, want <= 1 (the verdict slice)", n)
	}
	if n := testing.AllocsPerRun(200, func() { b.MatchAllNames(names) }); n > 1 {
		t.Errorf("MatchAllNames allocates %v/op in steady state, want <= 1", n)
	}
}
