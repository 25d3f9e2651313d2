package dregex

import (
	"sync"
	"testing"

	"dregex/internal/match"
	"dregex/internal/wordgen"
)

func TestMatcherIsCachedPerAlgorithm(t *testing.T) {
	e := MustCompile("(ab+b(b?)a)*", Math)
	m1, err := e.Matcher(KORE)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e.Matcher(KORE)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("Matcher(KORE) must return the same cached simulator")
	}
	// Auto resolves at compile time and shares the explicit-algo slot.
	ma, err := e.Matcher(Auto)
	if err != nil {
		t.Fatal(err)
	}
	me, err := e.Matcher(ma.Algorithm())
	if err != nil {
		t.Fatal(err)
	}
	if ma != me {
		t.Errorf("Matcher(Auto)=%p must share the %v slot (%p)", ma, ma.Algorithm(), me)
	}
	// Distinct algorithms get distinct engines.
	mc, err := e.Matcher(Colored)
	if err != nil {
		t.Fatal(err)
	}
	if mc == m1 {
		t.Error("Colored and KORE must not share an engine")
	}
}

func TestMatcherCacheConcurrent(t *testing.T) {
	e := MustCompile("(a|b)*, c", DTD)
	var wg sync.WaitGroup
	got := make([]*Matcher, 32)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := e.Matcher(PathDecomp)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = m
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Matcher calls built more than one engine")
		}
	}
}

func TestMatchAllReusesBatchEngine(t *testing.T) {
	// A table-eligible star-free model rides the dense-table tier word by
	// word; the batch engine must not even be built for it.
	small := MustCompile("(title, author, abstract?)", DTD)
	words := [][]string{{"title", "author"}, {"title"}}
	if small.auto != Table {
		t.Fatalf("small star-free model resolves Auto to %v, want Table", small.auto)
	}
	if _, err := small.MatchAll(words, Auto); err != nil {
		t.Fatal(err)
	}
	if small.batch.b != nil {
		t.Error("table-eligible Auto MatchAll must bypass the batch engine")
	}

	// Beyond the table budget, star-free Auto MatchAll still takes the
	// Theorem 4.12 batch engine, built once and reused.
	e := MustCompile(wordgen.OptChainDTD(1024), DTD)
	if e.auto == Table {
		t.Fatalf("big star-free model must be over the table budget (positions=%d sigma=%d)",
			e.stats.Positions, e.stats.Sigma)
	}
	bigWords := [][]string{{"a0", "a1"}, {"a1", "a0"}}
	if _, err := e.MatchAll(bigWords, Auto); err != nil {
		t.Fatal(err)
	}
	b1 := e.batch.b
	if b1 == nil {
		t.Fatal("star-free Auto MatchAll must use the batch engine")
	}
	if _, err := e.MatchAll(bigWords, Auto); err != nil {
		t.Fatal(err)
	}
	if e.batch.b != b1 {
		t.Error("batch engine must be reused across MatchAll calls")
	}
}

func TestMatchAllHonorsExplicitAlgorithm(t *testing.T) {
	e := MustCompile("(title, author, abstract?)", DTD)
	words := [][]string{{"title", "author"}, {"title"}}

	// An explicit engine request must be honored (not silently replaced
	// by the batch path): an invalid algorithm now fails even though the
	// expression is star-free.
	if _, err := e.MatchAll(words, Algorithm(99)); err == nil {
		t.Error("MatchAll ignored an invalid explicit algorithm")
	}
	// And a valid explicit engine must not touch the batch engine.
	e2 := MustCompile("(title, author, abstract?)", DTD)
	got, err := e2.MatchAll(words, Climbing)
	if err != nil {
		t.Fatal(err)
	}
	if e2.batch.b != nil {
		t.Error("explicit algorithm must bypass the batch engine")
	}
	if !got[0] || got[1] {
		t.Errorf("MatchAll(Climbing) = %v, want [true false]", got)
	}
}

func TestMatchAllNFAOnNondeterministic(t *testing.T) {
	// NFA is the one engine that accepts nondeterministic expressions;
	// an explicit NFA request must work through MatchAll too.
	e := MustCompile("(a*ba+bb)*", Math)
	if e.IsDeterministic() {
		t.Fatal("test expression must be nondeterministic")
	}
	got, err := e.MatchAll([][]string{{"b", "b"}, {"a", "b"}}, NFA)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0] || got[1] {
		t.Errorf("MatchAll(NFA) = %v, want [true false]", got)
	}
	// Every other explicit engine — and Auto — still rejects.
	for _, algo := range []Algorithm{Auto, KORE, Colored, PathDecomp} {
		if _, err := e.MatchAll([][]string{{"b"}}, algo); err == nil {
			t.Errorf("MatchAll(%v) accepted a nondeterministic expression", algo)
		}
	}
	iv, err := e.MatchAllWords([][]Symbol{e.Intern([]string{"b", "b"})}, NFA)
	if err != nil || !iv[0] {
		t.Errorf("MatchAllWords(NFA) = %v, %v", iv, err)
	}
}

func TestInternAndMatchWord(t *testing.T) {
	e := MustCompile("(title, author+, (section | appendix)*)", DTD)
	m, err := e.Matcher(Auto)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		names []string
		want  bool
	}{
		{[]string{"title", "author", "section"}, true},
		{[]string{"title", "author", "author", "appendix"}, true},
		{[]string{"title"}, false},
		{[]string{"title", "author", "unknown"}, false}, // None sentinel rejects
		{[]string{"#", "$"}, false},                     // reserved markers reject
	}
	for _, c := range cases {
		word := e.Intern(c.names)
		if got := m.MatchWord(word); got != c.want {
			t.Errorf("MatchWord(%v) = %v, want %v", c.names, got, c.want)
		}
		if got := m.MatchSymbols(c.names); got != c.want {
			t.Errorf("MatchSymbols(%v) = %v, want %v", c.names, got, c.want)
		}
	}
	// MatchAllWords agrees, through the table tier of a star-free model.
	sf := MustCompile("(title, author, abstract?)", DTD)
	ws := [][]Symbol{sf.Intern([]string{"title", "author"}), sf.Intern([]string{"title"})}
	got, err := sf.MatchAllWords(ws, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0] || got[1] {
		t.Errorf("MatchAllWords = %v, want [true false]", got)
	}
}

// TestSteadyStateZeroAllocs pins the allocation-free hot path: cached
// engine lookup, interned-word matching, and stream reuse must not
// allocate in steady state.
func TestSteadyStateZeroAllocs(t *testing.T) {
	e := MustCompile("(login, (query, page*)*, logout)", DTD)
	word := e.Intern([]string{"login", "query", "page", "page", "query", "logout"})

	for _, algo := range []Algorithm{Table, KORE, Colored, ColoredBinary, PathDecomp, Climbing} {
		m, err := e.Matcher(algo)
		if err != nil {
			t.Fatal(err)
		}
		if !m.MatchWord(word) {
			t.Fatalf("%v rejects the session word", algo)
		}
		if n := testing.AllocsPerRun(200, func() { m.MatchWord(word) }); n != 0 {
			t.Errorf("%v MatchWord allocates %v/op, want 0", algo, n)
		}
	}

	// Engine lookup after first build is allocation-free too.
	if n := testing.AllocsPerRun(200, func() {
		if _, err := e.Matcher(Auto); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("cached Matcher lookup allocates %v/op, want 0", n)
	}

	// Value-stream reuse: one Stream, Reset per word, zero allocations.
	m, err := e.Matcher(Auto)
	if err != nil {
		t.Fatal(err)
	}
	var s match.Stream
	if !m.InitStream(&s) {
		t.Fatal("InitStream failed for a deterministic engine")
	}
	if n := testing.AllocsPerRun(200, func() {
		s.Reset()
		for _, a := range word {
			s.Feed(a)
		}
		if !s.Accepts() {
			t.Error("stream rejects the session word")
		}
	}); n != 0 {
		t.Errorf("stream reuse allocates %v/op, want 0", n)
	}

	// Math-notation text matching interns runes without allocating.
	em := MustCompile("(ab+b(b?)a)*", Math)
	mm, err := em.Matcher(KORE)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { mm.MatchText("abbbaab") }); n != 0 {
		t.Errorf("MatchText allocates %v/op, want 0", n)
	}

	// InternInto with a recycled buffer completes the zero-alloc loop.
	names := []string{"login", "logout"}
	buf := make([]Symbol, 0, 8)
	if n := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		buf = e.InternInto(buf, names)
		m.MatchWord(buf)
	}); n != 0 {
		t.Errorf("InternInto+MatchWord allocates %v/op, want 0", n)
	}
}

// TestMatchAllCachedAllocs pins the steady-state allocation count of the
// cached MatchAll path for table-eligible expressions: the dense-table
// tier matches word by word, so the only allocation left is the returned
// verdict slice.
func TestMatchAllCachedAllocs(t *testing.T) {
	e := MustCompile("(title, author, (section | appendix)?)", DTD)
	names := [][]string{
		{"title", "author", "section"},
		{"title", "author", "appendix"},
		{"title", "section"},
	}
	words := make([][]Symbol, len(names))
	for i, w := range names {
		words[i] = e.Intern(w)
	}
	if _, err := e.MatchAll(names, Auto); err != nil { // warm the engine
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := e.MatchAll(names, Auto); err != nil {
			t.Error(err)
		}
	}); n > 1 {
		t.Errorf("cached MatchAll allocates %v/op, want <= 1 (the verdict slice)", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := e.MatchAllWords(words, Auto); err != nil {
			t.Error(err)
		}
	}); n > 1 {
		t.Errorf("cached MatchAllWords allocates %v/op, want <= 1 (the verdict slice)", n)
	}
}

// TestFollowIndexFirstUseConcurrent: Compile decides a 1-ORE without
// building its follow index, so the first engine build (or batch engine)
// builds it. 16 goroutines race Matcher(Auto), MatchWord and MatchAll on
// one fresh Expr; under -race they must share one engine and all see the
// right verdicts. A model with a repeated symbol gets its index from the
// determinism test at Compile.
func TestFollowIndexFirstUseConcurrent(t *testing.T) {
	if MustCompile("(a | b)*, a", DTD).fol.ix == nil {
		t.Error("the determinism test ran without keeping its follow index")
	}
	for _, c := range []struct {
		src    string
		accept []string
		reject []string
	}{
		{"(title, (author | editor)*, (section | appendix)?)", []string{"title", "editor", "author", "section"}, []string{"title", "section", "author"}},
		// Star-free past the table budget: Auto MatchAll takes the batch
		// engine, Matcher(Auto) KORE.
		{wordgen.OptChainDTD(1024), []string{"a0", "a7", "a1023"}, []string{"a7", "a0"}},
	} {
		e := MustCompile(c.src, DTD)
		if e.Stats().K != 1 || e.fol.ix != nil {
			t.Fatalf("%.40q: k=%d, follow index built at Compile: %v", c.src, e.Stats().K, e.fol.ix != nil)
		}
		accept, reject := e.Intern(c.accept), e.Intern(c.reject)
		words := [][]string{c.accept, c.reject}
		const workers = 16
		var wg sync.WaitGroup
		got := make([]*Matcher, workers)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m, err := e.Matcher(Auto)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = m
				if !m.MatchWord(accept) || m.MatchWord(reject) {
					t.Errorf("%.40q: MatchWord verdicts %v, %v", c.src, m.MatchWord(accept), m.MatchWord(reject))
				}
				res, err := e.MatchAll(words, Auto)
				if err != nil || !res[0] || res[1] {
					t.Errorf("%.40q: MatchAll = %v, %v", c.src, res, err)
				}
			}(i)
		}
		wg.Wait()
		for i := 1; i < workers; i++ {
			if got[i] != got[0] {
				t.Fatalf("%.40q: concurrent first use built more than one engine", c.src)
			}
		}
		if e.fol.ix == nil {
			t.Errorf("%.40q: no follow index after the engines were built", c.src)
		}
	}
}
