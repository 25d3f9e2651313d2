// Benchmarks for the amortized pipeline: engine reuse across Matcher and
// MatchAll calls, cache-served compilation, and the zero-allocation
// interned-symbol hot path. The */fresh variants measure what every call
// paid before compilation and engines were cached; the */cached variants
// are the steady state.
package dregex_test

import (
	"fmt"
	"testing"

	"dregex"
)

const benchModel = "(login, (query, page*)*, logout)"

var benchSession = []string{"login", "query", "page", "page", "query", "page", "logout"}

func BenchmarkMatcherFresh(b *testing.B) {
	// Pre-refactor shape: compile + build an engine for every request.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := dregex.Compile(benchModel, dregex.DTD)
		if err != nil {
			b.Fatal(err)
		}
		m, err := e.Matcher(dregex.Auto)
		if err != nil {
			b.Fatal(err)
		}
		if !m.MatchSymbols(benchSession) {
			b.Fatal("session must match")
		}
	}
}

func BenchmarkMatcherCached(b *testing.B) {
	// Steady state: cached engine, names still resolved per symbol.
	e := dregex.MustCompile(benchModel, dregex.DTD)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := e.Matcher(dregex.Auto)
		if err != nil {
			b.Fatal(err)
		}
		if !m.MatchSymbols(benchSession) {
			b.Fatal("session must match")
		}
	}
}

func BenchmarkMatchWordInterned(b *testing.B) {
	// The full hot path: cached engine + pre-interned word. This is the
	// benchmark pinned at 0 allocs/op.
	e := dregex.MustCompile(benchModel, dregex.DTD)
	m, err := e.Matcher(dregex.Auto)
	if err != nil {
		b.Fatal(err)
	}
	word := e.Intern(benchSession)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.MatchWord(word) {
			b.Fatal("session must match")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(word)), "ns/sym")
}

func benchWords(e *dregex.Expr, n int) [][]string {
	ws := make([][]string, n)
	for i := range ws {
		switch i % 3 {
		case 0:
			ws[i] = []string{"title", "author", "section"}
		case 1:
			ws[i] = []string{"title", "author", "appendix"}
		default:
			ws[i] = []string{"title", "section"} // invalid
		}
	}
	return ws
}

func BenchmarkMatchAllFresh(b *testing.B) {
	// Pre-refactor shape: the batch engine was rebuilt per MatchAll call
	// (and the expression recompiled per request).
	ws := benchWords(nil, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := dregex.Compile("(title, author, (section | appendix)?)", dregex.DTD)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.MatchAll(ws, dregex.Auto); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchAllCached(b *testing.B) {
	e := dregex.MustCompile("(title, author, (section | appendix)?)", dregex.DTD)
	ws := benchWords(e, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.MatchAll(ws, dregex.Auto); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheGet(b *testing.B) {
	// Validator traffic: a hot key set served from the LRU.
	c := dregex.NewCache(1024)
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("(a%d, (b%d | c%d)*, d%d?)", i, i, i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := c.Get(keys[i%len(keys)], dregex.DTD); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkNumericStreamInterned is the counter-engine hot path: cached
// NumericMatcher, reused NumericStream, pre-interned word — the XSD
// validator's steady-state children-matching cost per document.
func BenchmarkNumericStreamInterned(b *testing.B) {
	e, err := dregex.CompileNumeric("(login, (query, page{1,8}){1,32}, logout)", dregex.DTD)
	if err != nil {
		b.Fatal(err)
	}
	m := e.Matcher()
	word := e.Intern(benchSession)
	var s dregex.NumericStream
	run := func() bool {
		m.InitStream(&s)
		for _, a := range word {
			if !s.Feed(a) {
				return false
			}
		}
		return s.Accepts()
	}
	if !run() { // warm up stream buffers
		b.Fatal("session must match")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !run() {
			b.Fatal("session must match")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(word)), "ns/sym")
}

func BenchmarkParseWord(b *testing.B) {
	// Witness-recorded matching: same cached engine and interned word as
	// BenchmarkMatchWordInterned, but recording the position trace and
	// materializing the parse tree. The gap between the two benchmarks is
	// the full cost of opting into parsing.
	e := dregex.MustCompile(benchModel, dregex.DTD)
	m, err := e.Matcher(dregex.Auto)
	if err != nil {
		b.Fatal(err)
	}
	word := e.Intern(benchSession)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.ParseWord(word)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatal("session must parse")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(word)), "ns/sym")
}

func BenchmarkLexerStream(b *testing.B) {
	// Streaming longest-match tokenization over a reused stream: number,
	// identifier, and separator rules on the table tier.
	lex, err := dregex.NewLexer(
		dregex.LexRule{Tag: "num", Expr: dregex.MustCompile("(0+1+2+3+4+5+6+7+8+9)(0+1+2+3+4+5+6+7+8+9)*", dregex.Math)},
		dregex.LexRule{Tag: "id", Expr: dregex.MustCompile("(a+b+c)(a+b+c)*", dregex.Math)},
		dregex.LexRule{Tag: "sep", Expr: dregex.MustCompile("s", dregex.Math)},
	)
	if err != nil {
		b.Fatal(err)
	}
	input := ""
	for i := 0; i < 32; i++ {
		input += "abc123scba0s99aabbs"
	}
	toks := 0
	s := lex.Stream(func(dregex.Token) error { toks++; return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		if err := s.FeedString(input); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	if toks == 0 {
		b.Fatal("no tokens")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(input)), "ns/byte")
}
