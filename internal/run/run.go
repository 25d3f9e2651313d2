// Package run is the unified streaming-run core shared by every engine:
// the plain §4 transition simulators (through match.Stream), the dense
// table tier, and the §3.3 counter engine (through numeric.Stream).
//
// A "run" is one left-to-right pass over a word: initialize at the empty
// prefix, consume one symbol at a time, query viability and acceptance at
// any prefix. Before this package each engine surface re-implemented that
// plumbing — dead/fed bookkeeping, the name/rune alphabet guards,
// the reader drivers — once per stream type. Runner is the shared
// contract; Core is the shared per-run bookkeeping the concrete streams
// embed; the free functions are the drivers that work on any Runner.
//
// Because the expressions are deterministic, a run's position sequence is
// the unique parse of the word (Bille–Gørtz, "From Regular Expression
// Matching to Parsing"): Trace records it, opt-in, so the pure-match hot
// path stays untouched (a nil trace pointer is one predictable branch).
package run

import (
	"bufio"
	"fmt"
	"io"

	"dregex/internal/ast"
	"dregex/internal/parsetree"
)

// Runner is one streaming run over one compiled expression. Implemented by
// match.Stream (all plain engines plus the dense table, via TransitionSim)
// and numeric.Stream (the counter engine). A Runner is single-goroutine
// per-word state; the engine behind it is shared and immutable.
type Runner interface {
	// Reset rewinds the run to the empty prefix (buffers retained).
	Reset()
	// Feed consumes one interned symbol; it reports whether the prefix
	// read so far is still viable. Symbols outside the user alphabet kill
	// the run.
	Feed(a ast.Symbol) bool
	// FeedName / FeedRune consume one symbol by name or as a single rune,
	// interning through the expression's alphabet without allocating.
	FeedName(name string) bool
	FeedRune(r rune) bool
	// Accepts reports whether the prefix consumed so far is in L(e).
	Accepts() bool
	// Alive reports whether some extension could still be accepted.
	Alive() bool
	// Len returns the number of symbols consumed (the killing symbol of a
	// dead run is not counted).
	Len() int
	// SetTrace attaches (or detaches, with nil) a witness log; see Trace.
	SetTrace(tr *Trace)
	// ExpectedNext appends the interned symbols that could legally extend
	// the run — at the current prefix while alive, at the last viable
	// prefix once dead. The result is empty only when no symbol extends
	// the prefix.
	ExpectedNext(dst []ast.Symbol) []ast.Symbol
	// Alphabet returns the expression's symbol alphabet.
	Alphabet() *ast.Alphabet
}

// Trace is an opt-in witness log: the run's position sequence. Positions
// are Glushkov states — leaves of the compiled parse tree — so for a
// deterministic expression the trace of an accepted word IS its unique
// parse (materialized by parsetree.Derive). Pos[i] is the position that
// consumed symbol i. Attach with Runner.SetTrace; Reset (and the streams'
// Init) truncates an attached trace, so a reused stream can never leak
// positions from a previous — possibly rejected — word into the next
// word's witness.
type Trace struct {
	Pos []parsetree.NodeID
}

// Reset truncates the log, retaining capacity.
func (t *Trace) Reset() {
	if t != nil {
		t.Pos = t.Pos[:0]
	}
}

// Core is the engine-independent half of a run: liveness, consumed-symbol
// count, and the witness log. Concrete streams embed it and call Advance /
// Kill from their Feed; everything else (Alive, Len, SetTrace, Witness)
// is shared behavior inherited by embedding.
type Core struct {
	dead bool
	fed  int
	tr   *Trace
}

// Alive implements Runner.
func (c *Core) Alive() bool { return !c.dead }

// Len implements Runner.
func (c *Core) Len() int { return c.fed }

// SetTrace implements Runner: it attaches tr (nil detaches) and truncates
// it, so recording always starts at the current prefix boundary.
func (c *Core) SetTrace(tr *Trace) {
	c.tr = tr
	tr.Reset()
}

// Witness returns the recorded position sequence (nil when no trace is
// attached). The slice aliases the trace's log; it is valid until the next
// Feed or Reset.
func (c *Core) Witness() []parsetree.NodeID {
	if c.tr == nil {
		return nil
	}
	return c.tr.Pos
}

// Rewind resets the bookkeeping (and truncates an attached trace) for the
// embedding stream's Reset/Init.
func (c *Core) Rewind() {
	c.dead = false
	c.fed = 0
	c.tr.Reset()
}

// Advance records one consumed symbol landing on position p.
//
//dregex:noalloc
func (c *Core) Advance(p parsetree.NodeID) {
	c.fed++
	if c.tr != nil {
		c.tr.Pos = append(c.tr.Pos, p)
	}
}

// Kill marks the run dead. The embedding stream keeps its last viable
// state so ExpectedNext can report what could have come instead.
//
//dregex:noalloc
func (c *Core) Kill() { c.dead = true }

// LookupName resolves a symbol name for a Feed step; the reserved phantom
// markers # and $ are never feedable. The ok=false result is what a
// stream's FeedName forwards to Kill.
//
//dregex:noalloc
func LookupName(alpha *ast.Alphabet, name string) (ast.Symbol, bool) {
	a, ok := alpha.Lookup(name)
	if !ok || a == ast.Begin || a == ast.End {
		return ast.None, false
	}
	return a, true
}

// LookupRune is LookupName for a single-rune symbol (math notation) — no
// per-rune string allocation.
//
//dregex:noalloc
func LookupRune(alpha *ast.Alphabet, r rune) (ast.Symbol, bool) {
	a, ok := alpha.LookupRune(r)
	if !ok || a == ast.Begin || a == ast.End {
		return ast.None, false
	}
	return a, true
}

// ExpectedNames renders ExpectedNext as symbol names, appending into dst —
// the diagnostics form validators and parse errors report ("expected
// <qty>"). It allocates (names, and a small symbol scratch); it is meant
// for error paths, never per-symbol hot loops.
func ExpectedNames(r Runner, dst []string) []string {
	alpha := r.Alphabet()
	for _, a := range r.ExpectedNext(nil) {
		dst = append(dst, alpha.Name(a))
	}
	return dst
}

// ReaderRunes streams single-rune symbols from rd through r in one
// sequential pass (the §1 "streamable" claim: the word is never stored).
// ASCII whitespace is skipped, so "aba" and "a b a" stream the same word.
func ReaderRunes(r Runner, rd io.Reader) (bool, error) {
	br := bufio.NewReader(rd)
	for {
		ch, _, err := br.ReadRune()
		if err == io.EOF {
			return r.Accepts(), nil
		}
		if err != nil {
			return false, fmt.Errorf("run: read: %w", err)
		}
		if ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' {
			continue
		}
		if !r.FeedRune(ch) {
			// Drain is unnecessary: the verdict is already final.
			return false, nil
		}
	}
}

// ReaderTokens streams whitespace-separated symbol names from rd through r
// in one sequential pass.
func ReaderTokens(r Runner, rd io.Reader) (bool, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		if !r.FeedName(sc.Text()) {
			return false, sc.Err()
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	return r.Accepts(), nil
}
