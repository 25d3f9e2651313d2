// Package match defines the transition-simulation contract shared by all
// matchers of the paper's §4 and the word/stream drivers built on it.
//
// Every matcher realizes one procedure: "given a position p and a symbol a,
// return the position labeled a that follows p, or Null" (§4, intro). With
// rule (R1) in place, matching a word w against e′ is: start at the phantom
// position #, step through w, and finally test whether the phantom $
// follows the last position (§4: "matching a word w against e′ is
// straightforward").
//
// All matchers are streamable: drivers consume input symbol by symbol in
// one pass and keep O(1) state beyond the preprocessed expression. Stream
// is the run.Runner adapter over any TransitionSim — the plain §4 engines
// and the dense table tier all stream through it; the generic drivers
// (readers, witness recording, expected-next diagnostics) live in
// internal/run and work on any Runner.
package match

import (
	"dregex/internal/ast"
	"dregex/internal/parsetree"
	"dregex/internal/run"
)

// TransitionSim is the §4 transition-simulation procedure.
type TransitionSim interface {
	// Tree returns the compiled expression the simulator runs on.
	Tree() *parsetree.Tree
	// Start returns the initial position (the phantom #).
	Start() parsetree.NodeID
	// Next returns the position labeled a that follows p, or Null.
	Next(p parsetree.NodeID, a ast.Symbol) parsetree.NodeID
	// Accept reports whether a word ending at position p is in L(e),
	// i.e. whether the phantom $ follows p.
	Accept(p parsetree.NodeID) bool
}

// Word matches a word of interned symbols. Symbols outside the user
// alphabet — ast.None from a failed lookup, or the reserved markers —
// reject, so words interned against a different (or extended) alphabet are
// handled gracefully. Word performs no allocation: it is the devirtualized
// whole-word fast path; incremental and recorded runs go through Stream.
//
//dregex:noalloc
func Word(sim TransitionSim, word []ast.Symbol) bool {
	p := sim.Start()
	for _, a := range word {
		if a < ast.FirstUser {
			return false
		}
		p = sim.Next(p, a)
		if p == parsetree.Null {
			return false
		}
	}
	return sim.Accept(p)
}

// Names matches a word of symbol names; names outside the alphabet (or the
// reserved markers) reject. Allocation-free, like Word.
//
//dregex:noalloc
func Names(sim TransitionSim, names []string) bool {
	alpha := sim.Tree().Alpha
	p := sim.Start()
	for _, n := range names {
		a, ok := run.LookupName(alpha, n)
		if !ok {
			return false
		}
		p = sim.Next(p, a)
		if p == parsetree.Null {
			return false
		}
	}
	return sim.Accept(p)
}

// Chars matches a word of single-rune symbols (the paper's mathematical
// notation) without allocating per rune.
//
//dregex:noalloc
func Chars(sim TransitionSim, w string) bool {
	alpha := sim.Tree().Alpha
	p := sim.Start()
	for _, r := range w {
		a, ok := run.LookupRune(alpha, r)
		if !ok {
			return false
		}
		p = sim.Next(p, a)
		if p == parsetree.Null {
			return false
		}
	}
	return sim.Accept(p)
}

// Stream is an incremental matcher: feed symbols one at a time, query
// acceptance at any prefix. It adapts any TransitionSim to the run.Runner
// contract — the engine-independent bookkeeping (liveness, length, the
// opt-in witness trace) is the embedded run.Core; this type adds only the
// single-position state the §4 simulators maintain. The zero value is
// unusable; call NewStream or Init.
type Stream struct {
	run.Core
	sim TransitionSim
	// cur is the current position while alive, and the LAST VIABLE
	// position once dead — kept so ExpectedNext can report what could
	// have extended the run at the point of failure.
	cur parsetree.NodeID
}

// Stream implements run.Runner.
var _ run.Runner = (*Stream)(nil)

// NewStream starts a stream at the phantom # position.
func NewStream(sim TransitionSim) *Stream {
	s := &Stream{}
	s.Init(sim)
	return s
}

// Init (re)binds a stream to a simulator and rewinds it to the empty
// prefix. It lets callers embed Stream by value — one per stack frame or
// per worker — and restart matches with zero allocation. An attached
// witness trace stays attached but is truncated, so a rejected previous
// word can never leak positions into the next word's witness.
func (s *Stream) Init(sim TransitionSim) {
	s.sim = sim
	s.cur = sim.Start()
	s.Rewind()
}

// Reset rewinds the stream to the empty prefix.
func (s *Stream) Reset() {
	s.cur = s.sim.Start()
	s.Rewind()
}

// Feed consumes one symbol; it reports whether the prefix read so far is
// still a viable prefix of some word in L(e).
//
//dregex:noalloc
func (s *Stream) Feed(a ast.Symbol) bool {
	if !s.Alive() || a < ast.FirstUser {
		s.Kill()
		return false
	}
	nxt := s.sim.Next(s.cur, a)
	if nxt == parsetree.Null {
		s.Kill() // cur keeps the last viable position
		return false
	}
	s.cur = nxt
	s.Advance(nxt)
	return true
}

// FeedName consumes one symbol by name.
//
//dregex:noalloc
func (s *Stream) FeedName(name string) bool {
	a, ok := run.LookupName(s.Alphabet(), name)
	if !ok {
		s.Kill()
		return false
	}
	return s.Feed(a)
}

// FeedRune consumes one single-rune symbol (math notation), interned via
// Alphabet.LookupRune — no per-rune string allocation, unlike
// FeedName(string(r)).
//
//dregex:noalloc
func (s *Stream) FeedRune(r rune) bool {
	a, ok := run.LookupRune(s.Alphabet(), r)
	if !ok {
		s.Kill()
		return false
	}
	return s.Feed(a)
}

// Accepts reports whether the prefix consumed so far is in L(e).
//
//dregex:noalloc
func (s *Stream) Accepts() bool {
	return s.Alive() && s.sim.Accept(s.cur)
}

// Alphabet implements run.Runner.
func (s *Stream) Alphabet() *ast.Alphabet { return s.sim.Tree().Alpha }

// Position returns the current position (for diagnostics); Null when dead.
func (s *Stream) Position() parsetree.NodeID {
	if !s.Alive() {
		return parsetree.Null
	}
	return s.cur
}

// ExpectedNext implements run.Runner: the symbols with a follower from the
// last viable position, i.e. exactly the legal continuations at (or, once
// dead, just before) the failure point. O(σ) Next probes — an error-path
// diagnostic, not a hot path.
func (s *Stream) ExpectedNext(dst []ast.Symbol) []ast.Symbol {
	alpha := s.sim.Tree().Alpha
	for a := ast.FirstUser; int(a) < alpha.Size(); a++ {
		if s.sim.Next(s.cur, a) != parsetree.Null {
			dst = append(dst, a)
		}
	}
	return dst
}
