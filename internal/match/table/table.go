// Package table is the flat-table DFA fast path: a dense transition table
// built directly from the follow sets of a deterministic expression.
//
// For a deterministic expression the Glushkov automaton is itself
// deterministic — its states are the positions of e (plus the phantom #)
// and the transition on symbol a from position p is the unique a-labeled
// position in Follow(p) — so no subset construction is needed. Large-scale
// studies of real XML schemas report that the overwhelming majority of
// content models are tiny 1-OREs, where an O(positions × alphabet) table
// fits in a few cache lines and a transition is a single indexed load.
// The paper's §4 engines (kore, colored-vEB, path decomposition) stay as
// the fallback for expressions whose table would exceed the size budget:
// they keep precomputation linear in |e| where this table deliberately
// spends O(positions × σ) space and O(positions²) construction time to
// make the per-symbol cost a memory access.
//
// States are position indices (0 = the phantom #); the table stores the
// follower's position index, Dead where no follower exists. Acceptance is
// a packed bitset over states (bit set iff the phantom $ follows the
// position). Per-word matching state is a single int32.
package table

import (
	"errors"
	"fmt"

	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/parsetree"
)

// Dead is the absent-transition sentinel stored in the table.
const Dead int32 = -1

// DefaultBudget caps the dense table: see Fits. 1<<20 int32 entries is
// 4 MiB — far beyond any real-world content model (the 1-ORE models that
// dominate real corpora are a few dozen entries) while still small enough
// that even a pathological cache of thousands of table-built expressions
// stays modest.
const DefaultBudget = 1 << 20

// Fits reports whether a dense table fits DefaultBudget; states counts the
// positions and sigma the symbols, the phantom # and $ included in both.
// Both terms matter: the table itself is states×sigma entries, but
// construction probes every position pair, so a small-alphabet expression
// with many repeated symbols (tiny table, huge pair count) must fall back
// too — otherwise a ~300 KB "a,a,a,…" model reaching Auto through a
// validator or the server would stall for minutes where the §4 engines
// guarantee linear precomputation. Auto's tier choice, New and the counter
// engine's table all ask this one rule.
func Fits(states, sigma int) bool {
	return states*sigma <= DefaultBudget && states*states <= DefaultBudget
}

// ErrBudget is returned by New for an expression that does not Fit; Auto
// selection treats it as "use the next tier".
var ErrBudget = errors.New("table: expression exceeds the dense-table size budget")

// DFA is the dense-table transition simulator. It implements
// match.TransitionSim, so streams, readers and the generic drivers all run
// on it unchanged; MatchWord is the devirtualized hot loop.
type DFA struct {
	t *parsetree.Tree
	// sigma is the full alphabet size including the phantom # and $ — the
	// two wasted columns keep row indexing a single multiply.
	sigma int32
	// next[state*sigma + a] is the follower's position index, or Dead.
	next []int32
	// accept is a packed bitset over states: bit p set iff $ ∈ Follow(p).
	accept []uint64
	// posIndex/posNode translate at the TransitionSim boundary (NodeID ↔
	// state); the internal loops never leave state space.
	posIndex []int32
	posNode  []parsetree.NodeID
}

// New builds the table in O(positions² + positions×σ) time and
// positions×σ space, or fails with ErrBudget when the expression does not
// Fit. The expression must be deterministic — with a doubly-matchable
// symbol the table would silently keep only the first follower in document
// order — which the public API layer enforces.
func New(t *parsetree.Tree, fol *follow.Index) (*DFA, error) {
	states := t.NumPositions()
	sigma := t.Alpha.Size()
	if !Fits(states, sigma) {
		return nil, fmt.Errorf("%w (%d positions, %d symbols)", ErrBudget, states, sigma)
	}
	d := &DFA{
		t:        t,
		sigma:    int32(sigma),
		next:     make([]int32, states*sigma),
		accept:   make([]uint64, (states+63)/64),
		posIndex: t.PosIndex,
		posNode:  t.PosNode,
	}
	for i := range d.next {
		d.next[i] = Dead
	}
	end := t.EndPos()
	for pi, p := range t.PosNode {
		row := d.next[pi*sigma : (pi+1)*sigma]
		for qi, q := range t.PosNode {
			a := t.Sym[q]
			if a < ast.FirstUser {
				continue // # is never consumed; $ is the accept test below
			}
			// Determinism means at most one a-labeled follower; keep the
			// first in document order (the same tie-break every §4 engine
			// applies), so even a caller that bypasses the determinism
			// check gets a consistent verdict across engines.
			if row[a] == Dead && fol.CheckIfFollow(p, q) {
				row[a] = int32(qi)
			}
		}
		if fol.CheckIfFollow(p, end) {
			d.accept[pi/64] |= 1 << (pi % 64)
		}
	}
	return d, nil
}

// Entries returns the table size in transitions (states × alphabet).
func (d *DFA) Entries() int { return len(d.next) }

// Tree implements match.TransitionSim.
func (d *DFA) Tree() *parsetree.Tree { return d.t }

// Start implements match.TransitionSim.
func (d *DFA) Start() parsetree.NodeID { return d.posNode[0] }

// Next implements match.TransitionSim: one indexed load (plus the NodeID ↔
// state translation the interface contract requires).
//
//dregex:noalloc
func (d *DFA) Next(p parsetree.NodeID, a ast.Symbol) parsetree.NodeID {
	if a < 0 || a >= ast.Symbol(d.sigma) {
		return parsetree.Null
	}
	s := d.next[d.posIndex[p]*d.sigma+int32(a)]
	if s == Dead {
		return parsetree.Null
	}
	return d.posNode[s]
}

// Accept implements match.TransitionSim.
//
//dregex:noalloc
func (d *DFA) Accept(p parsetree.NodeID) bool {
	pi := d.posIndex[p]
	return d.accept[pi/64]&(1<<(pi%64)) != 0
}

// Step advances one state in raw state space: one bounds check and one
// table load. Returns Dead when no follower exists (a Dead input stays
// Dead, so callers may step a dead rule harmlessly).
//
//dregex:noalloc
func (d *DFA) Step(state int32, a ast.Symbol) int32 {
	if state == Dead || a < ast.FirstUser || a >= ast.Symbol(d.sigma) {
		return Dead
	}
	return d.next[state*d.sigma+int32(a)]
}

// AcceptState reports acceptance of a raw state (false for Dead).
//
//dregex:noalloc
func (d *DFA) AcceptState(state int32) bool {
	return state != Dead && d.accept[state/64]&(1<<(state%64)) != 0
}

// MatchWord is the devirtualized hot loop over a word of interned symbols:
// per symbol, one bounds check and one table load, no interface calls and
// no allocation. Symbols outside the user alphabet reject, exactly like
// match.Word.
//
//dregex:noalloc
func (d *DFA) MatchWord(word []ast.Symbol) bool {
	state := int32(0) // position index of the phantom #
	sigma := d.sigma
	nxt := d.next
	for _, a := range word {
		if a < ast.FirstUser || a >= ast.Symbol(sigma) {
			return false
		}
		state = nxt[state*sigma+int32(a)]
		if state == Dead {
			return false
		}
	}
	return d.accept[state/64]&(1<<(state%64)) != 0
}
