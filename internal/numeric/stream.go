// Streaming counter matching. A Stream of a deterministic counted
// expression steps its configuration DFA (dfa.go): a state number, one
// table load per symbol. Otherwise — a nondeterministic expression, or
// configurations past the budget — it holds the set of live run
// configurations, (position, counter vector) pairs, in flat reusable
// buffers, so feeding a symbol performs no allocation once the buffers
// have grown to the expression's configuration width; the set decides
// membership exactly for nondeterministic expressions too (it then tracks
// every live run).
package numeric

import (
	"sort"
	"strconv"

	"dregex/internal/ast"
	"dregex/internal/match/table"
	"dregex/internal/parsetree"
	"dregex/internal/run"
)

// cfgSet is a deduplicated set of configurations stored in flat slices: one
// entry is pos[i] plus the counter vector ctr[off[i]:off[i]+len(chainOf[pos[i]])]
// (counters of the position's open iterations, outermost first).
type cfgSet struct {
	pos []parsetree.NodeID
	off []int32
	ctr []int32
}

//dregex:noalloc
func (s *cfgSet) reset() {
	s.pos = s.pos[:0]
	s.off = s.off[:0]
	s.ctr = s.ctr[:0]
}

func (s *cfgSet) n() int { return len(s.pos) }

// at returns the i-th configuration; the counter slice aliases the arena.
//
//dregex:noalloc
func (s *cfgSet) at(c *Counted, i int) (parsetree.NodeID, []int32) {
	p := s.pos[i]
	o := int(s.off[i])
	return p, s.ctr[o : o+len(c.chainOf[p])]
}

// add appends configuration (q, v) unless an identical one is present.
// v is copied, so callers may reuse its backing buffer.
//
//dregex:noalloc
func (s *cfgSet) add(q parsetree.NodeID, v []int32) {
outer:
	for i, p := range s.pos {
		if p != q {
			continue
		}
		o := int(s.off[i])
		for j, x := range v {
			if s.ctr[o+j] != x {
				continue outer
			}
		}
		return // duplicate
	}
	s.push(q, v)
}

// push appends configuration (q, v), copying v.
//
//dregex:noalloc
func (s *cfgSet) push(q parsetree.NodeID, v []int32) {
	s.pos = append(s.pos, q)
	s.off = append(s.off, int32(len(s.ctr)))
	s.ctr = append(s.ctr, v...)
}

// Stream is an incremental counter matcher: feed symbols one at a time,
// query acceptance at any prefix. It is the counter engine's run.Runner —
// the engine-independent bookkeeping (liveness, length, the opt-in witness
// trace) is the embedded run.Core; this type adds a DFA state or the
// configuration-set state of the §3.3 simulation. The zero value is
// unusable, call NewStream or Init; built for reuse: one Stream per worker
// or stack frame, re-Init (or Reset) per word, with all internal buffers
// retained across words.
type Stream struct {
	run.Core
	c *Counted
	// d is c's configuration DFA (nil: simulate). state is the current
	// state while alive, and the last viable one once dead.
	d     *dfa
	state int32
	// cur is the live configuration set while alive, and the LAST VIABLE
	// set once dead — kept so ExpectedNext can report what could have
	// extended the run at the point of failure.
	cur, nxt cfgSet
	acc      cfgSet  // scratch for the non-destructive Accepts probe
	tmp      []int32 // successor counter vector under construction
}

// Stream implements run.Runner.
var _ run.Runner = (*Stream)(nil)

// NewStream starts a stream on c at the empty prefix.
func NewStream(c *Counted) *Stream {
	s := &Stream{}
	s.Init(c)
	return s
}

// Init (re)binds a stream to a compiled expression and rewinds it to the
// empty prefix, retaining internal buffers — the zero-allocation reuse
// path, matching match.Stream.Init. The first Init on a deterministic
// expression builds its configuration DFA.
func (s *Stream) Init(c *Counted) {
	s.c = c
	s.d = c.automaton()
	if s.d == nil && cap(s.tmp) < c.maxChain {
		s.tmp = make([]int32, c.maxChain)
	}
	s.Reset()
}

// Reset rewinds the stream to the empty prefix.
func (s *Stream) Reset() {
	if s.d != nil {
		s.state = 0
	} else {
		s.cur.reset()
		s.cur.add(s.c.Tree.BeginPos(), nil)
	}
	s.Rewind()
}

// Feed consumes one symbol; it reports whether the prefix read so far is
// still a viable prefix of some word in L(e).
//
//dregex:noalloc
func (s *Stream) Feed(a ast.Symbol) bool {
	if d := s.d; d != nil {
		if !s.Alive() || uint32(a-ast.FirstUser) >= uint32(d.sigma-int32(ast.FirstUser)) {
			s.Kill()
			return false
		}
		next := d.next[s.state*d.sigma+int32(a)]
		if next == table.Dead {
			s.Kill() // state keeps the last viable configuration
			return false
		}
		s.state = next
		s.Advance(d.cfgs.pos[next])
		return true
	}
	if !s.Alive() || a < ast.FirstUser {
		s.Kill()
		return false
	}
	c := s.c
	s.nxt.reset()
	for i := 0; i < s.cur.n(); i++ {
		p, pc := s.cur.at(c, i)
		c.stepAll(p, pc, a, &s.nxt, s.tmp)
	}
	if s.nxt.n() == 0 {
		s.Kill() // cur keeps the last viable configuration set
		return false
	}
	s.cur, s.nxt = s.nxt, s.cur
	// The witness position: for a deterministic expression the live set is
	// a singleton, so the trace is the unique position sequence — exactly
	// the plain engines' witness. A nondeterministic set records Null
	// (no single position consumed the symbol).
	if s.cur.n() == 1 {
		s.Advance(s.cur.pos[0])
	} else {
		s.Advance(parsetree.Null)
	}
	return true
}

// FeedName consumes one symbol by name.
//
//dregex:noalloc
func (s *Stream) FeedName(name string) bool {
	a, ok := run.LookupName(s.c.Alpha, name)
	if !ok {
		s.Kill()
		return false
	}
	return s.Feed(a)
}

// FeedRune consumes one single-rune symbol (math notation), interned via
// Alphabet.LookupRune — no per-rune string allocation.
//
//dregex:noalloc
func (s *Stream) FeedRune(r rune) bool {
	a, ok := run.LookupRune(s.c.Alpha, r)
	if !ok {
		s.Kill()
		return false
	}
	return s.Feed(a)
}

// Accepts reports whether the prefix consumed so far is in L(e). It does
// not consume anything: the probe steps every live configuration to the
// phantom end position in a scratch set.
//
//dregex:noalloc
func (s *Stream) Accepts() bool {
	if !s.Alive() {
		return false
	}
	if d := s.d; d != nil {
		return d.accept[s.state/64]&(1<<(s.state%64)) != 0
	}
	c := s.c
	s.acc.reset()
	for i := 0; i < s.cur.n(); i++ {
		p, pc := s.cur.at(c, i)
		c.stepAll(p, pc, ast.End, &s.acc, s.tmp)
		if s.acc.n() > 0 {
			return true
		}
	}
	return false
}

// Alphabet implements run.Runner.
func (s *Stream) Alphabet() *ast.Alphabet { return s.c.Alpha }

// ExpectedNext implements run.Runner: the symbols with at least one legal
// successor configuration from the last viable set, i.e. exactly the legal
// continuations at (or, once dead, just before) the failure point: the
// live columns of the DFA row, or O(σ) trial steps of the simulation — an
// error-path diagnostic, not a hot path.
func (s *Stream) ExpectedNext(dst []ast.Symbol) []ast.Symbol {
	if d := s.d; d != nil {
		row := d.next[s.state*d.sigma : (s.state+1)*d.sigma]
		for a := ast.FirstUser; int(a) < len(row); a++ {
			if row[a] != table.Dead {
				dst = append(dst, a)
			}
		}
		return dst
	}
	c := s.c
	for a := ast.FirstUser; int(a) < c.Alpha.Size(); a++ {
		s.acc.reset()
		for i := 0; i < s.cur.n() && s.acc.n() == 0; i++ {
			p, pc := s.cur.at(c, i)
			c.stepAll(p, pc, a, &s.acc, s.tmp)
		}
		if s.acc.n() > 0 {
			dst = append(dst, a)
		}
	}
	return dst
}

// appendSteps adds every legal successor configuration of (p, pc) at
// position q into out, deduplicating. A transition is legal when the
// iterations being exited have reached Min, the looped iteration (if any)
// is below Max, and entered iterations start at 1 (Lemma 2.2 generalized
// with counters). Counter values of unbounded iterations are capped at Min
// — the behaviour is constant beyond it — so the configuration space is
// finite. tmp is a caller-provided scratch of at least maxChain entries.
// The configuration DFA (dfa.go) is built from these same steps.
//
//dregex:noalloc
func (c *Counted) appendSteps(p parsetree.NodeID, pc []int32, q parsetree.NodeID, out *cfgSet, tmp []int32) {
	t := c.Tree
	n := c.Fol.LCA.Query(p, q)

	// Concatenation case of Lemma 2.2.
	if t.Op[n] == parsetree.OpCat &&
		t.InFirst(q, t.RChild[n]) && t.InLast(p, t.LChild[n]) {
		c.stepVia(p, pc, q, n, parsetree.Null, out, tmp)
	}
	// Loop case, at every loop ancestor of n (not only the lowest: with
	// counters, different levels have different legality and effects).
	for s := t.PLoop[n]; s != parsetree.Null; s = nextLoopUp(t, s) {
		if t.InFirst(q, s) && t.InLast(p, s) {
			c.stepVia(p, pc, q, n, s, out, tmp)
		}
	}
}

// stepVia applies one structurally-legal candidate transition p→q (pivot
// Null for the concatenation case at n, else the loop node), checking the
// counter legality and emitting the successor configuration into out.
//
//dregex:noalloc
func (c *Counted) stepVia(p parsetree.NodeID, pc []int32, q, n, pivot parsetree.NodeID, out *cfgSet, tmp []int32) {
	t := c.Tree
	pChain := c.chainOf[p]
	qChain := c.chainOf[q]

	//dregex:ok noalloc called directly and never escapes, so it stays on the stack (pinned by TestNumericStreamAllocs)
	counterOf := func(it parsetree.NodeID) int32 {
		for i, x := range pChain {
			if x == it {
				return pc[i]
			}
		}
		return 0
	}
	// exitsLegal: every iteration of p strictly below `limit` must have
	// reached Min (a nullable body can always pad the count).
	//dregex:ok noalloc called directly and never escapes, so it stays on the stack (pinned by TestNumericStreamAllocs)
	exitsLegal := func(limit parsetree.NodeID) bool {
		for i, it := range pChain {
			if t.IsAncestor(limit, it) && it != limit {
				if pc[i] < t.Min[it] && !t.Nullable[t.LChild[it]] {
					return false
				}
			}
		}
		return true
	}

	if pivot == parsetree.Null {
		if !exitsLegal(n) {
			return
		}
	} else {
		if !exitsLegal(pivot) {
			return
		}
		if t.Op[pivot] == parsetree.OpIter {
			if cnt := counterOf(pivot); t.Max[pivot] != parsetree.IterUnbounded && cnt >= t.Max[pivot] {
				return // cannot loop past Max
			}
		}
	}

	// Construct the successor counters for q: counters of iterations above
	// the pivot carry over, the pivot increments, and everything newly
	// entered starts at 1. (For a ∗ pivot no counter changes at the pivot
	// itself — it has no qChain entry.)
	dst := tmp[:len(qChain)]
	for i, it := range qChain {
		switch {
		case it == pivot:
			v := counterOf(it) + 1
			if t.Max[it] != parsetree.IterUnbounded && v > t.Max[it] {
				return // loop beyond Max — illegal, checked here
			}
			if t.Max[it] == parsetree.IterUnbounded && v > t.Min[it] {
				v = t.Min[it] // cap: behaviour is constant beyond Min
			}
			dst[i] = v
		case pivot != parsetree.Null && t.IsAncestor(pivot, it):
			dst[i] = 1 // entered below the loop pivot
		case pivot == parsetree.Null && t.IsAncestor(n, it) && it != n:
			dst[i] = 1 // entered below the concatenation point
		default:
			// Carried over from p (iteration enclosing the pivot)…
			if v := counterOf(it); v > 0 {
				dst[i] = v
			} else {
				dst[i] = 1 // …or entered on a path not shared with p
			}
		}
	}
	out.add(q, dst)
}

// stepAll appends every legal successor configuration of (p, pc) on
// symbol a to out.
//
//dregex:noalloc
func (c *Counted) stepAll(p parsetree.NodeID, pc []int32, a ast.Symbol, out *cfgSet, tmp []int32) {
	if int(a) < len(c.bySym) {
		for _, q := range c.bySym[a] {
			c.appendSteps(p, pc, q, out, tmp)
		}
	}
}

// nextLoopUp returns the next loop node strictly above s.
func nextLoopUp(t *parsetree.Tree, s parsetree.NodeID) parsetree.NodeID {
	if p := t.Parent[s]; p != parsetree.Null {
		return t.PLoop[p]
	}
	return parsetree.Null
}

// Match runs the counter simulation over a whole word. The heavy lifting is
// Stream; hot callers should hold a reusable Stream (via Init) instead, for
// the zero-allocation path.
func (c *Counted) Match(word []ast.Symbol) bool {
	var s Stream
	s.Init(c)
	for _, a := range word {
		if !s.Feed(a) {
			return false
		}
	}
	return s.Accepts()
}

// MatchNames is Match over symbol names.
func (c *Counted) MatchNames(names []string) bool {
	var s Stream
	s.Init(c)
	for _, n := range names {
		if !s.FeedName(n) {
			return false
		}
	}
	return s.Accepts()
}

// SortedConfigs is a test helper: it renders the reachable configurations
// after reading word ("pos,c1,c2,…"), for golden assertions.
func (c *Counted) SortedConfigs(word []ast.Symbol) []string {
	var s Stream
	s.Init(c)
	for _, a := range word {
		if !s.Feed(a) {
			return nil
		}
	}
	return s.sortedConfigs()
}

// sortedConfigs renders the stream's configurations, the DFA state's one
// or the live set, sorted.
func (s *Stream) sortedConfigs() []string {
	set, lo, hi := &s.cur, 0, s.cur.n()
	if s.d != nil {
		set, lo, hi = &s.d.cfgs, int(s.state), int(s.state)+1
	}
	keys := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		p, ctr := set.at(s.c, i)
		k := strconv.Itoa(int(p))
		for _, v := range ctr {
			k += "," + strconv.Itoa(int(v))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
