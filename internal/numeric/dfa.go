// Configuration DFA: the numeric counterpart of the dense-table tier
// (internal/match/table). A configuration is a position plus the counter
// values of its open iterations. Once §3.3 has found a counted expression
// deterministic, every configuration has at most one successor per symbol,
// so the configurations reachable from # are the states of a DFA. For the
// few, small counters real schemas use that DFA is a table of a few dozen
// rows, and a Feed is one indexed load, like a plain model's on the table
// tier.
//
// The DFA is built lazily, on the first stream Init, by a breadth-first
// search whose every step is the simulation's own appendSteps/stepVia, so
// Max, Min-on-exit and the cap of unbounded counters at Min stay the
// engine's rules, and verdicts, hints and witnesses are the simulation's by
// construction. The search gives up (the stream simulates) when the state
// count stops fitting table.Fits, the plain table's budget rule.
package numeric

import (
	"encoding/binary"
	"slices"

	"dregex/internal/ast"
	"dregex/internal/match/table"
	"dregex/internal/parsetree"
)

// dfa is the configuration DFA of a deterministic counted expression.
// State 0 is (#, no counters).
type dfa struct {
	sigma int32
	// next[s*sigma+a] is the successor state of s on a, or table.Dead.
	next []int32
	// accept is a packed bitset over states: bit s set iff the $ probe
	// succeeds from state s.
	accept []uint64
	// cfgs holds state s's configuration as its s-th entry: cfgs.pos is
	// the state → position array the witness trace records.
	cfgs cfgSet
}

// automaton returns the configuration DFA, building it on first use, or
// nil when the expression is nondeterministic or its configurations do
// not fit the budget (streams then simulate the configuration set).
func (c *Counted) automaton() *dfa {
	c.dfaOnce.Do(func() {
		if !c.noDFA && c.det.Deterministic {
			c.dfa = c.buildDFA()
		}
	})
	return c.dfa
}

// buildDFA searches the configurations reachable from (#, no counters)
// breadth-first, or returns nil as soon as a successor set holds two
// configurations or the state count stops fitting table.Fits.
func (c *Counted) buildDFA() *dfa {
	t := c.Tree
	sigma := t.Alpha.Size()
	// Two cheap lower bounds on the state count skip a search that cannot
	// fit: every position is at least one configuration, and an iteration's
	// counter takes every value up to Max (up to Min when unbounded) at the
	// first positions of its body, so a{1,5000} has 5000 configurations.
	if !table.Fits(t.NumPositions(), sigma) {
		return nil
	}
	for n := parsetree.NodeID(0); n < parsetree.NodeID(t.N()); n++ {
		if t.Op[n] != parsetree.OpIter {
			continue
		}
		b := t.Max[n]
		if b == parsetree.IterUnbounded {
			b = t.Min[n]
		}
		if !table.Fits(int(b), sigma) {
			return nil
		}
	}

	d := &dfa{sigma: int32(sigma)}
	index := map[string]int32{}
	var key []byte
	var out cfgSet
	tmp := make([]int32, c.maxChain)
	d.cfgs.push(t.BeginPos(), nil)
	index[string(configKey(key, t.BeginPos(), nil))] = 0
	for s := 0; s < d.cfgs.n(); s++ {
		p, pc := d.cfgs.at(c, s)
		row := len(d.next)
		for range sigma {
			d.next = append(d.next, table.Dead)
		}
		if s%64 == 0 {
			d.accept = append(d.accept, 0)
		}
		for a := ast.End; int(a) < sigma; a++ {
			out.reset()
			c.stepAll(p, pc, a, &out, tmp)
			if out.n() == 0 {
				continue
			}
			if out.n() > 1 {
				return nil // two live runs: no DFA
			}
			if a == ast.End {
				d.accept[s/64] |= 1 << (s % 64)
				continue
			}
			q, qc := out.at(c, 0)
			key = configKey(key[:0], q, qc)
			next, ok := index[string(key)]
			if !ok {
				next = int32(d.cfgs.n())
				if !table.Fits(int(next)+1, sigma) {
					return nil
				}
				index[string(key)] = next
				d.cfgs.push(q, qc)
			}
			d.next[row+int(a)] = next
		}
	}
	// Keep no growth slack of the search.
	d.next = slices.Clone(d.next)
	d.cfgs.pos, d.cfgs.off, d.cfgs.ctr = slices.Clone(d.cfgs.pos), slices.Clone(d.cfgs.off), slices.Clone(d.cfgs.ctr)
	return d
}

// configKey appends configuration (q, v) to key as the search's index key.
func configKey(key []byte, q parsetree.NodeID, v []int32) []byte {
	key = binary.LittleEndian.AppendUint32(key, uint32(q))
	for _, x := range v {
		key = binary.LittleEndian.AppendUint32(key, uint32(x))
	}
	return key
}
