// Counter-augmented transition table: the numeric counterpart of the
// dense-table fast path (internal/match/table). A counted expression's
// transition legality depends on live counter values, so a plain
// state×symbol table cannot hold the *verdict* — but the structural half
// of every Feed step (the LCA query and the InFirst/InLast checks along
// the loop-ancestor chain of Lemma 2.2) depends only on the (position,
// symbol) pair. This file precomputes exactly that: for every position row
// and symbol, the flat list of structurally-legal candidate transitions
// (q, n, pivot). Feed then replaces per-symbol LCA queries and ancestor
// walks with one span lookup plus the counter checks of stepVia.
//
// The table is built lazily on first use (determinism-checking workloads
// never pay for it) and only while it passes the plain dense table's
// budget rule (table.Fits), so precomputation stays linear for
// pathological sizes exactly like the plain engine ladder.
package numeric

import (
	"dregex/internal/ast"
	"dregex/internal/match/table"
	"dregex/internal/parsetree"
)

// transEntry is one structurally-legal candidate transition p→q: n is
// LCA(p, q); pivot is parsetree.Null for the concatenation case at n, or
// the loop node for the loop case. Counter legality is checked per step by
// stepVia.
type transEntry struct {
	q, n, pivot parsetree.NodeID
}

// transTable groups the candidate transitions by (position row, symbol):
// the candidates of (p, a) are entries[spans[row*sigma+a]:spans[row*sigma+a+1]]
// with row = Tree.PosIndex[p].
type transTable struct {
	sigma   int32
	spans   []int32
	entries []transEntry
}

// table returns the counter-augmented transition table, building it on
// first use, or nil when the expression exceeds the budget (the caller
// falls back to appendSteps' on-the-fly enumeration).
func (c *Counted) table() *transTable {
	c.tabOnce.Do(func() {
		if !c.noTable {
			c.tab = c.buildTable()
		}
	})
	return c.tab
}

// buildTable materializes the structural candidates for every (position,
// symbol) pair, or returns nil when the rows do not table.Fits.
// Construction enumerates every position pair once — O(positions² ·
// chain) — the cost table.Fits bounds for the plain dense table too: a
// long small-alphabet counted model would otherwise stall the first Feed
// (and, through tabOnce, every concurrent stream) for minutes. The entry
// arena is capped at the same budget, so memory stays bounded even under
// deep loop nesting.
func (c *Counted) buildTable() *transTable {
	t := c.Tree
	rows := t.NumPositions()
	sigma := t.Alpha.Size()
	if !table.Fits(rows, sigma) {
		return nil
	}
	tab := &transTable{
		sigma: int32(sigma),
		spans: make([]int32, rows*sigma+1),
	}
	for ri, p := range t.PosNode {
		if len(tab.entries) > table.DefaultBudget {
			return nil // entry arena past the budget — fall back
		}
		for a := 0; a < sigma; a++ {
			tab.spans[ri*sigma+a] = int32(len(tab.entries))
			// bySym already lists positions per symbol in position order,
			// the phantom $ included (for the Accepts probe) and # never a
			// target — the same candidate order the appendSteps fallback
			// walks, which the differential tests rely on.
			for _, q := range c.bySym[a] {
				n := c.Fol.LCA.Query(p, q)
				if t.Op[n] == parsetree.OpCat &&
					t.InFirst(q, t.RChild[n]) && t.InLast(p, t.LChild[n]) {
					tab.entries = append(tab.entries, transEntry{q: q, n: n, pivot: parsetree.Null})
				}
				for s := t.PLoop[n]; s != parsetree.Null; s = nextLoopUp(t, s) {
					if t.InFirst(q, s) && t.InLast(p, s) {
						tab.entries = append(tab.entries, transEntry{q: q, n: n, pivot: s})
					}
				}
			}
		}
	}
	tab.spans[rows*sigma] = int32(len(tab.entries))
	return tab
}

// stepAll applies every candidate transition of (p, a) — from the table
// when available, enumerated on the fly otherwise — appending the legal
// successor configurations to out.
//
//dregex:noalloc
func (c *Counted) stepAll(p parsetree.NodeID, pc []int32, a ast.Symbol, out *cfgSet, tmp []int32) {
	if tab := c.table(); tab != nil {
		if a < 0 || a >= ast.Symbol(tab.sigma) {
			return
		}
		base := int(c.Tree.PosIndex[p])*int(tab.sigma) + int(a)
		for _, e := range tab.entries[tab.spans[base]:tab.spans[base+1]] {
			c.stepVia(p, pc, e.q, e.n, e.pivot, out, tmp)
		}
		return
	}
	if int(a) < len(c.bySym) {
		for _, q := range c.bySym[a] {
			c.appendSteps(p, pc, q, out, tmp)
		}
	}
}
