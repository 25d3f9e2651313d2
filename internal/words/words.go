// Package words samples input words for tests and benchmarks: positive
// words drawn from L(e) by random walks over the follow relation, uniform
// noise words, and near-miss mutations of accepted words.
package words

import (
	"math/rand"

	"dregex/internal/ast"
	"dregex/internal/follow"
	"dregex/internal/parsetree"
)

// RandomWord samples a word from L(e) by a random walk over the follow
// relation: start at #, repeatedly pick a uniformly random follower, and
// stop at $ with probability stopBias once stopping is possible. maxLen
// bounds the length; if the walk cannot reach $ within the budget it is
// retried a few times and may return ok=false for pathological expressions.
func RandomWord(r *rand.Rand, fol *follow.Index, maxLen int, stopBias float64) ([]ast.Symbol, bool) {
	t := fol.T
	end := t.EndPos()
	for attempt := 0; attempt < 8; attempt++ {
		var word []ast.Symbol
		p := t.BeginPos()
		ok := false
		// Past maxLen the walk stops at the first opportunity; the hard
		// cutoff at 2·maxLen+64 guards against languages whose accepting
		// positions are sparse.
		for len(word) <= 2*maxLen+64 {
			canStop := fol.CheckIfFollow(p, end)
			if canStop && (r.Float64() < stopBias || len(word) >= maxLen) {
				ok = true
				break
			}
			// Collect followers (excluding $).
			var succ []parsetree.NodeID
			for _, q := range t.PosNode[1 : t.NumPositions()-1] {
				if fol.CheckIfFollow(p, q) {
					succ = append(succ, q)
				}
			}
			if len(succ) == 0 {
				if canStop {
					ok = true
				}
				break
			}
			q := succ[r.Intn(len(succ))]
			word = append(word, t.Sym[q])
			p = q
		}
		if ok {
			return word, true
		}
	}
	return nil, false
}

// NoiseWord returns a uniformly random word over the user symbols actually
// occurring in t, of the given length. Most noise words are rejected by the
// expression, exercising the failure paths.
func NoiseWord(r *rand.Rand, t *parsetree.Tree, length int) []ast.Symbol {
	var syms []ast.Symbol
	seen := map[ast.Symbol]bool{}
	for i := 1; i < t.NumPositions()-1; i++ {
		s := t.Sym[t.PosNode[i]]
		if !seen[s] {
			seen[s] = true
			syms = append(syms, s)
		}
	}
	if len(syms) == 0 {
		return nil
	}
	w := make([]ast.Symbol, length)
	for i := range w {
		w[i] = syms[r.Intn(len(syms))]
	}
	return w
}

// Mutate flips, inserts or deletes a few symbols of word, producing
// near-miss inputs.
func Mutate(r *rand.Rand, t *parsetree.Tree, word []ast.Symbol, edits int) []ast.Symbol {
	out := append([]ast.Symbol(nil), word...)
	for e := 0; e < edits; e++ {
		if len(out) == 0 {
			noise := NoiseWord(r, t, 1)
			out = append(out, noise...)
			continue
		}
		i := r.Intn(len(out))
		switch r.Intn(3) {
		case 0: // substitute
			n := NoiseWord(r, t, 1)
			if len(n) > 0 {
				out[i] = n[0]
			}
		case 1: // delete
			out = append(out[:i], out[i+1:]...)
		default: // duplicate
			out = append(out[:i+1], out[i:]...)
		}
	}
	return out
}
