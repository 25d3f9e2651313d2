package dregex

import (
	"testing"

	"dregex/internal/ast"
	"dregex/internal/wordgen"
)

// TestAutoLadder pins Auto's tiers past TableBudget to the ladder sweep
// (benchtab -exp ladder, in BENCH_20261019.json) on the sweep's own grid:
// starred k-OREs of 2k, 10k and 100k positions, c_e 1, 5 and 9. KORE won
// every cell at every k ≤ koreMaxK; past it a cutoff on k cannot pick
// KORE, and ColoredBinary won the most cells among the engines left.
func TestAutoLadder(t *testing.T) {
	ladder := []struct {
		k    int
		want Algorithm
	}{
		{1, KORE}, {2, KORE}, {3, KORE}, {4, KORE}, {5, KORE},
		{6, ColoredBinary}, {7, ColoredBinary}, {8, ColoredBinary},
	}
	for _, row := range ladder {
		for _, size := range []int{2000, 10000, 100000} {
			for _, ce := range []int{1, 5, 9} {
				st := Stats{Positions: size, Sigma: size / row.k, K: row.k, AlternationDepth: ce, Deterministic: true}
				if got := autoSelect(st); got != row.want {
					t.Errorf("autoSelect(%d positions, k %d, c_e %d) = %v, want %v", size, row.k, ce, got, row.want)
				}
			}
		}
		// The swept models themselves, at the smallest size: their
		// compile-time stats land on the same tier.
		for _, depth := range []int{0, 3, 5} {
			alpha := ast.NewAlphabet()
			e, err := Compile(ast.StringDTD(wordgen.LadderModel(alpha, 2000, row.k, depth), alpha), DTD)
			if err != nil {
				t.Fatal(err)
			}
			if e.AutoAlgorithm() != row.want {
				t.Errorf("ladder model (k %d, prefix depth %d, stats %+v): Auto = %v, want %v",
					row.k, depth, e.Stats(), e.AutoAlgorithm(), row.want)
			}
		}
	}
}
