package main

import (
	"testing"

	"dregex"
)

// cell builds a ladder cell with the given per-symbol times and bytes, in
// ladderEngines order (kore, pathdecomp, colored, colored-binary).
func cell(k, ce int, ns [4]float64, bytes [4]int64) ladderCell {
	return ladderCell{st: dregex.Stats{K: k, AlternationDepth: ce}, ns: ns, bytes: bytes}
}

func TestLadderWinnerNearTie(t *testing.T) {
	bytes := [4]int64{10, 100, 1000, 500}
	// KORE is 8% slower than ColoredBinary: a near-tie, won on bytes.
	if w := cell(5, 1, [4]float64{108, 200, 300, 100}, bytes).winner(0); ladderEngines[w] != dregex.KORE {
		t.Errorf("near-tie winner = %v, want kore", ladderEngines[w])
	}
	// 12% slower is no tie.
	if w := cell(5, 1, [4]float64{112, 200, 300, 100}, bytes).winner(0); ladderEngines[w] != dregex.ColoredBinary {
		t.Errorf("winner = %v, want colored-binary", ladderEngines[w])
	}
	// From PathDecomp on, KORE takes no part.
	if w := cell(5, 1, [4]float64{1, 200, 300, 100}, bytes).winner(1); ladderEngines[w] != dregex.ColoredBinary {
		t.Errorf("winner past kore = %v, want colored-binary", ladderEngines[w])
	}
}

func TestLadderCutoffs(t *testing.T) {
	bytes := [4]int64{10, 100, 1000, 500}
	koreWins := [4]float64{50, 90, 120, 80}
	cbWins := [4]float64{150, 120, 200, 100}
	pdWins := [4]float64{150, 90, 200, 100}
	cells := []ladderCell{
		cell(1, 1, koreWins, bytes), cell(1, 9, koreWins, bytes),
		cell(2, 1, koreWins, bytes), cell(2, 9, koreWins, bytes),
		// KORE loses one cell at k = 3, so K* = 2 although it wins k = 4.
		cell(3, 1, pdWins, bytes), cell(3, 9, koreWins, bytes),
		cell(4, 1, pdWins, bytes), cell(4, 9, cbWins, bytes),
	}
	kStar, ceStar, last := ladderCutoffs(cells)
	if kStar != 2 || ceStar != 1 || last != dregex.ColoredBinary {
		t.Errorf("cutoffs = (K* %d, C* %d, %v), want (2, 1, colored-binary)", kStar, ceStar, last)
	}
	// PathDecomp losing at the shallowest c_e drops it from the ladder.
	cells[4] = cell(3, 1, cbWins, bytes)
	if _, ceStar, _ := ladderCutoffs(cells); ceStar != 0 {
		t.Errorf("C* = %d, want 0 once pathdecomp loses at c_e 1", ceStar)
	}
}
