package dregex

import (
	"errors"
	"reflect"
	"testing"

	"dregex/internal/ast"
	"dregex/internal/determinism"
	"dregex/internal/follow"
	"dregex/internal/glushkov"
	"dregex/internal/parsetree"
)

// FuzzCompile checks the flat front end (grammar records → normal form →
// tree arrays) against the pointer-AST reference path for arbitrary input
// in both syntaxes:
//
//	ast.ParseX → ast.Normalize(ast.DesugarPlus(ast.Normalize(·))) →
//	parsetree.Build / BuildNumeric
//
// Compile and CompileNumeric must agree with it on success or failure, on
// every Tree array and on Stats (from ast.MaxOccurrence, AlternationDepth
// and HasStar). Up to 40 positions, the linear verdict must match the
// Brüggemann-Klein baseline, which does not use the skeleta. Compile
// decides an expression with k ≤ 1 by its occurrence count alone; at any
// size, the linear test it skips must give the same verdict. Every
// deterministic expression must build its Matcher(Auto) engine: the
// schema front ends rely on it. Sources run up to 2 KiB, long enough to
// nest groups past ast.MaxNesting, which both sides reject with
// ErrNesting.
func FuzzCompile(f *testing.F) {
	f.Add("(ab+b(b?)a)*", false)
	f.Add("(title, author+, (section | appendix)*)", true)
	f.Fuzz(func(t *testing.T, src string, dtd bool) {
		if len(src) > 2048 {
			return
		}
		syntax := Math
		if dtd {
			syntax = DTD
		}
		checkCompile(t, src, syntax)
	})
}

func checkCompile(t *testing.T, src string, syntax Syntax) {
	e, err := Compile(src, syntax)
	ne, nerr := CompileNumeric(src, syntax)
	if err == nil && e.Stats().K <= 1 {
		r := determinism.Check(e.tree, follow.New(e.tree))
		if r.Deterministic != e.IsDeterministic() || r.Rule != e.Rule() {
			t.Fatalf("%q: k=%d decided deterministic=%v, linear test says %s", src, e.Stats().K, e.IsDeterministic(), r)
		}
	}

	alpha := ast.NewAlphabet()
	var root *ast.Node
	var perr error
	if syntax == Math {
		root, perr = ast.ParseMath(src, alpha)
	} else {
		root, perr = ast.ParseDTD(src, alpha)
	}
	if perr != nil {
		for _, got := range []error{err, nerr} {
			if errors.Is(perr, ast.ErrNesting) {
				if !errors.Is(got, ErrNesting) || got.Error() != perr.Error() {
					t.Fatalf("%q: error %v, reference %v", src, got, perr)
				}
				continue
			}
			var pe *ast.ParseError
			if !errors.As(got, &pe) || pe.Error() != perr.Error() {
				t.Fatalf("%q: error %v, reference %v", src, got, perr)
			}
		}
		return
	}
	norm := ast.Normalize(root)
	copies, size := plusCopies(norm)
	if copies > ast.ExpansionBudget {
		if !errors.Is(err, ErrExpansionBudget) || !errors.Is(nerr, ErrExpansionBudget) {
			t.Fatalf("%q copies %d nodes: errors %v, %v, want ErrExpansionBudget", src, copies, err, nerr)
		}
		return
	}
	if size > 1<<16 {
		return // within the budget, but too slow for the pointer reference
	}
	ref := ast.Normalize(ast.DesugarPlus(norm))

	refTree, rerr := parsetree.BuildNumeric(ref, alpha)
	if (rerr == nil) != (nerr == nil) {
		t.Fatalf("%q: CompileNumeric error %v, reference %v", src, nerr, rerr)
	}
	if rerr == nil {
		sameTree(t, src, ne.c.Tree, refTree)
	}

	if ast.ValidatePlain(ref) != nil {
		if !errors.Is(err, ErrNumericIndicator) {
			t.Fatalf("%q: Compile error %v, want ErrNumericIndicator", src, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%q: Compile: %v", src, err)
	}
	sameTree(t, src, e.tree, refTree)
	want := Stats{
		Size:             refTree.N(),
		Positions:        refTree.NumPositions() - 2,
		Sigma:            alpha.UserSize(),
		K:                ast.MaxOccurrence(ref),
		AlternationDepth: ast.AlternationDepth(ref),
		StarFree:         !ast.HasStar(ref),
		Deterministic:    e.IsDeterministic(),
	}
	for _, d := range refTree.Depth {
		want.Depth = max(want.Depth, int(d))
	}
	if e.Stats() != want {
		t.Fatalf("%q: Stats %+v, reference %+v", src, e.Stats(), want)
	}
	if e.IsDeterministic() {
		if _, err := e.Matcher(Auto); err != nil {
			t.Fatalf("%q: Matcher(Auto) on a deterministic expression: %v", src, err)
		}
	}
	if want.Positions <= 40 {
		if bk := glushkov.CheckBK(e.tree) == nil; bk != e.IsDeterministic() {
			t.Fatalf("%q: deterministic = %v (%s), Brüggemann-Klein says %v", src, e.IsDeterministic(), e.Rule(), bk)
		}
	}
}

// plusCopies returns the nodes DesugarPlus copies on a normalized tree
// and the size of its result, both saturating at 2^40.
func plusCopies(n *ast.Node) (copies, size int) {
	const limit = 1 << 40
	if n == nil {
		return 0, 0
	}
	lc, ls := plusCopies(n.L)
	rc, rs := plusCopies(n.R)
	copies, size = min(lc+rc, limit), min(ls+rs+1, limit)
	if n.Kind == ast.KIter && n.Min == 1 && n.Max == ast.Unbounded {
		copies, size = min(copies+ls, limit), min(2*ls+2, limit)
	}
	return copies, size
}

// sameTree compares every array of two trees and their alphabets.
func sameTree(t *testing.T, src string, got, want *parsetree.Tree) {
	t.Helper()
	if !reflect.DeepEqual(got.Alpha.Names(), want.Alpha.Names()) {
		t.Fatalf("%q: alphabet %v, reference %v", src, got.Alpha.Names(), want.Alpha.Names())
	}
	gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := 0; i < gv.NumField(); i++ {
		if name := gv.Type().Field(i).Name; name != "Alpha" &&
			!reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Fatalf("%q: Tree.%s = %v, reference %v", src, name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
}
