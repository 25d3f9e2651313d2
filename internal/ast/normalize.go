package ast

import (
	"errors"
	"fmt"
)

// Normalize enforces the paper's structural requirements (R2) and (R3) by
// language-preserving rewrites:
//
//	(R2)  ((e)*)*  never appears:      Star(Star(x)) → Star(x)
//	(R3)  (e)? only for ε ∉ L(e):      Opt(x) with Nullable(x) → x
//
// (R1), the #…$ wrapping, is applied when the expression is compiled into a
// parse tree (package parsetree), not here. Numeric iterations are left in
// place but their bodies are normalized; additionally the degenerate bounds
// e{1,1} → e, e{0,∞} → e*, and e{0,j} → (e{1,j})? are rewritten, so that
// after Normalize every remaining KIter node has Min ≥ 1 and Max ≥ 2.
//
// Normalize never mutates its argument; it returns a fresh tree (sharing no
// nodes with the input).
func Normalize(e *Node) *Node {
	switch e.Kind {
	case KSym:
		return Sym(e.Sym)
	case KCat:
		return Cat(Normalize(e.L), Normalize(e.R))
	case KUnion:
		return Union(Normalize(e.L), Normalize(e.R))
	case KOpt:
		l := Normalize(e.L)
		if Nullable(l) {
			return l // (R3)
		}
		return Opt(l)
	case KStar:
		l := Normalize(e.L)
		if l.Kind == KStar {
			return l // (R2)
		}
		return Star(l)
	case KIter:
		l := Normalize(e.L)
		min, max := e.Min, e.Max
		if Nullable(l) && min > 0 {
			// ε ∈ L(body) makes every lower bound reachable by padding
			// empty iterations: L(x{i,j}) = L(x{0,j}).
			min = 0
		}
		switch {
		case min == 1 && max == 1:
			return l
		case min == 0 && max == Unbounded:
			if l.Kind == KStar {
				return l
			}
			return Star(l)
		case min == 0 && max == 1:
			if Nullable(l) {
				return l
			}
			return Opt(l)
		case min == 0:
			inner := Iter(l, 1, max)
			if Nullable(l) {
				return inner
			}
			return Opt(inner)
		default:
			return Iter(l, min, max)
		}
	}
	panic("ast.Normalize: bad kind")
}

// ExpansionBudget caps the records AppendNormal may copy while desugaring
// e+ to e·e*. Each copy doubles the body, so nested + doubles the tree per
// level: 22 nested levels already make a 67-byte expression compile to
// 12.6 million nodes. An expression without nested + copies at most its
// own size, so only expressions of more than ExpansionBudget records, or
// with nested +, can reach the budget.
const ExpansionBudget = 1 << 20

// ErrExpansionBudget is returned by AppendNormal once the e+ desugaring
// has copied more than ExpansionBudget records.
var ErrExpansionBudget = errors.New("ast: e+ desugaring exceeds the expansion budget")

// AppendNormal appends to dst the normal form of the postfix records src
// (as AppendParse emits them), filling Nullable and Size: the tree of
// Normalize(DesugarPlus(Normalize(e))), in one pass. Every record is
// rewritten from the already-normal records of its operands, which sit at
// the end of dst — the right operand last, the left one just before it —
// so no stack is needed; nullability is a stored bit, and the copy that
// e+ → e·e* makes is one contiguous run of records. The copies are counted
// against ExpansionBudget.
func AppendNormal(dst, src []Rec) ([]Rec, error) {
	copied := 0
	for _, r := range src {
		top := len(dst) - 1
		switch r.Kind {
		case KSym:
			dst = append(dst, Rec{Kind: KSym, Sym: r.Sym, Size: 1})
			continue
		case KCat, KUnion:
			rt := dst[top]
			lt := dst[top-int(rt.Size)]
			null := lt.Nullable && rt.Nullable
			if r.Kind == KUnion {
				null = lt.Nullable || rt.Nullable
			}
			dst = append(dst, Rec{Kind: r.Kind, Nullable: null, Size: lt.Size + rt.Size + 1})
			continue
		}
		x := dst[top]
		min, max := int32(1), int32(1) // KOpt is x{0,1}, KStar is x{0,∞}
		switch r.Kind {
		case KOpt:
			min = 0
		case KStar:
			min, max = 0, Unbounded
		default:
			min, max = r.Min, r.Max
		}
		if x.Nullable && min > 0 {
			min = 0 // empty iterations pad any lower bound
		}
		switch {
		case min == 1 && max == 1:
		case min == 0 && max == Unbounded:
			if x.Kind != KStar { // (R2)
				dst = append(dst, Rec{Kind: KStar, Nullable: true, Size: x.Size + 1})
			}
		case min == 0 && max == 1:
			if !x.Nullable { // (R3)
				dst = append(dst, Rec{Kind: KOpt, Nullable: true, Size: x.Size + 1})
			}
		case min == 0:
			dst = append(dst, Rec{Kind: KIter, Nullable: x.Nullable, Min: 1, Max: max, Size: x.Size + 1})
			if !x.Nullable {
				dst = append(dst, Rec{Kind: KOpt, Nullable: true, Size: x.Size + 2})
			}
		case min == 1 && max == Unbounded:
			// e+ → e·e*; x is not nullable here, so e* needs no (R2) check.
			if copied += int(x.Size); copied > ExpansionBudget {
				return dst, ErrExpansionBudget
			}
			dst = append(dst, dst[len(dst)-int(x.Size):]...)
			dst = append(dst,
				Rec{Kind: KStar, Nullable: true, Size: x.Size + 1},
				Rec{Kind: KCat, Size: 2*x.Size + 2})
		default:
			dst = append(dst, Rec{Kind: KIter, Nullable: x.Nullable, Min: min, Max: max, Size: x.Size + 1})
		}
	}
	return dst, nil
}

// AppendNodes appends the postfix records of e to dst, filling Nullable
// and Size, without rewriting anything. Bounds outside [0, MaxBound] other
// than Unbounded are an error: they do not fit a record.
func AppendNodes(dst []Rec, e *Node) ([]Rec, error) {
	var err error
	var rec func(n *Node)
	rec = func(n *Node) {
		r := Rec{Kind: n.Kind, Size: 1}
		switch n.Kind {
		case KSym:
			r.Sym = n.Sym
			dst = append(dst, r)
			return
		case KIter:
			if n.Min < 0 || n.Min > MaxBound || (n.Max != Unbounded && (n.Max < 0 || n.Max > MaxBound)) {
				err = fmt.Errorf("ast: iteration bounds {%d,%s} exceed %d", n.Min, boundString(n.Max), MaxBound)
			}
			r.Min, r.Max = int32(n.Min), int32(n.Max)
		}
		rec(n.L)
		l := dst[len(dst)-1]
		r.Size += l.Size
		switch n.Kind {
		case KCat, KUnion:
			rec(n.R)
			rt := dst[len(dst)-1]
			r.Size += rt.Size
			if n.Kind == KCat {
				r.Nullable = l.Nullable && rt.Nullable
			} else {
				r.Nullable = l.Nullable || rt.Nullable
			}
		case KOpt, KStar:
			r.Nullable = true
		case KIter:
			r.Nullable = n.Min == 0 || l.Nullable
		}
		dst = append(dst, r)
	}
	rec(e)
	return dst, err
}

// DesugarPlus rewrites every remaining one-or-more iteration e{1,∞} into the
// plain-operator form e·(e)* (or e* when the body is nullable). This doubles
// the positions of the body, which is exactly the classical desugaring; the
// Glushkov follow relation — and hence determinism — of the two forms
// coincide. Other numeric iterations are left untouched (package numeric
// handles them natively). The input is not mutated.
func DesugarPlus(e *Node) *Node {
	switch e.Kind {
	case KSym:
		return Sym(e.Sym)
	case KCat:
		return Cat(DesugarPlus(e.L), DesugarPlus(e.R))
	case KUnion:
		return Union(DesugarPlus(e.L), DesugarPlus(e.R))
	case KOpt:
		return Opt(DesugarPlus(e.L))
	case KStar:
		return Star(DesugarPlus(e.L))
	case KIter:
		l := DesugarPlus(e.L)
		if e.Min == 1 && e.Max == Unbounded {
			if Nullable(l) {
				return Star(l)
			}
			return Cat(l, Star(Clone(l)))
		}
		return Iter(l, e.Min, e.Max)
	}
	panic("ast.DesugarPlus: bad kind")
}

// ErrUnrollTooLarge is returned by Unroll when the expansion would exceed
// the position budget.
var ErrUnrollTooLarge = errors.New("ast: unrolled expression exceeds position budget")

// Unroll expands every numeric iteration into plain operators using the
// canonical unrolling
//
//	x{i,j} = x·x·…·x (i copies) · ( x ( x ( … )? )? )?   (j−i optional copies)
//	x{i,∞} = x·x·…·x (i copies) · (x)*
//
// This is the language-preserving expansion used as the determinism *spec*
// for numeric occurrence indicators (see package numeric). maxPositions
// bounds the size of the result; ErrUnrollTooLarge is returned when the
// expansion would exceed it.
func Unroll(e *Node, maxPositions int) (*Node, error) {
	budget := maxPositions
	var rec func(n *Node) (*Node, error)
	rec = func(n *Node) (*Node, error) {
		switch n.Kind {
		case KSym:
			budget--
			if budget < 0 {
				return nil, ErrUnrollTooLarge
			}
			return Sym(n.Sym), nil
		case KCat:
			l, err := rec(n.L)
			if err != nil {
				return nil, err
			}
			r, err := rec(n.R)
			if err != nil {
				return nil, err
			}
			return Cat(l, r), nil
		case KUnion:
			l, err := rec(n.L)
			if err != nil {
				return nil, err
			}
			r, err := rec(n.R)
			if err != nil {
				return nil, err
			}
			return Union(l, r), nil
		case KOpt:
			l, err := rec(n.L)
			if err != nil {
				return nil, err
			}
			return Opt(l), nil
		case KStar:
			l, err := rec(n.L)
			if err != nil {
				return nil, err
			}
			return Star(l), nil
		case KIter:
			var parts []*Node
			for i := 0; i < n.Min; i++ {
				c, err := rec(n.L)
				if err != nil {
					return nil, err
				}
				parts = append(parts, c)
			}
			var tail *Node
			if n.Max == Unbounded {
				c, err := rec(n.L)
				if err != nil {
					return nil, err
				}
				tail = Star(c)
			} else if extra := n.Max - n.Min; extra > 0 {
				// Innermost-first nesting of optional copies.
				for i := 0; i < extra; i++ {
					c, err := rec(n.L)
					if err != nil {
						return nil, err
					}
					if tail == nil {
						tail = optIfNeeded(c)
					} else {
						tail = optIfNeeded(Cat(c, tail))
					}
				}
			}
			if tail != nil {
				parts = append(parts, tail)
			}
			if len(parts) == 0 {
				return nil, fmt.Errorf("ast: cannot unroll %s{0,0}", n.L.Kind)
			}
			return CatAll(parts...), nil
		}
		panic("ast.Unroll: bad kind")
	}
	return rec(e)
}

// optIfNeeded wraps e in ? unless it is already nullable (keeping the
// result (R3)-clean).
func optIfNeeded(e *Node) *Node {
	if Nullable(e) {
		return e
	}
	return Opt(e)
}

// ValidatePlain returns an error if e contains operators outside the
// paper's core grammar (i.e. any remaining numeric iteration).
func ValidatePlain(e *Node) error {
	var bad *Node
	Walk(e, func(n *Node) {
		if bad == nil && n.Kind == KIter {
			bad = n
		}
	})
	if bad != nil {
		return fmt.Errorf("ast: numeric iteration {%d,%s} requires the numeric pipeline (dregex.CompileNumeric) or Unroll",
			bad.Min, boundString(bad.Max))
	}
	return nil
}

func boundString(max int) string {
	if max == Unbounded {
		return "∞"
	}
	return fmt.Sprintf("%d", max)
}
