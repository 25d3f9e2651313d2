// Content-model lowering: rawParticle trees become content-model source
// strings in the grammar dregex already speaks (DTD notation extended with
// {m,n}), compiled under the dedicated dregex.XSD cache key. The lowering
// is canonical — same particle structure, same string — so identical
// models across types and schemas deduplicate in the expression cache.
package xsd

import (
	"strconv"

	"dregex/internal/ast"
)

// lowerer lowers one type's content particle, resolving element
// declarations into t's child table and tracking whether any occurrence
// range needs the counter pipeline. The model is written into one buffer
// from left to right, so lowering is linear in its length however deep
// the particles nest.
type lowerer struct {
	r *resolver
	t *Type
	// numeric is set when some occurrence range falls outside the
	// classical set ({0,1}, {1,1}, {0,∞}, {1,∞}) — those models compile
	// through CompileNumeric; everything else stays on the plain engines.
	numeric bool
	buf     []byte // the model lowered so far
}

// lowKind classifies a lowered particle. The distinction between gone and
// eps matters in choices: a prohibited branch is simply removed from the
// model (XSD 1.0 particle semantics) and must not make a required choice
// optional, while a genuinely ε-language branch does.
type lowKind int

const (
	lowExpr lowKind = iota // the particle's expression was appended
	lowEps                 // particle matches exactly ε (e.g. empty sequence)
	lowGone                // particle prohibited by maxOccurs=0 — removed
)

// lower appends p's expression to lw.buf; for lowEps and lowGone it
// appends nothing.
func (lw *lowerer) lower(p *rawParticle) (lowKind, error) {
	if p.max == 0 {
		return lowGone, nil
	}
	switch p.kind {
	case "element":
		decl, err := lw.r.elementDecl(p, lw.t)
		if err != nil {
			return lowExpr, err
		}
		lw.buf = append(lw.buf, decl.Name...)
		lw.occurs(p.min, p.max)
		return lowExpr, nil
	case "sequence":
		return lw.lowerItems(p, ", ", false)
	case "choice":
		return lw.lowerItems(p, " | ", true)
	case "group":
		body, err := lw.r.group(p.ref, p.line)
		if err != nil {
			return lowExpr, err
		}
		if body.kind == "all" {
			return lowExpr, errAt(p.line, "type %s: group %q is an xs:all group and must be the entire content model",
				lw.t.Name, p.ref)
		}
		lw.r.groupUse = append(lw.r.groupUse, p.ref)
		kind, err := lw.lower(body)
		lw.r.groupUse = lw.r.groupUse[:len(lw.r.groupUse)-1]
		if err != nil || kind != lowExpr {
			return kind, err
		}
		lw.occurs(p.min, p.max)
		return lowExpr, nil
	case "all":
		return lowExpr, errAt(p.line, "type %s: xs:all must be the entire content model", lw.t.Name)
	}
	return lowExpr, errAt(p.line, "type %s: unsupported particle %q", lw.t.Name, p.kind)
}

// lowerItems lowers a sequence or choice. In a choice an ε item cannot be
// written as a branch; it makes the whole group nullable instead (same
// language), so the group gains a '?'. Prohibited items vanish without a
// trace in both group kinds.
func (lw *lowerer) lowerItems(p *rawParticle, sep string, choice bool) (lowKind, error) {
	start := len(lw.buf)
	lw.buf = append(lw.buf, '(')
	parts, nullable := 0, false
	for _, item := range p.items {
		mark := len(lw.buf)
		if parts > 0 {
			lw.buf = append(lw.buf, sep...)
		}
		kind, err := lw.lower(item)
		if err != nil {
			return lowExpr, err
		}
		if kind != lowExpr {
			lw.buf = lw.buf[:mark]
			nullable = nullable || choice && kind == lowEps
			continue
		}
		parts++
	}
	if parts == 0 {
		// Every item was ε or removed: a sequence of nothing is ε, as is
		// a choice with an ε branch (or occurring zero times). A required
		// choice whose branches were all prohibited admits nothing.
		lw.buf = lw.buf[:start]
		if !choice || nullable || p.min == 0 {
			return lowEps, nil
		}
		return lowExpr, errAt(p.line, "type %s: choice with no usable branches", lw.t.Name)
	}
	lw.buf = append(lw.buf, ')')
	if nullable {
		lw.buf = append(lw.buf, '?')
	}
	lw.occurs(p.min, p.max)
	return lowExpr, nil
}

// occurs appends an occurrence range as a postfix operator, routing
// non-classical ranges to the counter pipeline.
func (lw *lowerer) occurs(min, max int) {
	switch {
	case min == 1 && max == 1:
	case min == 0 && max == 1:
		lw.buf = append(lw.buf, '?')
	case min == 0 && max == ast.Unbounded:
		lw.buf = append(lw.buf, '*')
	case min == 1 && max == ast.Unbounded:
		lw.buf = append(lw.buf, '+')
	default:
		lw.numeric = true
		lw.buf = strconv.AppendInt(append(lw.buf, '{'), int64(min), 10)
		lw.buf = append(lw.buf, ',')
		if max != ast.Unbounded {
			lw.buf = strconv.AppendInt(lw.buf, int64(max), 10)
		}
		lw.buf = append(lw.buf, '}')
	}
}
