package ast

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// ParseError describes a syntax error with its byte offset in the input.
type ParseError struct {
	Input  string
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("parse %q at offset %d: %s", e.Input, e.Offset, e.Msg)
}

// MaxBound is the largest finite occurrence bound the grammar accepts:
// bounds are stored as int32 in the parse tree, whose largest value,
// Unbounded, stands for ∞.
const MaxBound = Unbounded - 1

// Notation selects one of the two concrete syntaxes of the grammar.
type Notation uint8

// Concrete syntaxes: the paper's mathematical notation and XML-DTD
// content-model notation.
const (
	MathNotation Notation = iota
	DTDNotation
)

// Rec is one node of an expression in postfix order: a node's record
// follows the records of its operands, so every subexpression is a
// contiguous run of records ending at its root. The grammar (AppendParse)
// fills Kind, Sym, Min and Max; AppendNormal and AppendNodes also fill
// Nullable and Size, which the parse-tree builder reads.
type Rec struct {
	Kind     Kind
	Nullable bool   // ε ∈ L(subexpression)
	Sym      Symbol // KSym
	Min, Max int32  // KIter; Max = Unbounded for ∞
	Size     int32  // records in the subexpression, this one included
}

// ParseMath parses the paper's mathematical notation, in which every
// letter or digit is a single-character symbol, juxtaposition denotes
// concatenation, + denotes union, and *, ? and {i,j} are postfix. Examples:
//
//	(ab+b(b?)a)*        (a*ba+bb)*       (a{2,3}+b){2}b
//
// Whitespace is ignored. Symbols are interned into alpha.
func ParseMath(input string, alpha *Alphabet) (*Node, error) {
	return parseNode(input, alpha, MathNotation)
}

// ParseDTD parses XML-DTD content-model notation: multi-character names,
// ',' for concatenation, '|' for union, postfix *, ?, + and the XML-Schema
// style {i,j}. Examples:
//
//	(title, author+, (section | appendix)*)
//	(a | b)*, c?
//
// Whitespace is ignored. Names are interned into alpha. The one-or-more
// postfix e+ is represented as the numeric iteration e{1,∞}; Normalize (or
// DesugarPlus) rewrites it for the plain-operator pipeline.
func ParseDTD(input string, alpha *Alphabet) (*Node, error) {
	return parseNode(input, alpha, DTDNotation)
}

func parseNode(input string, alpha *Alphabet, nt Notation) (*Node, error) {
	recs, err := AppendParse(nil, input, alpha, nt)
	if err != nil {
		return nil, err
	}
	return FromRecs(recs), nil
}

// AppendParse parses input in notation nt and appends its records to dst
// in postfix order. It is the only grammar of the package: ParseMath and
// ParseDTD build their pointer trees from its records, and the compile
// pipeline (parsetree.Parse) normalizes them without building nodes.
// Bounds above MaxBound are syntax errors at the number's offset.
func AppendParse(dst []Rec, input string, alpha *Alphabet, nt Notation) ([]Rec, error) {
	p := parser{input: input, alpha: alpha, math: nt == MathNotation, out: dst}
	err := p.parseTop()
	return p.out, err
}

// FromRecs builds the pointer tree of a postfix record sequence.
func FromRecs(recs []Rec) *Node {
	stack := make([]*Node, 0, 16)
	for _, r := range recs {
		top := len(stack) - 1
		switch r.Kind {
		case KSym:
			stack = append(stack, Sym(r.Sym))
		case KCat, KUnion:
			stack[top-1] = &Node{Kind: r.Kind, L: stack[top-1], R: stack[top]}
			stack = stack[:top]
		case KIter:
			stack[top] = Iter(stack[top], int(r.Min), int(r.Max))
		default:
			stack[top] = &Node{Kind: r.Kind, L: stack[top]}
		}
	}
	return stack[0]
}

type parser struct {
	input string
	pos   int
	alpha *Alphabet
	math  bool
	out   []Rec
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Input: p.input, Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) emit(k Kind) { p.out = append(p.out, Rec{Kind: k}) }

func (p *parser) skipSpace() {
	for p.pos < len(p.input) {
		if c := p.input[p.pos]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				return
			}
			p.pos++
			continue
		}
		r, w := utf8.DecodeRuneInString(p.input[p.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		p.pos += w
	}
}

func (p *parser) peek() rune {
	if p.pos >= len(p.input) {
		return 0
	}
	if c := p.input[p.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(p.input[p.pos:])
	return r
}

func (p *parser) advance() rune {
	if c := p.input[p.pos]; c < utf8.RuneSelf {
		p.pos++
		return rune(c)
	}
	r, w := utf8.DecodeRuneInString(p.input[p.pos:])
	p.pos += w
	return r
}

// asciiSpace and asciiName are unicode.IsSpace and isNameRune on ASCII.
var asciiSpace, asciiName = func() (sp, name [utf8.RuneSelf]bool) {
	for c := rune(0); c < utf8.RuneSelf; c++ {
		sp[c], name[c] = unicode.IsSpace(c), isNameRune(c)
	}
	return sp, name
}()

func (p *parser) parseTop() error {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return p.errf("empty expression")
	}
	if err := p.parseUnion(); err != nil {
		return err
	}
	p.skipSpace()
	if p.pos < len(p.input) {
		return p.errf("unexpected %q", p.peek())
	}
	return nil
}

func (p *parser) unionRune() rune {
	if p.math {
		return '+'
	}
	return '|'
}

func (p *parser) parseUnion() error {
	if err := p.parseCat(); err != nil {
		return err
	}
	for {
		p.skipSpace()
		if p.peek() != p.unionRune() {
			return nil
		}
		p.advance()
		if err := p.parseCat(); err != nil {
			return err
		}
		p.emit(KUnion)
	}
}

func (p *parser) parseCat() error {
	if err := p.parsePostfix(); err != nil {
		return err
	}
	for {
		p.skipSpace()
		if p.math {
			// Juxtaposition: stop at operators and closers.
			switch p.peek() {
			case 0, ')', '+', '|':
				return nil
			}
		} else {
			if p.peek() != ',' {
				return nil
			}
			p.advance()
		}
		if err := p.parsePostfix(); err != nil {
			return err
		}
		p.emit(KCat)
	}
}

func (p *parser) parsePostfix() error {
	if err := p.parseBase(); err != nil {
		return err
	}
	for {
		p.skipSpace()
		switch p.peek() {
		case '*':
			p.advance()
			p.emit(KStar)
		case '?':
			p.advance()
			p.emit(KOpt)
		case '+':
			if p.math {
				return nil // union operator, handled above
			}
			p.advance()
			p.out = append(p.out, Rec{Kind: KIter, Min: 1, Max: Unbounded})
		case '{':
			min, max, err := p.parseBounds()
			if err != nil {
				return err
			}
			p.out = append(p.out, Rec{Kind: KIter, Min: min, Max: max})
		default:
			return nil
		}
	}
}

func (p *parser) parseBounds() (min, max int32, err error) {
	p.advance() // '{'
	p.skipSpace()
	min, err = p.parseInt()
	if err != nil {
		return 0, 0, err
	}
	max = min
	p.skipSpace()
	if p.peek() == ',' {
		p.advance()
		p.skipSpace()
		if p.peek() == '}' {
			max = Unbounded
		} else {
			max, err = p.parseInt()
			if err != nil {
				return 0, 0, err
			}
		}
	}
	p.skipSpace()
	if p.peek() != '}' {
		return 0, 0, p.errf("expected '}' in bounds")
	}
	p.advance()
	if max != Unbounded && max < min {
		return 0, 0, p.errf("bounds {%d,%d}: max < min", min, max)
	}
	if max == 0 {
		return 0, 0, p.errf("bounds {%d,%d}: max must be positive", min, max)
	}
	return min, max, nil
}

// parseInt reads a decimal bound; one above MaxBound is an error at the
// number's first digit.
func (p *parser) parseInt() (int32, error) {
	start := p.pos
	n := int64(0)
	for p.pos < len(p.input) && p.input[p.pos] >= '0' && p.input[p.pos] <= '9' {
		if n <= MaxBound {
			n = 10*n + int64(p.input[p.pos]-'0')
		}
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected number")
	}
	if n > MaxBound {
		return 0, &ParseError{Input: p.input, Offset: start,
			Msg: fmt.Sprintf("bound %s exceeds %d", p.input[start:p.pos], MaxBound)}
	}
	return int32(n), nil
}

func (p *parser) parseBase() error {
	p.skipSpace()
	r := p.peek()
	switch {
	case r == 0:
		return p.errf("unexpected end of expression")
	case r == '(':
		p.advance()
		if err := p.parseUnion(); err != nil {
			return err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return p.errf("expected ')'")
		}
		p.advance()
		return nil
	case r == '#' || r == '$':
		return p.errf("symbol %q is reserved by rule (R1)", r)
	case p.math && (unicode.IsLetter(r) || unicode.IsDigit(r)):
		p.advance()
		p.out = append(p.out, Rec{Kind: KSym, Sym: p.alpha.InternRune(r)})
		return nil
	case !p.math && isNameStart(r):
		start := p.pos
		p.advance()
		for p.pos < len(p.input) {
			if c := p.input[p.pos]; c < utf8.RuneSelf {
				if !asciiName[c] {
					break
				}
				p.pos++
			} else if !isNameRune(p.peek()) {
				break
			} else {
				p.advance()
			}
		}
		name := p.input[start:p.pos]
		if name == "#PCDATA" {
			return p.errf("#PCDATA is only valid in mixed content (handled by package dtd)")
		}
		p.out = append(p.out, Rec{Kind: KSym, Sym: p.alpha.Intern(name)})
		return nil
	default:
		return p.errf("unexpected %q", r)
	}
}

func isNameStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == ':' || r == '#'
}

func isNameRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) ||
		r == '_' || r == ':' || r == '-' || r == '.'
}

// MustParseMath is ParseMath that panics on error; intended for tests and
// examples with literal expressions.
func MustParseMath(input string, alpha *Alphabet) *Node {
	e, err := ParseMath(input, alpha)
	if err != nil {
		panic(err)
	}
	return e
}

// MustParseDTD is ParseDTD that panics on error.
func MustParseDTD(input string, alpha *Alphabet) *Node {
	e, err := ParseDTD(input, alpha)
	if err != nil {
		panic(err)
	}
	return e
}
