// Package xmltok is a purpose-built streaming XML tokenizer for the
// validation hot path. It tokenizes a document held in a []byte —
// start/end/empty element tags with attributes, character data, CDATA
// sections, comments, processing instructions and directives — without
// allocating in steady state: token names and text are subslices of the
// input (or of a reusable scratch buffer when entity references or \r
// normalization force a rewrite), so a pooled Tokenizer revalidates
// documents with zero per-document garbage.
//
// The token stream deliberately mirrors encoding/xml's Strict decoder on
// well-formed input: the same tag-nesting checks ("element <a> closed by
// </b>", "unexpected EOF" with open elements), the same text semantics
// (\r and \r\n rewritten to \n, "]]>" forbidden in plain character data,
// the five predefined entities plus a caller-supplied internal-entity
// map, decimal/hex character references capped at unicode.MaxRune with
// surrogates encoding as U+FFFD), the same character-range validation,
// and the same directive accumulation (quote-aware, <>-depth-tracked,
// embedded comments replaced by a space). Where encoding/xml consults
// the full Unicode name tables, xmltok accepts a strict superset of
// names (any byte ≥ 0x80 may appear in a name), so a document
// encoding/xml tokenizes is never rejected for its names here; the
// differential fuzz target FuzzXMLTok pins the agreement. One departure
// is deliberate: a reference's replacement text is checked on its own, so
// an entity value that is not valid UTF-8 by itself is rejected even
// where the bytes after the reference complete its last sequence, which
// encoding/xml, checking the joined text, accepts. FuzzXMLTok's entity
// values are all valid UTF-8 and do not reach this case.
//
// Each run of character data, each CDATA section and each attribute
// value is read by one scan, 8 bytes per step: a word without a byte to
// look at (anything but tab, newline and ASCII from space to DEL, or '<',
// '&' and the run's terminator) is skipped whole. A run with no reference
// and no carriage return becomes a zero-copy token. At the first of
// either, the bytes before it go to scratch once; the scan expands the
// reference, range-checking only its replacement text, or turns "\r\n"
// and a lone '\r' into '\n', and goes on, appending clean spans whole.
// Faults are reported where the scan meets them, a fault in a reference's
// replacement text at the reference's '&', but a fault of the whole run
// ("]]>" in text, a value without its closing quote or with a '<', a
// CDATA section without "]]>") comes first. An end tag is first compared
// with the open element's name; only a mismatch or space before '>' goes
// through the name scanner.
//
// Positions are byte-accurate: every token records the byte offset of
// its first character, and Position converts any offset to a 1-based
// line and rune column — multi-byte UTF-8 text does not skew columns,
// and a leading byte-order mark is stripped by Reset so offsets match
// the text an author sees.
package xmltok

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"unicode"
	"unicode/utf8"
)

// Kind identifies a token produced by Next.
type Kind uint8

// Token kinds. Text covers both character data and CDATA sections (one
// token per section, as encoding/xml emits them). A self-closing tag
// yields a StartElement with SelfClosing()==true followed by a synthetic
// EndElement.
const (
	Text Kind = iota
	StartElement
	EndElement
	Comment
	ProcInst
	Directive
)

func (k Kind) String() string {
	switch k {
	case Text:
		return "Text"
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case Comment:
		return "Comment"
	case ProcInst:
		return "ProcInst"
	case Directive:
		return "Directive"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// SyntaxError is a malformed-XML error with a byte-accurate position.
type SyntaxError struct {
	Msg    string
	Line   int // 1-based line
	Col    int // 1-based rune column within the line
	Offset int // byte offset in the (BOM-stripped) input
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// bom is the UTF-8 byte-order mark; Reset strips it so positions are
// relative to the text an author sees.
var bom = []byte("\uFEFF")

// maxKeepScratch caps the scratch buffer retained across Reset, so one
// pathological document cannot pin megabytes behind a pooled Tokenizer.
const maxKeepScratch = 1 << 20

// valRef locates resolved text: a [lo,hi) range in either the input
// (zero-copy) or the scratch buffer (entity-expanded / \r-normalized).
// Ranges index rather than subslice so scratch may grow underneath.
type valRef struct {
	lo, hi  int
	scratch bool
}

// attrSpan is one attribute: name as a range in the input, value as a
// valRef, plus the name's byte offset for error positions.
type attrSpan struct {
	nameLo, nameHi int
	val            valRef
}

// span is a name range in the input (element-stack entries).
type span struct{ lo, hi int }

// Tokenizer scans one document per Reset. The zero value is ready.
// Not safe for concurrent use.
type Tokenizer struct {
	data     []byte
	pos      int
	entities map[string]string

	kind    Kind
	tokOff  int // byte offset of the token's first byte
	name    span
	content valRef
	self    bool
	attrs   []attrSpan
	nattr   int

	scratch []byte
	stack   []span
	pending bool // synthetic EndElement of a self-closing tag is due
	err     error

	// memoized forward position cursor for Position: the line scan
	// reached posOff; colOff (a rune start on or before it) is colRunes
	// runes into its line
	posOff, posLine, lineStart int
	colOff, colRunes           int
}

// Reset binds the tokenizer to a new document, stripping a leading BOM.
// The caller must keep data unmodified while tokenizing; returned names
// and text alias it.
func (t *Tokenizer) Reset(data []byte) {
	t.data = bytes.TrimPrefix(data, bom)
	t.pos = 0
	t.entities = nil
	t.kind = Text
	t.tokOff = 0
	t.name = span{}
	t.content = valRef{}
	t.self = false
	t.nattr = 0
	if cap(t.scratch) > maxKeepScratch {
		t.scratch = nil
	}
	t.scratch = t.scratch[:0]
	t.stack = t.stack[:0]
	t.pending = false
	t.err = nil
	t.posOff, t.posLine, t.lineStart = 0, 1, 0
	t.colOff, t.colRunes = 0, 0
}

// SetEntities installs the internal general entities resolvable in this
// document (on top of the five predefined ones, which cannot be
// overridden — the same precedence as encoding/xml). The map is read,
// never written, and may be shared.
func (t *Tokenizer) SetEntities(ents map[string]string) { t.entities = ents }

// Kind returns the kind of the current token.
func (t *Tokenizer) Kind() Kind { return t.kind }

// Offset returns the byte offset of the current token's first byte (the
// '<' of a tag, the first character of text).
func (t *Tokenizer) Offset() int { return t.tokOff }

// Name returns the full element name (prefix included) of a
// StartElement or EndElement, or the target of a ProcInst. Valid until
// the next call to Next.
//
//dregex:noalloc
func (t *Tokenizer) Name() []byte { return t.data[t.name.lo:t.name.hi] }

// Local returns the local part of the element name: the part after the
// colon when the name has exactly one with both sides nonempty (the
// rule encoding/xml applies), the whole name otherwise.
//
//dregex:noalloc
func (t *Tokenizer) Local() []byte { return localOf(t.Name()) }

// Text returns the current token's content: resolved character data for
// Text, raw bytes for Comment (without <!-- -->), ProcInst (after the
// target, without <? ?>) and Directive (between <! and >, embedded
// comments replaced by a space). Valid until the next call to Next.
//
//dregex:noalloc
func (t *Tokenizer) Text() []byte { return t.bytesOf(t.content) }

// SelfClosing reports whether the current StartElement came from an
// empty-element tag (<a/>); its synthetic EndElement follows.
func (t *Tokenizer) SelfClosing() bool { return t.self }

// AttrCount returns the number of attributes of the current StartElement.
func (t *Tokenizer) AttrCount() int { return t.nattr }

// AttrName returns the full name of attribute i.
//
//dregex:noalloc
func (t *Tokenizer) AttrName(i int) []byte {
	a := &t.attrs[i]
	return t.data[a.nameLo:a.nameHi]
}

// AttrLocal returns the local part of attribute i's name.
//
//dregex:noalloc
func (t *Tokenizer) AttrLocal(i int) []byte { return localOf(t.AttrName(i)) }

// AttrValue returns the resolved value of attribute i (entities
// expanded, \r normalized). Valid until the next call to Next.
//
//dregex:noalloc
func (t *Tokenizer) AttrValue(i int) []byte { return t.bytesOf(t.attrs[i].val) }

// AttrNameOffset returns the byte offset of attribute i's name, for
// error positions.
func (t *Tokenizer) AttrNameOffset(i int) int { return t.attrs[i].nameLo }

// Depth returns the number of currently open elements.
func (t *Tokenizer) Depth() int { return len(t.stack) }

//dregex:noalloc
func (t *Tokenizer) bytesOf(v valRef) []byte {
	if v.scratch {
		return t.scratch[v.lo:v.hi]
	}
	return t.data[v.lo:v.hi]
}

// localOf implements encoding/xml's prefix split: exactly one colon with
// nonempty prefix and suffix selects the suffix; anything else keeps the
// whole name.
//
//dregex:noalloc
func localOf(name []byte) []byte {
	i := bytes.IndexByte(name, ':')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	if bytes.IndexByte(name[i+1:], ':') >= 0 {
		return name
	}
	return name[i+1:]
}

// Position converts a byte offset to a 1-based line and rune column. The
// cursor is memoized forward, columns included, so calls with
// nondecreasing offsets (the order tokens and errors are reported in)
// scan the document once in total, however long its lines are.
func (t *Tokenizer) Position(off int) (line, col int) {
	if off > len(t.data) {
		off = len(t.data)
	}
	if off < 0 {
		off = 0
	}
	if off < t.posOff {
		t.posOff, t.posLine, t.lineStart = 0, 1, 0
	}
	seg := t.data[t.posOff:off]
	if n := bytes.Count(seg, []byte{'\n'}); n > 0 {
		t.posLine += n
		t.lineStart = t.posOff + bytes.LastIndexByte(seg, '\n') + 1
	}
	t.posOff = off
	// Resume the rune count at the column cursor when it is on this line.
	// It only rests on rune starts, which no multi-byte sequence spans, so
	// counts split there add up to the count from the line start.
	from, n := t.lineStart, 0
	if t.lineStart <= t.colOff && t.colOff <= off {
		from, n = t.colOff, t.colRunes
	}
	n += utf8.RuneCount(t.data[from:off])
	if off == len(t.data) || utf8.RuneStart(t.data[off]) {
		t.colOff, t.colRunes = off, n
	}
	return t.posLine, 1 + n
}

//dregex:coldalloc
func (t *Tokenizer) syntaxErr(off int, format string, args ...any) error {
	line, col := t.Position(off)
	err := &SyntaxError{Msg: fmt.Sprintf(format, args...), Line: line, Col: col, Offset: off}
	t.err = err
	return err
}

// nameByte marks bytes that may appear in a name: encoding/xml's ASCII
// name bytes plus every byte ≥ 0x80 (a strict superset of its Unicode
// name tables, checked there after the fact).
var nameByte [256]bool

// textOK marks ASCII bytes that pass through character data untouched:
// tab, newline, and printable ASCII except the bytes that need handling
// ('&' starts a reference, '\r' normalizes; both are excluded).
var textOK [256]bool

func init() {
	for c := 0; c < 256; c++ {
		b := byte(c)
		nameByte[c] = 'A' <= b && b <= 'Z' || 'a' <= b && b <= 'z' ||
			'0' <= b && b <= '9' || b == '_' || b == ':' || b == '.' || b == '-' ||
			b >= 0x80
		textOK[c] = b == '\t' || b == '\n' || (b >= 0x20 && b < 0x80 && b != '&')
	}
}

// isInCharacterRange is the XML 1.0 Char production (§2.2), byte-for-byte
// the check encoding/xml applies to resolved character data.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// Next advances to the next token. It returns io.EOF at a clean end of
// input; any other error is a *SyntaxError (or a sticky earlier error).
//
//dregex:noalloc
func (t *Tokenizer) Next() (Kind, error) {
	if t.err != nil {
		return 0, t.err
	}
	if t.pending {
		// The EndElement half of a self-closing tag: the name span is
		// still the start tag's, the stack still holds it.
		t.pending = false
		t.kind = EndElement
		t.self = false
		t.nattr = 0
		t.stack = t.stack[:len(t.stack)-1]
		return EndElement, nil
	}
	t.self = false
	t.nattr = 0
	t.scratch = t.scratch[:0]
	if t.pos >= len(t.data) {
		if len(t.stack) > 0 {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		t.err = io.EOF
		return 0, io.EOF
	}
	t.tokOff = t.pos
	if t.data[t.pos] != '<' {
		return t.scanText(false)
	}
	t.pos++
	if t.pos >= len(t.data) {
		return 0, t.syntaxErr(t.pos, "unexpected EOF")
	}
	switch t.data[t.pos] {
	case '/':
		t.pos++
		return t.scanEnd()
	case '?':
		t.pos++
		return t.scanProcInst()
	case '!':
		t.pos++
		if t.pos >= len(t.data) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		switch t.data[t.pos] {
		case '-':
			t.pos++
			if t.pos >= len(t.data) {
				return 0, t.syntaxErr(t.pos, "unexpected EOF")
			}
			if t.data[t.pos] != '-' {
				return 0, t.syntaxErr(t.pos, "invalid sequence <!- not part of <!--")
			}
			t.pos++
			return t.scanComment()
		case '[':
			t.pos++
			return t.scanCDATA()
		}
		return t.scanDirective()
	}
	return t.scanStart()
}

//dregex:noalloc
func (t *Tokenizer) skipSpace() {
	d := t.data
	for t.pos < len(d) {
		switch d[t.pos] {
		case ' ', '\t', '\n', '\r':
			t.pos++
		default:
			return
		}
	}
}

// scanName consumes a name at the current position; ok is false when the
// first byte cannot start one (position unchanged).
//
//dregex:noalloc
func (t *Tokenizer) scanName() (sp span, ok bool) {
	d := t.data
	i := t.pos
	for i < len(d) && nameByte[d[i]] {
		i++
	}
	if i == t.pos {
		return span{}, false
	}
	sp = span{t.pos, i}
	t.pos = i
	return sp, true
}

// scanText reads a run of character data at t.pos, or with cdata set the
// body of a CDATA section, whose "<![CDATA[" is just before t.pos.
//
//dregex:noalloc
func (t *Tokenizer) scanText(cdata bool) (Kind, error) {
	v, err := t.scanRun(']', cdata)
	t.kind, t.content = Text, v
	return Text, err
}

// Byte masks of the word-at-a-time scan: lsb holds 1 and msb 0x80 in
// every byte of a word.
const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// runStops returns the high bit of every byte of w (8 input bytes,
// little-endian) that is not tab, newline, or ASCII from space to DEL
// other than '<', '&' and the byte broadcast in term; all other bits are
// clear. Each test adds to a byte's low seven bits, which never carries
// into the next byte, so every byte is judged on its own and the lowest
// set bit marks the first byte the scan must stop at.
//
//dregex:noalloc
func runStops(w, term uint64) uint64 {
	v := w &^ msb
	ok := v + 0x60*lsb                     // v ≥ 0x20
	ok &= (v ^ '<'*lsb) + 0x7f*lsb         // v ≠ '<'
	ok &= (v ^ '&'*lsb) + 0x7f*lsb         // v ≠ '&'
	ok &= (v ^ term) + 0x7f*lsb            // v ≠ term
	ok |= (v + 0x77*lsb) &^ (v + 0x75*lsb) // v is '\t' or '\n'
	return (ok &^ w & msb) ^ msb
}

// skipRun returns the first byte at or after i that runStops flags, or
// where the last whole word of d ends. The scan calls it at each stop; as
// a leaf, its loop keeps its state in registers and needs no bounds checks.
//
//dregex:noalloc
func skipRun(d []byte, i int, tw uint64) int {
	w := d[i:]
	for len(w) >= 8 {
		if m := runStops(binary.LittleEndian.Uint64(w), tw); m != 0 {
			return len(d) - len(w) + bits.TrailingZeros64(m)>>3
		}
		w = w[8:]
	}
	return len(d) - len(w)
}

// scanRun reads the run at t.pos and leaves t.pos past its end: character
// data (term ']') up to '<' or EOF, a CDATA section's body (term ']',
// cdata set) up to "]]>", or an attribute value (term its quote) up to
// the quote. It looks at single bytes only where skipRun stops: it decodes
// and range-checks a non-ASCII rune, checks a ']' for "]]>" and takes '<'
// and '&' literally in CDATA. The run stays in the input until its first
// reference or carriage return; from there it is built in scratch from
// slo on, w is the first byte not yet copied, and w > lo marks the run as
// rewritten.
//
//dregex:noalloc
func (t *Tokenizer) scanRun(term byte, cdata bool) (valRef, error) {
	d := t.data
	lo := t.pos
	value := term != ']'
	tw := uint64(term) * lsb
	i, w, slo := lo, lo, len(t.scratch)
scan:
	for {
		i = skipRun(d, i, tw)
		if i >= len(d) {
			if value || cdata {
				return valRef{}, t.runFault(lo, term, cdata, i, faultRun, 0)
			}
			t.pos = i
			break
		}
		switch b := d[i]; {
		case b == '<':
			if value {
				return valRef{}, t.runFault(lo, term, cdata, i, faultRun, 0)
			}
			if !cdata {
				t.pos = i
				break scan
			}
			i++
		case b == term:
			if value {
				t.pos = i + 1
				break scan
			}
			if i+2 < len(d) && d[i+1] == ']' && d[i+2] == '>' {
				if !cdata {
					return valRef{}, t.runFault(lo, term, cdata, i, faultRun, 0)
				}
				t.pos = i + 3
				break scan
			}
			i++
		case b >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				return valRef{}, t.runFault(lo, term, cdata, i, faultUTF8, 0)
			}
			if !isInCharacterRange(r) {
				return valRef{}, t.runFault(lo, term, cdata, i, faultChar, r)
			}
			i += size
		case textOK[b] || b == '&' && cdata:
			i++
		case b == '&' || b == '\r':
			next, f, r := t.rewrite(w, i)
			if f != faultNone {
				return valRef{}, t.runFault(lo, term, cdata, i, f, r)
			}
			i, w = next, next
		default:
			return valRef{}, t.runFault(lo, term, cdata, i, faultChar, rune(b))
		}
	}
	if w == lo {
		return valRef{lo, i, false}, nil
	}
	t.scratch = append(t.scratch, d[w:i]...)
	return valRef{slo, len(t.scratch), true}, nil
}

// rewrite appends the run's bytes [w,i) to scratch, then what replaces
// the reference or carriage return at i, and returns the position after
// it, or the reference's fault. Replacement text goes in verbatim, as
// encoding/xml inserts it: a '\r' in it stays, and so does a '\n' after
// the ';'.
//
//dregex:noalloc
func (t *Tokenizer) rewrite(w, i int) (next int, f fault, r rune) {
	d := t.data
	s := append(t.scratch, d[w:i]...)
	if d[i] == '\r' {
		t.scratch = append(s, '\n')
		if i+1 < len(d) && d[i+1] == '\n' {
			return i + 2, faultNone, 0
		}
		return i + 1, faultNone, 0
	}
	t.scratch, next, f, r = t.appendReference(s, i)
	return next, f, r
}

// A fault is what the scan found wrong at an offset in a run.
type fault uint8

const (
	faultNone fault = iota
	faultRun        // the run is cut off or broken; runFault finds where
	faultChar       // a character outside the XML Char production
	faultUTF8
	faultRef  // a malformed reference
	faultName // a reference to an undeclared entity
)

// runFault reports fault f at off in the run at lo, or first a fault of
// the whole run wherever it lies, in the order the byte-at-a-time scans
// used: "]]>" in text; a missing closing quote, then '<', in a value; a
// missing "]]>" in CDATA. A faultChar carries its rune in r.
//
//dregex:coldalloc
func (t *Tokenizer) runFault(lo int, term byte, cdata bool, off int, f fault, r rune) error {
	d := t.data
	switch {
	case cdata:
		if bytes.Index(d[lo:], []byte("]]>")) < 0 {
			return t.syntaxErr(len(d), "unexpected EOF in CDATA section")
		}
	case term == ']':
		hi := len(d)
		if k := bytes.IndexByte(d[lo:], '<'); k >= 0 {
			hi = lo + k
		}
		// On raw bytes: a reference breaking up the three hides them, as
		// in encoding/xml, whose byte tracking resets across references.
		if k := bytes.Index(d[lo:hi], []byte("]]>")); k >= 0 {
			return t.syntaxErr(lo+k, "unescaped ]]> not in CDATA section")
		}
	default:
		k := bytes.IndexByte(d[lo:], term)
		if k < 0 {
			return t.syntaxErr(len(d), "unexpected EOF")
		}
		if k := bytes.IndexByte(d[lo:lo+k], '<'); k >= 0 {
			return t.syntaxErr(lo+k, "unescaped < inside quoted string")
		}
	}
	switch f {
	case faultChar:
		return t.syntaxErr(off, "illegal character code %U", r)
	case faultUTF8:
		return t.syntaxErr(off, "invalid UTF-8")
	case faultName:
		j := off + 1
		for j < len(d) && nameByte[d[j]] {
			j++
		}
		return t.syntaxErr(off, "invalid character entity &%s;", d[off+1:j])
	}
	return t.syntaxErr(off, "invalid character entity") // faultRef
}

func (t *Tokenizer) scanCDATA() (Kind, error) {
	d := t.data
	const open = "CDATA["
	for i := 0; i < len(open); i++ {
		if t.pos >= len(d) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		if d[t.pos] != open[i] {
			return 0, t.syntaxErr(t.pos, "invalid <![ sequence")
		}
		t.pos++
	}
	return t.scanText(true)
}

func (t *Tokenizer) scanComment() (Kind, error) {
	d := t.data
	lo := t.pos
	i := bytes.Index(d[lo:], []byte("--"))
	if i < 0 {
		return 0, t.syntaxErr(len(d), "unexpected EOF")
	}
	end := lo + i
	if end+2 >= len(d) {
		return 0, t.syntaxErr(len(d), "unexpected EOF")
	}
	if d[end+2] != '>' {
		return 0, t.syntaxErr(end, `invalid sequence "--" not allowed in comments`)
	}
	t.pos = end + 3
	t.kind = Comment
	t.content = valRef{lo, end, false}
	return Comment, nil
}

func (t *Tokenizer) scanProcInst() (Kind, error) {
	d := t.data
	name, ok := t.scanName()
	if !ok {
		if t.pos >= len(d) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		return 0, t.syntaxErr(t.pos, "expected target name after <?")
	}
	t.skipSpace()
	lo := t.pos
	i := bytes.Index(d[lo:], []byte("?>"))
	if i < 0 {
		return 0, t.syntaxErr(len(d), "unexpected EOF")
	}
	end := lo + i
	t.pos = end + 2
	t.kind = ProcInst
	t.name = name
	t.content = valRef{lo, end, false}
	if string(d[name.lo:name.hi]) == "xml" {
		content := d[lo:end]
		if ver := procInstParam(content, "version"); len(ver) > 0 && string(ver) != "1.0" {
			return 0, t.syntaxErr(t.tokOff, "unsupported version %q; only version 1.0 is supported", ver)
		}
		if enc := procInstParam(content, "encoding"); len(enc) > 0 &&
			!bytes.EqualFold(enc, []byte("utf-8")) {
			return 0, t.syntaxErr(t.tokOff, "unsupported encoding %q; only UTF-8 is supported", enc)
		}
	}
	return ProcInst, nil
}

// procInstParam extracts a pseudo-attribute (version=…, encoding=…) from
// an xml-declaration body, with encoding/xml's exact (lenient) scan.
func procInstParam(s []byte, param string) []byte {
	pat := param + "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, []byte(pat))
		if k < 0 || len(pat)+k >= len(sub) {
			return nil
		}
		i += k + len(pat) + 1
		if c := sub[k+len(pat)]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}

// scanDirective accumulates a <!…> directive with encoding/xml's exact
// algorithm: the first byte after "<!" is taken raw, quoted '<' and '>'
// do not nest, unquoted ones track depth, and an embedded comment is
// replaced by a single space. Content always builds in scratch (a
// directive is at most once per document on the validation path).
func (t *Tokenizer) scanDirective() (Kind, error) {
	d := t.data
	s := t.scratch
	slo := len(s)
	s = append(s, d[t.pos]) // first byte raw, uninspected
	t.pos++
	var inquote byte
	depth := 0
	var b byte
	for {
		if t.pos >= len(d) {
			t.scratch = s
			return 0, t.syntaxErr(len(d), "unexpected EOF")
		}
		b = d[t.pos]
		t.pos++
		if inquote == 0 && b == '>' && depth == 0 {
			break
		}
	handleB:
		s = append(s, b)
		switch {
		case b == inquote && inquote != 0:
			inquote = 0
		case inquote != 0:
			// quoted: no special action
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			// Look for <!-- beginning a comment.
			const cs = "!--"
			for i := 0; i < len(cs); i++ {
				if t.pos >= len(d) {
					t.scratch = s
					return 0, t.syntaxErr(len(d), "unexpected EOF")
				}
				b = d[t.pos]
				t.pos++
				if b != cs[i] {
					s = append(s, cs[:i]...)
					depth++
					goto handleB
				}
			}
			s = s[:len(s)-1] // drop the '<'
			j := bytes.Index(d[t.pos:], []byte("-->"))
			if j < 0 {
				t.scratch = s
				return 0, t.syntaxErr(len(d), "unexpected EOF")
			}
			t.pos += j + 3
			s = append(s, ' ')
		}
	}
	t.scratch = s
	t.kind = Directive
	t.content = valRef{slo, len(s), true}
	return Directive, nil
}

//dregex:noalloc
func (t *Tokenizer) scanStart() (Kind, error) {
	d := t.data
	name, ok := t.scanName()
	if !ok {
		return 0, t.syntaxErr(t.pos, "expected element name after <")
	}
	t.attrs = t.attrs[:0]
	empty := false
	for {
		t.skipSpace()
		if t.pos >= len(d) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		b := d[t.pos]
		if b == '/' {
			t.pos++
			if t.pos >= len(d) {
				return 0, t.syntaxErr(t.pos, "unexpected EOF")
			}
			if d[t.pos] != '>' {
				return 0, t.syntaxErr(t.pos, "expected /> in element")
			}
			t.pos++
			empty = true
			break
		}
		if b == '>' {
			t.pos++
			break
		}
		aname, ok := t.scanName()
		if !ok {
			return 0, t.syntaxErr(t.pos, "expected attribute name in element")
		}
		t.skipSpace()
		if t.pos >= len(d) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		if d[t.pos] != '=' {
			return 0, t.syntaxErr(t.pos, "attribute name without = in element")
		}
		t.pos++
		t.skipSpace()
		if t.pos >= len(d) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		q := d[t.pos]
		if q != '"' && q != '\'' {
			return 0, t.syntaxErr(t.pos, "unquoted or missing attribute value in element")
		}
		t.pos++
		v, err := t.scanRun(q, false)
		if err != nil {
			return 0, err
		}
		t.attrs = append(t.attrs, attrSpan{nameLo: aname.lo, nameHi: aname.hi, val: v})
	}
	t.kind = StartElement
	t.name = name
	t.nattr = len(t.attrs)
	t.self = empty
	t.pending = empty
	t.stack = append(t.stack, name)
	return StartElement, nil
}

//dregex:noalloc
func (t *Tokenizer) scanEnd() (Kind, error) {
	d := t.data
	// Most end tags repeat the open element's name right before '>': one
	// comparison closes them. Any other name, space before '>' or EOF
	// takes the general path below.
	if n := len(t.stack); n > 0 {
		top := t.stack[n-1]
		lo, hi := t.pos, t.pos+top.hi-top.lo
		if hi < len(d) && d[hi] == '>' && bytes.Equal(d[lo:hi], d[top.lo:top.hi]) {
			t.pos = hi + 1
			t.stack = t.stack[:n-1]
			t.kind = EndElement
			t.name = span{lo, hi}
			return EndElement, nil
		}
	}
	name, ok := t.scanName()
	if !ok {
		if t.pos >= len(d) {
			return 0, t.syntaxErr(t.pos, "unexpected EOF")
		}
		return 0, t.syntaxErr(t.pos, "expected element name after </")
	}
	t.skipSpace()
	if t.pos >= len(d) {
		return 0, t.syntaxErr(t.pos, "unexpected EOF")
	}
	if d[t.pos] != '>' {
		return 0, t.syntaxErr(t.pos,
			"invalid characters between </%s and >", d[name.lo:name.hi])
	}
	t.pos++
	if len(t.stack) == 0 {
		return 0, t.syntaxErr(t.tokOff,
			"unexpected end element </%s>", d[name.lo:name.hi])
	}
	top := t.stack[len(t.stack)-1]
	if !bytes.Equal(d[top.lo:top.hi], d[name.lo:name.hi]) {
		return 0, t.syntaxErr(t.tokOff, "element <%s> closed by </%s>",
			d[top.lo:top.hi], d[name.lo:name.hi])
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.kind = EndElement
	t.name = name
	return EndElement, nil
}

// predefined holds the five predefined entities, which SetEntities
// cannot override.
var predefined = map[string]string{"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": `"`}

// appendReference expands the reference starting at i ('&'), appending
// its replacement text to s, and returns the position past the ';'.
// Character references parse in decimal or (with an 'x') hex, cap at
// unicode.MaxRune, and encode surrogates as U+FFFD — the exact outcome of
// encoding/xml's string(rune(n)). Named references try the predefined
// entities first, then the SetEntities map. The scan does not read
// replacement text, so it is range-checked here. A malformed or
// undeclared reference or an illegal replacement returns a fault instead,
// with the illegal rune for faultChar.
func (t *Tokenizer) appendReference(s []byte, i int) ([]byte, int, fault, rune) {
	d := t.data
	j := i + 1
	if j < len(d) && d[j] == '#' {
		j++
		base := uint64(10)
		if j < len(d) && d[j] == 'x' {
			base, j = 16, j+1
		}
		start, n := j, uint64(0)
		for ; j < len(d); j++ {
			v := uint64(d[j] - '0')
			if v > 9 {
				v = uint64(d[j]|0x20-'a') + 10 // past 15 unless a hex letter
			}
			if v >= base {
				break
			}
			n = min(n*base+v, unicode.MaxRune+1) // saturate: invalid either way
		}
		r := rune(n)
		switch {
		case j == start || j >= len(d) || d[j] != ';' || n > unicode.MaxRune:
			return s, 0, faultRef, 0
		case utf8.ValidRune(r) && !isInCharacterRange(r):
			return s, 0, faultChar, r
		}
		return utf8.AppendRune(s, r), j + 1, faultNone, 0
	}
	start := j
	for j < len(d) && nameByte[d[j]] {
		j++
	}
	if j == start || j >= len(d) || d[j] != ';' {
		return s, 0, faultRef, 0
	}
	v, ok := predefined[string(d[start:j])] // zero-alloc map probes
	if !ok {
		v, ok = t.entities[string(d[start:j])]
	}
	if !ok {
		return s, 0, faultName, 0
	}
	for k := 0; k < len(v); {
		r, size := utf8.DecodeRuneInString(v[k:])
		if r == utf8.RuneError && size == 1 {
			return s, 0, faultUTF8, 0
		}
		if !isInCharacterRange(r) {
			return s, 0, faultChar, r
		}
		k += size
	}
	return append(s, v...), j + 1, faultNone, 0
}

// ReadAll drains r into buf (reusing its capacity), for validators that
// stream documents from readers into a pooled buffer. Read errors pass
// through unwrapped so callers can classify them (e.g. a body-size trip).
func ReadAll(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4096)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
