// Declaration scanner: the tokenizer under Parse. It walks DTD text
// declaration by declaration the way an XML processor does — tracking
// quoted literals, comments, processing instructions and conditional
// sections structurally — so a '>' or '<!' inside an attribute default or
// entity value can never terminate or fabricate a declaration, and an
// IGNORE'd section is skipped by bracket matching, not by luck of the
// first '>'.
package dtd

import (
	"fmt"
	"strings"
)

// DeclKind classifies a markup declaration recognized by the scanner.
type DeclKind int

// Markup declaration kinds.
const (
	// DeclElement is <!ELEMENT name model>.
	DeclElement DeclKind = iota
	// DeclAttlist is <!ATTLIST name attdefs>.
	DeclAttlist
	// DeclEntity is <!ENTITY name value> (or a parameter entity).
	DeclEntity
	// DeclNotation is <!NOTATION name id>.
	DeclNotation
	// DeclOther is any other <!KEYWORD …> declaration; Parse skips these.
	DeclOther
)

func (k DeclKind) String() string {
	switch k {
	case DeclElement:
		return "ELEMENT"
	case DeclAttlist:
		return "ATTLIST"
	case DeclEntity:
		return "ENTITY"
	case DeclNotation:
		return "NOTATION"
	case DeclOther:
		return "OTHER"
	}
	return fmt.Sprintf("DeclKind(%d)", int(k))
}

// Decl is one markup declaration as tokenized from DTD text.
type Decl struct {
	Kind DeclKind
	// Name is the declared name: the first token after the keyword ("%x"
	// for a parameter entity); empty when the declaration has no body.
	Name string
	// Body is the declaration text after the name, trimmed.
	Body string
	// Offset is the byte offset of the declaration's "<!" in the scanned
	// text (see LineCol for human-readable positions).
	Offset int
}

// ScanDecls tokenizes DTD text (an external or internal subset) into
// markup declarations. Quoted literals ('…' or "…"), comments, processing
// instructions and <![INCLUDE[…]]> / <![IGNORE[…]]> conditional sections
// (including nested ones) are handled structurally. INCLUDE contents are
// scanned as if written at top level; IGNORE contents are skipped whole.
// Parameter entities are not expanded: a PE keyword in a conditional
// section ("<![%draft;[") is an error, and PE references elsewhere pass
// through as ordinary text.
func ScanDecls(src string) ([]Decl, error) {
	src = StripBOM(src)
	var decls []Decl
	err := scanDecls(src, func(d Decl) error {
		decls = append(decls, d)
		return nil
	})
	return decls, err
}

// bom is the UTF-8 byte-order mark. Real-world DTD and XML files commonly
// start with one; the scanner must not count its bytes as column positions
// (a declaration at the start of a BOM-prefixed file is at 1:1, not 1:4),
// and byte-level prolog scans must not let it hide "<?xml" or "<!DOCTYPE".
const bom = "\uFEFF"

// StripBOM removes a leading UTF-8 byte-order mark, so declaration offsets
// (and the LineCol positions derived from them) are relative to the text an
// author sees. Parse and ScanDecls apply it internally; callers that keep
// their own copy of the source for position reporting (dtdlint's line
// cursor) must strip it too, or every offset after the BOM lands three
// bytes early in their copy.
func StripBOM(src string) string {
	return strings.TrimPrefix(src, bom)
}

// scanDecls is the streaming core of ScanDecls: emit is called once per
// declaration, in document order, and may stop the scan by returning an
// error.
func scanDecls(src string, emit func(Decl) error) error {
	pos := 0
	// includeStack holds the offsets of open <![INCLUDE[ sections so an
	// unterminated one is reported where it started.
	var includeStack []int
	for pos < len(src) {
		rest := src[pos:]
		switch {
		case len(includeStack) > 0 && strings.HasPrefix(rest, "]]>"):
			includeStack = includeStack[:len(includeStack)-1]
			pos += 3
		case strings.HasPrefix(rest, "<!--"):
			end := strings.Index(rest[4:], "-->")
			if end < 0 {
				return posErr(src, pos, "unterminated comment")
			}
			pos += 4 + end + 3
		case strings.HasPrefix(rest, "<?"):
			end := strings.Index(rest[2:], "?>")
			if end < 0 {
				return posErr(src, pos, "unterminated processing instruction")
			}
			pos += 2 + end + 2
		case strings.HasPrefix(rest, "<!["):
			next, include, err := scanConditional(src, pos)
			if err != nil {
				return err
			}
			if include {
				includeStack = append(includeStack, pos)
			}
			pos = next
		case strings.HasPrefix(rest, "<!"):
			d, next, err := scanMarkupDecl(src, pos)
			if err != nil {
				return err
			}
			pos = next
			if err := emit(d); err != nil {
				return err
			}
		default:
			// Stray text between declarations (whitespace, PE references,
			// junk) is skipped byte by byte, as the old front end did.
			pos++
		}
	}
	if len(includeStack) > 0 {
		return posErr(src, includeStack[len(includeStack)-1], "unterminated INCLUDE section")
	}
	return nil
}

// scanConditional handles "<![KEYWORD[": for INCLUDE it returns the offset
// just past the opening '[' (contents are scanned by the caller until the
// matching "]]>"); for IGNORE it skips the whole section — tracking nested
// "<![" / "]]>" pairs as the XML spec requires — and returns the offset
// past its "]]>".
func scanConditional(src string, start int) (next int, include bool, err error) {
	i := start + len("<![")
	for i < len(src) && isSpace(src[i]) {
		i++
	}
	kw := i
	for i < len(src) && src[i] != '[' && !isSpace(src[i]) {
		i++
	}
	keyword := src[kw:i]
	for i < len(src) && isSpace(src[i]) {
		i++
	}
	if i >= len(src) || src[i] != '[' {
		return 0, false, posErr(src, start, "malformed conditional section <![%s", keyword)
	}
	i++ // past '['
	switch {
	case keyword == "INCLUDE":
		return i, true, nil
	case keyword == "IGNORE":
		depth := 1
		for i < len(src) {
			switch {
			case strings.HasPrefix(src[i:], "<!["):
				depth++
				i += 3
			case strings.HasPrefix(src[i:], "]]>"):
				depth--
				i += 3
				if depth == 0 {
					return i, false, nil
				}
			default:
				i++
			}
		}
		return 0, false, posErr(src, start, "unterminated IGNORE section")
	case strings.HasPrefix(keyword, "%"):
		return 0, false, posErr(src, start,
			"conditional section keyword %s: parameter entities are not expanded", keyword)
	default:
		return 0, false, posErr(src, start, "unknown conditional section keyword %q", keyword)
	}
}

// scanMarkupDecl tokenizes one "<!KEYWORD …>" declaration starting at
// start, honoring quoted literals: a '>' inside '…' or "…" (an attribute
// default, an entity value) does not terminate the declaration, and a '<'
// outside a literal is malformed rather than silently swallowed.
func scanMarkupDecl(src string, start int) (Decl, int, error) {
	i := start + len("<!")
	kw := i
	for i < len(src) && src[i] >= 'A' && src[i] <= 'Z' {
		i++
	}
	keyword := src[kw:i]
	var kind DeclKind
	switch keyword {
	case "ELEMENT":
		kind = DeclElement
	case "ATTLIST":
		kind = DeclAttlist
	case "ENTITY":
		kind = DeclEntity
	case "NOTATION":
		kind = DeclNotation
	default:
		kind = DeclOther
	}
	bodyStart := i
	for i < len(src) {
		switch c := src[i]; c {
		case '\'', '"':
			q := i
			i++
			for i < len(src) && src[i] != c {
				i++
			}
			if i >= len(src) {
				return Decl{}, 0, posErr(src, q, "unterminated %c literal in <!%s", c, keyword)
			}
			i++ // closing quote
		case '>':
			d := Decl{Kind: kind, Offset: start}
			d.Name, d.Body = splitName(src[bodyStart:i])
			return d, i + 1, nil
		case '<':
			return Decl{}, 0, posErr(src, i, "'<' inside <!%s declaration (missing '>'?)", keyword)
		default:
			i++
		}
	}
	return Decl{}, 0, posErr(src, start, "unterminated <!%s declaration", keyword)
}

// splitName splits a declaration body into its declared name and the rest.
// The name ends at whitespace or at '(' (so "<!ELEMENT a(b)>" still names
// a); a leading '%' joins the following token, naming a parameter entity.
func splitName(body string) (name, rest string) {
	body = strings.TrimSpace(body)
	if strings.HasPrefix(body, "%") {
		pe, r := splitName(body[1:])
		return "%" + pe, r
	}
	i := 0
	for i < len(body) && !isSpace(body[i]) && body[i] != '(' {
		i++
	}
	return body[:i], strings.TrimSpace(body[i:])
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// LineCol converts a byte offset in src (e.g. Decl.Offset) to a 1-based
// line and column.
func LineCol(src string, off int) (line, col int) {
	if off > len(src) {
		off = len(src)
	}
	line = 1 + strings.Count(src[:off], "\n")
	col = off - strings.LastIndexByte(src[:off], '\n')
	return line, col
}

// posErr formats a scan/parse error with a precise line:column position.
func posErr(src string, off int, format string, args ...any) error {
	line, col := LineCol(src, off)
	return fmt.Errorf("dtd: %d:%d: %s", line, col, fmt.Sprintf(format, args...))
}
