package dtd

import (
	"errors"
	"fmt"
	"strings"
)

// AttType classifies an attribute type per the XML specification's
// AttType production: StringType (CDATA), the tokenized types, and the
// enumerated types (NOTATION and plain enumerations).
type AttType int

// Attribute types.
const (
	AttCDATA AttType = iota
	AttID
	AttIDREF
	AttIDREFS
	AttEntity
	AttEntities
	AttNmtoken
	AttNmtokens
	AttNotation
	AttEnum
)

func (t AttType) String() string {
	switch t {
	case AttCDATA:
		return "CDATA"
	case AttID:
		return "ID"
	case AttIDREF:
		return "IDREF"
	case AttIDREFS:
		return "IDREFS"
	case AttEntity:
		return "ENTITY"
	case AttEntities:
		return "ENTITIES"
	case AttNmtoken:
		return "NMTOKEN"
	case AttNmtokens:
		return "NMTOKENS"
	case AttNotation:
		return "NOTATION"
	case AttEnum:
		return "enumeration"
	}
	return fmt.Sprintf("AttType(%d)", int(t))
}

// AttDefault classifies an attribute's DefaultDecl.
type AttDefault int

// Default declarations.
const (
	// AttImplied is #IMPLIED: the attribute may be absent.
	AttImplied AttDefault = iota
	// AttRequired is #REQUIRED: the attribute must appear.
	AttRequired
	// AttFixed is #FIXED "v": if present, the value must equal v.
	AttFixed
	// AttDefaultValue is a plain default: "v" with no keyword.
	AttDefaultValue
)

// AttDef is one attribute definition from an <!ATTLIST> declaration.
type AttDef struct {
	Name    string
	Type    AttType
	Default AttDefault
	// Value is the default or #FIXED value (raw literal text; entity
	// references inside it are not expanded).
	Value string
	// Enum lists the tokens of an enumerated or NOTATION type, in
	// declaration order.
	Enum []string

	enum map[string]bool
}

// AttList is the merged attribute list of one element type. Per the XML
// spec, multiple <!ATTLIST> declarations for the same element merge, and
// the first definition of each attribute name is binding.
type AttList struct {
	Element string
	// Defs preserves first-binding declaration order.
	Defs []*AttDef

	byName   map[string]*AttDef
	required []*AttDef
	idAttr   *AttDef
	// refDefaults are IDREF/IDREFS definitions with a default value: when
	// such an attribute is absent, the default still references IDs and
	// must resolve (precomputed so the common no-defaults case costs
	// nothing per element).
	refDefaults []*AttDef
}

// Def returns the definition of the named attribute, or nil.
func (al *AttList) Def(name string) *AttDef { return al.byName[name] }

// defBytes is Def for a name straight out of the tokenizer; the map probe
// does not allocate.
func (al *AttList) defBytes(name []byte) *AttDef { return al.byName[string(name)] }

// errSkipPE marks an attlist body that uses a parameter-entity reference.
// PEs are not expanded (see the package comment), so such a declaration is
// skipped whole rather than misparsed.
var errSkipPE = errors.New("parameter entity reference")

// addAttlist merges one <!ATTLIST> declaration into d.Attlists, enforcing
// the spec's per-definition validity constraints (one ID attribute per
// element, ID defaults, xml:space enumeration, token syntax of defaults).
func (d *DTD) addAttlist(src string, decl Decl) error {
	if decl.Name == "" {
		return posErr(src, decl.Offset, "malformed attribute-list declaration <!ATTLIST>")
	}
	if strings.HasPrefix(decl.Name, "%") {
		return nil // element name hidden behind a PE reference: invisible
	}
	defs, err := parseAttDefs(decl.Body)
	if err == errSkipPE {
		return nil
	}
	if err != nil {
		return posErr(src, decl.Offset, "attlist %s: %s", decl.Name, err)
	}
	al := d.Attlists[decl.Name]
	if al == nil {
		if d.Attlists == nil {
			d.Attlists = map[string]*AttList{}
		}
		al = &AttList{Element: decl.Name, byName: map[string]*AttDef{}}
		d.Attlists[decl.Name] = al
		id := d.schema.Intern(decl.Name)
		if n := int(id) + 1; n > len(d.attlists) {
			d.attlists = append(d.attlists, make([]*AttList, n-len(d.attlists))...)
		}
		d.attlists[id] = al
	}
	for _, def := range defs {
		if _, dup := al.byName[def.Name]; dup {
			continue // first declaration of an attribute name is binding
		}
		if msg := al.checkDef(def); msg != "" {
			return posErr(src, decl.Offset, "attlist %s: %s", decl.Name, msg)
		}
		al.Defs = append(al.Defs, def)
		al.byName[def.Name] = def
		if def.Type == AttID {
			al.idAttr = def
		}
		if def.Default == AttRequired {
			al.required = append(al.required, def)
		}
		if (def.Default == AttFixed || def.Default == AttDefaultValue) &&
			(def.Type == AttIDREF || def.Type == AttIDREFS) {
			al.refDefaults = append(al.refDefaults, def)
		}
	}
	return nil
}

// checkDef enforces the per-definition validity constraints before def
// joins the list; it returns "" when def is admissible.
func (al *AttList) checkDef(def *AttDef) string {
	if def.Type == AttID {
		if al.idAttr != nil {
			return fmt.Sprintf("attribute %s: element already has ID attribute %s (one ID attribute per element type)",
				def.Name, al.idAttr.Name)
		}
		if def.Default == AttFixed || def.Default == AttDefaultValue {
			return fmt.Sprintf("attribute %s: an ID attribute must be #IMPLIED or #REQUIRED", def.Name)
		}
	}
	if def.Name == "xml:space" {
		ok := def.Type == AttEnum && len(def.Enum) > 0
		if ok {
			for _, v := range def.Enum {
				if v != "default" && v != "preserve" {
					ok = false
				}
			}
		}
		if !ok {
			return "attribute xml:space must be an enumeration of default and/or preserve"
		}
	}
	// A declared default must itself satisfy the attribute's type. Values
	// carrying references are left to the document ('&' cannot be seen
	// through without expansion).
	if (def.Default == AttFixed || def.Default == AttDefaultValue) &&
		!strings.ContainsRune(def.Value, '&') {
		if msg := def.checkValue([]byte(def.Value)); msg != "" {
			return fmt.Sprintf("attribute %s: default %s", def.Name, msg)
		}
	}
	return ""
}

// checkValue reports a violation of the definition's type or #FIXED
// constraint by an attribute value from a document, or "" when the value
// conforms. ID uniqueness and IDREF resolution are document-wide and
// handled by the validator, not here.
func (def *AttDef) checkValue(v []byte) string {
	switch def.Type {
	case AttCDATA:
		// any character data
	case AttID, AttIDREF, AttEntity:
		if !validName(attTrim(v)) {
			return fmt.Sprintf("value %q is not a valid XML name", v)
		}
	case AttIDREFS, AttEntities:
		if !eachField(v, validName) {
			return fmt.Sprintf("value %q is not a space-separated list of XML names", v)
		}
	case AttNmtoken:
		if !validNmtoken(attTrim(v)) {
			return fmt.Sprintf("value %q is not a valid name token", v)
		}
	case AttNmtokens:
		if !eachField(v, validNmtoken) {
			return fmt.Sprintf("value %q is not a space-separated list of name tokens", v)
		}
	case AttEnum, AttNotation:
		if !def.enum[string(attTrim(v))] {
			return fmt.Sprintf("value %q not in enumeration (%s)", v, strings.Join(def.Enum, "|"))
		}
	}
	if def.Default == AttFixed && string(v) != def.Value {
		return fmt.Sprintf("value %q does not match #FIXED value %q", v, def.Value)
	}
	return ""
}

// attScan is a cursor over an ATTLIST body (everything after the element
// name). The scanner already guarantees balanced quoting at the
// declaration level.
type attScan struct {
	s string
	i int
}

func (p *attScan) skipSpace() {
	for p.i < len(p.s) && isSpace(p.s[p.i]) {
		p.i++
	}
}

func (p *attScan) eof() bool { return p.i >= len(p.s) }

func (p *attScan) peek() byte {
	if p.eof() {
		return 0
	}
	return p.s[p.i]
}

// word reads a run of token characters (anything but whitespace, quotes
// and the enumeration punctuation). A '%' opening the token is a
// parameter-entity reference and aborts the declaration via errSkipPE.
func (p *attScan) word() (string, error) {
	if p.peek() == '%' {
		return "", errSkipPE
	}
	start := p.i
	for p.i < len(p.s) {
		c := p.s[p.i]
		if isSpace(c) || c == '\'' || c == '"' || c == '(' || c == ')' || c == '|' {
			break
		}
		p.i++
	}
	if p.i == start {
		return "", fmt.Errorf("unexpected %q in attribute definition", p.peek())
	}
	return p.s[start:p.i], nil
}

// quoted reads a 'literal' or "literal".
func (p *attScan) quoted() (string, error) {
	q := p.peek()
	if q != '\'' && q != '"' {
		return "", errors.New("expected quoted value")
	}
	p.i++
	start := p.i
	for p.i < len(p.s) && p.s[p.i] != q {
		p.i++
	}
	if p.eof() {
		return "", fmt.Errorf("unterminated %c literal", q)
	}
	v := p.s[start:p.i]
	p.i++
	return v, nil
}

// enumList reads "(tok | tok | …)". Tokens must be distinct (the spec's
// No Duplicate Tokens validity constraint) and each must satisfy check.
func (p *attScan) enumList(attr string, check func([]byte) bool, kind string) ([]string, map[string]bool, error) {
	if p.peek() != '(' {
		return nil, nil, fmt.Errorf("attribute %s: expected ( to open an enumeration", attr)
	}
	p.i++
	var toks []string
	set := map[string]bool{}
	for {
		p.skipSpace()
		tok, err := p.word()
		if err != nil {
			return nil, nil, err
		}
		if !check([]byte(tok)) {
			return nil, nil, fmt.Errorf("attribute %s: enumeration token %q is not a valid %s", attr, tok, kind)
		}
		if set[tok] {
			return nil, nil, fmt.Errorf("attribute %s: duplicate enumeration token %q", attr, tok)
		}
		set[tok] = true
		toks = append(toks, tok)
		p.skipSpace()
		switch p.peek() {
		case '|':
			p.i++
		case ')':
			p.i++
			return toks, set, nil
		default:
			return nil, nil, fmt.Errorf("attribute %s: malformed enumeration", attr)
		}
	}
}

// parseAttDefs parses the AttDef* tail of an <!ATTLIST element …>
// declaration: name type default, repeated.
func parseAttDefs(body string) ([]*AttDef, error) {
	p := &attScan{s: body}
	var defs []*AttDef
	for {
		p.skipSpace()
		if p.eof() {
			return defs, nil
		}
		name, err := p.word()
		if err != nil {
			return nil, err
		}
		if !validName([]byte(name)) {
			return nil, fmt.Errorf("invalid attribute name %q", name)
		}
		def := &AttDef{Name: name}
		p.skipSpace()
		if p.peek() == '(' {
			def.Type = AttEnum
			def.Enum, def.enum, err = p.enumList(name, validNmtoken, "name token")
			if err != nil {
				return nil, err
			}
		} else {
			kw, err := p.word()
			if err != nil {
				return nil, err
			}
			switch kw {
			case "CDATA":
				def.Type = AttCDATA
			case "ID":
				def.Type = AttID
			case "IDREF":
				def.Type = AttIDREF
			case "IDREFS":
				def.Type = AttIDREFS
			case "ENTITY":
				def.Type = AttEntity
			case "ENTITIES":
				def.Type = AttEntities
			case "NMTOKEN":
				def.Type = AttNmtoken
			case "NMTOKENS":
				def.Type = AttNmtokens
			case "NOTATION":
				def.Type = AttNotation
				p.skipSpace()
				def.Enum, def.enum, err = p.enumList(name, validName, "XML name")
				if err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("attribute %s: unknown type %q", name, kw)
			}
		}
		p.skipSpace()
		switch c := p.peek(); {
		case c == '#':
			kw, err := p.word()
			if err != nil {
				return nil, err
			}
			switch kw {
			case "#REQUIRED":
				def.Default = AttRequired
			case "#IMPLIED":
				def.Default = AttImplied
			case "#FIXED":
				p.skipSpace()
				v, err := p.quoted()
				if err != nil {
					return nil, fmt.Errorf("attribute %s: %s", name, err)
				}
				def.Default = AttFixed
				def.Value = v
			default:
				return nil, fmt.Errorf("attribute %s: unknown default keyword %q", name, kw)
			}
		case c == '\'' || c == '"':
			v, err := p.quoted()
			if err != nil {
				return nil, fmt.Errorf("attribute %s: %s", name, err)
			}
			def.Default = AttDefaultValue
			def.Value = v
		default:
			return nil, fmt.Errorf("attribute %s: missing default declaration", name)
		}
		defs = append(defs, def)
	}
}

// nameChar marks the bytes admissible inside an XML Name or Nmtoken. Like
// the tokenizer, every byte ≥ 0x80 is accepted — multi-byte characters are
// not re-validated against the Unicode name tables (the tokenizer has
// already checked they are legal XML characters).
var nameChar = func() (t [256]bool) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = true
	}
	for c := 'A'; c <= 'Z'; c++ {
		t[c] = true
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	t['.'], t['-'], t['_'], t[':'] = true, true, true, true
	for c := 0x80; c < 256; c++ {
		t[c] = true
	}
	return
}()

// validName reports whether s is an XML Name: a name-start character
// (letter, '_' or ':') followed by name characters.
func validName(s []byte) bool {
	if len(s) == 0 {
		return false
	}
	c := s[0]
	if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' || c >= 0x80) {
		return false
	}
	for _, c := range s[1:] {
		if !nameChar[c] {
			return false
		}
	}
	return true
}

// validNmtoken reports whether s is an XML Nmtoken: one or more name
// characters.
func validNmtoken(s []byte) bool {
	if len(s) == 0 {
		return false
	}
	for _, c := range s {
		if !nameChar[c] {
			return false
		}
	}
	return true
}

// attTrim strips surrounding XML whitespace from an attribute value; the
// result aliases v.
func attTrim(v []byte) []byte {
	lo, hi := 0, len(v)
	for lo < hi && isSpace(v[lo]) {
		lo++
	}
	for hi > lo && isSpace(v[hi-1]) {
		hi--
	}
	return v[lo:hi]
}

// eachField applies check to every whitespace-separated field of v and
// reports whether all passed and at least one field was present.
func eachField(v []byte, check func([]byte) bool) bool {
	n, i := 0, 0
	for i < len(v) {
		for i < len(v) && isSpace(v[i]) {
			i++
		}
		j := i
		for j < len(v) && !isSpace(v[j]) {
			j++
		}
		if j > i {
			if !check(v[i:j]) {
				return false
			}
			n++
		}
		i = j
	}
	return n > 0
}
