// Raw schema-document decoding. This file turns an XML Schema document
// into a particle tree (rawSchema / rawType / rawParticle) by recursive
// descent over xmltok's token stream, preserving child order inside
// sequence and choice groups. Schema elements match by local name, whatever
// their prefix (the namespace it binds is not checked); attributes match by
// their exact, unprefixed name. Interpretation (group expansion, type
// resolution, content-model lowering, compilation) happens in schema.go
// and lower.go.
package xsd

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dregex/internal/ast"
	"dregex/internal/xmltok"
)

// rawParticle is one node of a content-model particle tree, or a top-level
// element declaration (kind "element").
type rawParticle struct {
	kind     string // "element", "sequence", "choice", "all", "group"
	name     string // element name, or group name at top level
	ref      string // element/group reference (local part)
	typ      string // element @type (local part; "" if none)
	min, max int    // occurrence range; max = ast.Unbounded for "unbounded"
	inline   *rawType
	simple   bool // element carried an inline <simpleType>
	items    []*rawParticle
	line     int // input line of the opening tag, for error positions
}

// rawType is one complexType declaration (named or inline).
type rawType struct {
	name          string
	mixed         bool
	simpleContent bool
	content       *rawParticle // nil for empty content
	line          int
}

// rawSchema is a decoded schema document before resolution.
type rawSchema struct {
	elements    []*rawParticle // top-level xs:element declarations
	types       []*rawType     // top-level named complexTypes
	groups      map[string]*rawParticle
	groupOrder  []string
	simpleTypes map[string]bool // names of top-level simpleTypes
}

// schemaError is a decode/resolution error with a source line. Err is the
// compile error behind a content model that does not compile, so callers
// can match dregex's sentinel errors with errors.Is.
type schemaError struct {
	Line int
	Msg  string
	Err  error
}

func (e *schemaError) Unwrap() error { return e.Err }

func (e *schemaError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("xsd: line %d: %s", e.Line, e.Msg)
	}
	return "xsd: " + e.Msg
}

func errAt(line int, format string, args ...interface{}) error {
	return &schemaError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// decoder reads a schema document with the tokenizer the validators use,
// so schema documents, instance documents and DOCTYPE subsets share one
// set of rules for well-formedness, byte-order marks and positions. Each
// decoding step runs with the tokenizer on the start tag it is about to
// read: attributes are read before the first child is.
type decoder struct {
	t xmltok.Tokenizer
}

// line is the input line of the current token: where a start tag opens.
func (d *decoder) line() int {
	line, _ := d.t.Position(d.t.Offset())
	return line
}

// decode parses a schema document into its raw particle form.
func decode(data []byte) (*rawSchema, error) {
	d := &decoder{}
	d.t.Reset(data)
	rs := &rawSchema{groups: map[string]*rawParticle{}, simpleTypes: map[string]bool{}}
	root, err := d.nextStart()
	if err != nil {
		return nil, err
	}
	if !root || string(d.t.Local()) != "schema" {
		return nil, errAt(d.line(), "document root must be an XML Schema <schema> element")
	}
	for {
		end, err := d.child()
		if err != nil {
			return nil, err
		}
		if end {
			return rs, nil
		}
		switch string(d.t.Local()) {
		case "element":
			p, err := d.element()
			if err != nil {
				return nil, err
			}
			if p.name == "" {
				return nil, errAt(p.line, "top-level element declaration needs a name")
			}
			rs.elements = append(rs.elements, p)
		case "complexType":
			rt, err := d.complexType()
			if err != nil {
				return nil, err
			}
			if rt.name == "" {
				return nil, errAt(rt.line, "top-level complexType needs a name")
			}
			rs.types = append(rs.types, rt)
		case "group":
			if err := d.topGroup(rs); err != nil {
				return nil, err
			}
		case "simpleType":
			if n := d.attr("name"); n != "" {
				rs.simpleTypes[n] = true
			}
			if err := d.skip(); err != nil {
				return nil, err
			}
		case "annotation", "import", "include", "redefine", "attribute",
			"attributeGroup", "notation":
			if err := d.skip(); err != nil {
				return nil, err
			}
		default:
			return nil, errAt(d.line(), "unsupported top-level <%s>", d.t.Local())
		}
	}
}

// malformed reports a tokenizer error at the line it carries.
func (d *decoder) malformed(err error) error {
	var se *xmltok.SyntaxError
	if errors.As(err, &se) {
		return errAt(se.Line, "malformed XML: %s", se.Msg)
	}
	return errAt(d.line(), "malformed XML: %v", err)
}

// nextStart advances to the first start tag; it reports false at the end
// of the input.
func (d *decoder) nextStart() (bool, error) {
	for {
		k, err := d.t.Next()
		if err == io.EOF {
			return false, nil
		}
		if err != nil {
			return false, d.malformed(err)
		}
		if k == xmltok.StartElement {
			return true, nil
		}
	}
}

// child advances to the next child start tag of the open element, or
// reports end=true at its end tag.
func (d *decoder) child() (end bool, err error) {
	for {
		k, err := d.t.Next()
		if err != nil {
			return false, d.malformed(err)
		}
		switch k {
		case xmltok.StartElement:
			return false, nil
		case xmltok.EndElement:
			return true, nil
		}
	}
}

// skip consumes the remainder of the element whose start tag was just
// read.
func (d *decoder) skip() error {
	for depth := d.t.Depth(); d.t.Depth() >= depth; {
		if _, err := d.t.Next(); err != nil {
			return d.malformed(err)
		}
	}
	return nil
}

// attr returns the value of the current start tag's attribute named
// exactly name, "" if absent: prefixed attributes (xml:lang, x:name)
// never match.
func (d *decoder) attr(name string) string {
	for i := 0; i < d.t.AttrCount(); i++ {
		if string(d.t.AttrName(i)) == name {
			return string(d.t.AttrValue(i))
		}
	}
	return ""
}

// localPart strips a qualifying prefix from a QName attribute value.
func localPart(qname string) string {
	if i := strings.LastIndexByte(qname, ':'); i >= 0 {
		return qname[i+1:]
	}
	return qname
}

// occurs parses minOccurs/maxOccurs with their XSD defaults (1, 1).
// maxOccurs="0" prohibits the particle (returned as min=max=0); pairing
// it with an explicit positive minOccurs is contradictory and rejected
// like any other max < min (a defaulted minOccurs is forgiven — bare
// maxOccurs="0" is the common prohibition shorthand). A finite bound
// above ast.MaxBound does not fit the parse tree and is rejected.
func (d *decoder) occurs() (min, max int, err error) {
	min, max = 1, 1
	minExplicit := false
	if v := d.attr("minOccurs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return 0, 0, errAt(d.line(), "invalid minOccurs %q", v)
		}
		if n > ast.MaxBound {
			return 0, 0, errAt(d.line(), "minOccurs %s exceeds %d", v, ast.MaxBound)
		}
		min = n
		minExplicit = true
	}
	if v := d.attr("maxOccurs"); v != "" {
		if v == "unbounded" {
			max = ast.Unbounded
		} else {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return 0, 0, errAt(d.line(), "invalid maxOccurs %q", v)
			}
			if n > ast.MaxBound {
				return 0, 0, errAt(d.line(), "maxOccurs %s exceeds %d", v, ast.MaxBound)
			}
			max = n
		}
	}
	if max == 0 && !minExplicit {
		return 0, 0, nil
	}
	if max != ast.Unbounded && max < min {
		return 0, 0, errAt(d.line(), "maxOccurs %d < minOccurs %d", max, min)
	}
	return min, max, nil
}

// element decodes an <element> declaration or reference (the opening tag
// has been read).
func (d *decoder) element() (*rawParticle, error) {
	p := &rawParticle{kind: "element", line: d.line()}
	p.name = d.attr("name")
	p.ref = localPart(d.attr("ref"))
	p.typ = localPart(d.attr("type"))
	var err error
	p.min, p.max, err = d.occurs()
	if err != nil {
		return nil, err
	}
	if p.name == "" && p.ref == "" {
		return nil, errAt(p.line, "element needs a name or a ref")
	}
	if p.name != "" && p.ref != "" {
		return nil, errAt(p.line, "element %q has both name and ref", p.name)
	}
	if p.ref != "" && p.typ != "" {
		return nil, errAt(p.line, "element ref %q cannot carry a type", p.ref)
	}
	for {
		end, err := d.child()
		if err != nil {
			return nil, err
		}
		if end {
			return p, nil
		}
		switch string(d.t.Local()) {
		case "complexType":
			if p.ref != "" {
				return nil, errAt(d.line(), "element ref %q cannot carry an inline type", p.ref)
			}
			if p.inline != nil || p.typ != "" {
				return nil, errAt(d.line(), "element %q has more than one type", p.name)
			}
			rt, err := d.complexType()
			if err != nil {
				return nil, err
			}
			p.inline = rt
		case "simpleType":
			if p.ref != "" {
				return nil, errAt(d.line(), "element ref %q cannot carry an inline type", p.ref)
			}
			if p.inline != nil || p.typ != "" {
				return nil, errAt(d.line(), "element %q has more than one type", p.name)
			}
			p.simple = true
			if err := d.skip(); err != nil {
				return nil, err
			}
		case "annotation", "unique", "key", "keyref":
			if err := d.skip(); err != nil {
				return nil, err
			}
		default:
			return nil, errAt(d.line(), "unsupported <%s> inside element declaration", d.t.Local())
		}
	}
}

// complexType decodes a <complexType> (the opening tag has been read).
func (d *decoder) complexType() (*rawType, error) {
	rt := &rawType{name: d.attr("name"), line: d.line()}
	if v := d.attr("mixed"); v == "true" || v == "1" {
		rt.mixed = true
	}
	for {
		end, err := d.child()
		if err != nil {
			return nil, err
		}
		if end {
			return rt, nil
		}
		switch string(d.t.Local()) {
		case "sequence", "choice", "all":
			if rt.content != nil {
				return nil, errAt(d.line(), "complexType %s has more than one content particle", rt.name)
			}
			p, err := d.modelGroup()
			if err != nil {
				return nil, err
			}
			rt.content = p
		case "group":
			if rt.content != nil {
				return nil, errAt(d.line(), "complexType %s has more than one content particle", rt.name)
			}
			p, err := d.groupRef()
			if err != nil {
				return nil, err
			}
			rt.content = p
		case "simpleContent":
			rt.simpleContent = true
			if err := d.skip(); err != nil {
				return nil, err
			}
		case "complexContent":
			return nil, errAt(d.line(), "complexContent (derivation) is not supported")
		case "annotation", "attribute", "attributeGroup", "anyAttribute":
			if err := d.skip(); err != nil {
				return nil, err
			}
		default:
			return nil, errAt(d.line(), "unsupported <%s> inside complexType", d.t.Local())
		}
	}
}

// modelGroup decodes <sequence>, <choice> or <all> (the opening tag has
// been read).
func (d *decoder) modelGroup() (*rawParticle, error) {
	p := &rawParticle{kind: string(d.t.Local()), line: d.line()}
	var err error
	p.min, p.max, err = d.occurs()
	if err != nil {
		return nil, err
	}
	for {
		end, err := d.child()
		if err != nil {
			return nil, err
		}
		if end {
			return p, nil
		}
		switch string(d.t.Local()) {
		case "element":
			c, err := d.element()
			if err != nil {
				return nil, err
			}
			p.items = append(p.items, c)
		case "sequence", "choice", "all":
			if string(d.t.Local()) == "all" || p.kind == "all" {
				return nil, errAt(d.line(), "xs:all must be the entire content model")
			}
			c, err := d.modelGroup()
			if err != nil {
				return nil, err
			}
			p.items = append(p.items, c)
		case "group":
			if p.kind == "all" {
				return nil, errAt(d.line(), "xs:all may contain only element declarations")
			}
			c, err := d.groupRef()
			if err != nil {
				return nil, err
			}
			p.items = append(p.items, c)
		case "any":
			return nil, errAt(d.line(), "xs:any wildcards are not supported")
		case "annotation":
			if err := d.skip(); err != nil {
				return nil, err
			}
		default:
			return nil, errAt(d.line(), "unsupported <%s> inside %s", d.t.Local(), p.kind)
		}
	}
}

// groupRef decodes a <group ref="…"/> particle.
func (d *decoder) groupRef() (*rawParticle, error) {
	p := &rawParticle{kind: "group", line: d.line()}
	p.ref = localPart(d.attr("ref"))
	if p.ref == "" {
		return nil, errAt(p.line, "group reference needs a ref")
	}
	var err error
	p.min, p.max, err = d.occurs()
	if err != nil {
		return nil, err
	}
	if err := d.skip(); err != nil {
		return nil, err
	}
	return p, nil
}

// topGroup decodes a top-level named <group> definition into rs.groups.
func (d *decoder) topGroup(rs *rawSchema) error {
	name := d.attr("name")
	line := d.line()
	if name == "" {
		return errAt(line, "top-level group needs a name")
	}
	if _, dup := rs.groups[name]; dup {
		return errAt(line, "group %q defined twice", name)
	}
	var body *rawParticle
	for {
		end, err := d.child()
		if err != nil {
			return err
		}
		if end {
			if body == nil {
				return errAt(line, "group %q has no content particle", name)
			}
			rs.groups[name] = body
			rs.groupOrder = append(rs.groupOrder, name)
			return nil
		}
		switch string(d.t.Local()) {
		case "sequence", "choice", "all":
			if body != nil {
				return errAt(d.line(), "group %q has more than one content particle", name)
			}
			p, err := d.modelGroup()
			if err != nil {
				return err
			}
			body = p
		case "annotation":
			if err := d.skip(); err != nil {
				return err
			}
		default:
			return errAt(d.line(), "unsupported <%s> inside group %q", d.t.Local(), name)
		}
	}
}
