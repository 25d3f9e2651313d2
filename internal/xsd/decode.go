// Raw schema-document decoding. This file turns an XML Schema document
// into a particle tree (rawSchema / rawType / rawParticle) with
// encoding/xml's token stream, preserving child order inside sequence and
// choice groups — the property struct-tag unmarshalling cannot give us.
// Interpretation (group expansion, type resolution, content-model
// lowering, compilation) happens in schema.go and lower.go.
package xsd

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dregex/internal/ast"
	"dregex/internal/dtd"
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

// schemaError is a decode/resolution error with a source line.
type schemaError struct {
	Line int
	Msg  string
}

func (e *schemaError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("xsd: line %d: %s", e.Line, e.Msg)
	}
	return "xsd: " + e.Msg
}

func errAt(line int, format string, args ...interface{}) error {
	return &schemaError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// decoder wraps xml.Decoder with line tracking.
type decoder struct {
	d    *xml.Decoder
	data []byte
	// Incremental newline counter: InputOffset is monotonic, so each
	// line() call only scans the bytes consumed since the previous call
	// (keeping Parse linear in the document size however many particles
	// record their line).
	lastOff  int
	lastLine int
}

func (d *decoder) line() int {
	off := int(d.d.InputOffset())
	if off > len(d.data) {
		off = len(d.data)
	}
	if off < d.lastOff { // defensive; InputOffset never goes backwards
		d.lastOff, d.lastLine = 0, 0
	}
	d.lastLine += bytes.Count(d.data[d.lastOff:off], []byte("\n"))
	d.lastOff = off
	return 1 + d.lastLine
}

// decode parses a schema document into its raw particle form. A leading
// UTF-8 byte-order mark is stripped so line counting (and any byte-level
// prolog inspection) starts at the text an author sees.
func decode(data []byte) (*rawSchema, error) {
	data = dtd.StripBOMBytes(data)
	d := &decoder{d: xml.NewDecoder(bytes.NewReader(data)), data: data}
	rs := &rawSchema{groups: map[string]*rawParticle{}, simpleTypes: map[string]bool{}}
	root, err := d.nextStart()
	if err != nil {
		return nil, err
	}
	if root == nil || root.Name.Local != "schema" {
		return nil, errAt(d.line(), "document root must be an XML Schema <schema> element")
	}
	for {
		se, end, err := d.child()
		if err != nil {
			return nil, err
		}
		if end {
			return rs, nil
		}
		switch se.Name.Local {
		case "element":
			p, err := d.element(se)
			if err != nil {
				return nil, err
			}
			if p.name == "" {
				return nil, errAt(p.line, "top-level element declaration needs a name")
			}
			rs.elements = append(rs.elements, p)
		case "complexType":
			rt, err := d.complexType(se)
			if err != nil {
				return nil, err
			}
			if rt.name == "" {
				return nil, errAt(rt.line, "top-level complexType needs a name")
			}
			rs.types = append(rs.types, rt)
		case "group":
			if err := d.topGroup(se, rs); err != nil {
				return nil, err
			}
		case "simpleType":
			if n := attr(se, "name"); n != "" {
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
			return nil, errAt(d.line(), "unsupported top-level <%s>", se.Name.Local)
		}
	}
}

// nextStart returns the first StartElement token (nil at EOF).
func (d *decoder) nextStart() (*xml.StartElement, error) {
	for {
		tok, err := d.d.Token()
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, errAt(d.line(), "malformed XML: %v", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			return &se, nil
		}
	}
}

// child returns the next child StartElement of the currently open element,
// or end=true at its EndElement.
func (d *decoder) child() (xml.StartElement, bool, error) {
	for {
		tok, err := d.d.Token()
		if err != nil {
			return xml.StartElement{}, false, errAt(d.line(), "malformed XML: %v", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return t, false, nil
		case xml.EndElement:
			return xml.StartElement{}, true, nil
		}
	}
}

// skip consumes the remainder of the currently open element.
func (d *decoder) skip() error {
	if err := d.d.Skip(); err != nil {
		return errAt(d.line(), "malformed XML: %v", err)
	}
	return nil
}

// attr returns the (namespace-ignored) attribute value, "" if absent.
func attr(se xml.StartElement, name string) string {
	for _, a := range se.Attr {
		if a.Name.Local == name && a.Name.Space == "" {
			return a.Value
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
func (d *decoder) occurs(se xml.StartElement) (min, max int, err error) {
	min, max = 1, 1
	minExplicit := false
	if v := attr(se, "minOccurs"); v != "" {
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
	if v := attr(se, "maxOccurs"); v != "" {
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
// has been consumed).
func (d *decoder) element(se xml.StartElement) (*rawParticle, error) {
	p := &rawParticle{kind: "element", line: d.line()}
	p.name = attr(se, "name")
	p.ref = localPart(attr(se, "ref"))
	p.typ = localPart(attr(se, "type"))
	var err error
	p.min, p.max, err = d.occurs(se)
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
		ce, end, err := d.child()
		if err != nil {
			return nil, err
		}
		if end {
			return p, nil
		}
		switch ce.Name.Local {
		case "complexType":
			if p.ref != "" {
				return nil, errAt(d.line(), "element ref %q cannot carry an inline type", p.ref)
			}
			if p.inline != nil || p.typ != "" {
				return nil, errAt(d.line(), "element %q has more than one type", p.name)
			}
			rt, err := d.complexType(ce)
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
			return nil, errAt(d.line(), "unsupported <%s> inside element declaration", ce.Name.Local)
		}
	}
}

// complexType decodes a <complexType> (the opening tag has been consumed).
func (d *decoder) complexType(se xml.StartElement) (*rawType, error) {
	rt := &rawType{name: attr(se, "name"), line: d.line()}
	if v := attr(se, "mixed"); v == "true" || v == "1" {
		rt.mixed = true
	}
	for {
		ce, end, err := d.child()
		if err != nil {
			return nil, err
		}
		if end {
			return rt, nil
		}
		switch ce.Name.Local {
		case "sequence", "choice", "all":
			if rt.content != nil {
				return nil, errAt(d.line(), "complexType %s has more than one content particle", rt.name)
			}
			p, err := d.modelGroup(ce)
			if err != nil {
				return nil, err
			}
			rt.content = p
		case "group":
			if rt.content != nil {
				return nil, errAt(d.line(), "complexType %s has more than one content particle", rt.name)
			}
			p, err := d.groupRef(ce)
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
			return nil, errAt(d.line(), "unsupported <%s> inside complexType", ce.Name.Local)
		}
	}
}

// modelGroup decodes <sequence>, <choice> or <all> (the opening tag has
// been consumed).
func (d *decoder) modelGroup(se xml.StartElement) (*rawParticle, error) {
	p := &rawParticle{kind: se.Name.Local, line: d.line()}
	var err error
	p.min, p.max, err = d.occurs(se)
	if err != nil {
		return nil, err
	}
	for {
		ce, end, err := d.child()
		if err != nil {
			return nil, err
		}
		if end {
			return p, nil
		}
		switch ce.Name.Local {
		case "element":
			c, err := d.element(ce)
			if err != nil {
				return nil, err
			}
			p.items = append(p.items, c)
		case "sequence", "choice", "all":
			if ce.Name.Local == "all" || p.kind == "all" {
				return nil, errAt(d.line(), "xs:all must be the entire content model")
			}
			c, err := d.modelGroup(ce)
			if err != nil {
				return nil, err
			}
			p.items = append(p.items, c)
		case "group":
			if p.kind == "all" {
				return nil, errAt(d.line(), "xs:all may contain only element declarations")
			}
			c, err := d.groupRef(ce)
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
			return nil, errAt(d.line(), "unsupported <%s> inside %s", ce.Name.Local, p.kind)
		}
	}
}

// groupRef decodes a <group ref="…"/> particle.
func (d *decoder) groupRef(se xml.StartElement) (*rawParticle, error) {
	p := &rawParticle{kind: "group", line: d.line()}
	p.ref = localPart(attr(se, "ref"))
	if p.ref == "" {
		return nil, errAt(p.line, "group reference needs a ref")
	}
	var err error
	p.min, p.max, err = d.occurs(se)
	if err != nil {
		return nil, err
	}
	if err := d.skip(); err != nil {
		return nil, err
	}
	return p, nil
}

// topGroup decodes a top-level named <group> definition into rs.groups.
func (d *decoder) topGroup(se xml.StartElement, rs *rawSchema) error {
	name := attr(se, "name")
	line := d.line()
	if name == "" {
		return errAt(line, "top-level group needs a name")
	}
	if _, dup := rs.groups[name]; dup {
		return errAt(line, "group %q defined twice", name)
	}
	var body *rawParticle
	for {
		ce, end, err := d.child()
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
		switch ce.Name.Local {
		case "sequence", "choice", "all":
			if body != nil {
				return errAt(d.line(), "group %q has more than one content particle", name)
			}
			p, err := d.modelGroup(ce)
			if err != nil {
				return err
			}
			body = p
		case "annotation":
			if err := d.skip(); err != nil {
				return err
			}
		default:
			return errAt(d.line(), "unsupported <%s> inside group %q", ce.Name.Local, name)
		}
	}
}
