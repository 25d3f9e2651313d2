// Package xsd applies the paper's algorithms to the schema language where
// deterministic expressions with counters actually live in the wild: XML
// Schema. It parses schema documents (with internal/xmltok, the tokenizer
// the validators read instance documents with), lowers complexType
// content models — sequence, choice, all, element references, named model
// groups, minOccurs/maxOccurs including unbounded — into the dregex
// pipeline, checks each model for determinism (the Unique Particle
// Attribution constraint, decided by the paper's §3.3 linear test however
// large the bounds), and validates instance documents by streaming counter
// simulation. Validator runs that pipeline over whole corpora concurrently.
//
// Lowering picks the cheapest engine per model: a content model whose
// occurrence ranges all fall in the classical set ({0,1}, {1,1}, {0,∞},
// {1,∞}) compiles through the plain pipeline (dregex.Expr and its §4
// engines); only models with genuine counters pay for counter simulation
// (dregex.NumericExpr). Both compile through a dregex.Cache under the
// dedicated XSD syntax key, so models repeated across types, schemas and
// corpora compile once.
//
// Supported subset: top-level element, complexType, group and simpleType
// declarations; sequence/choice/all model groups; element refs and local
// element declarations; named model-group references; minOccurs/maxOccurs
// everywhere XSD 1.0 allows them; mixed content; simpleContent (treated as
// text-only). Attributes are accepted and ignored. Not supported (clean
// errors): complexContent derivation, xs:any wildcards, substitution
// groups, identity constraints beyond skipping. Elements without a type
// are xs:anyType: their content — children and text — is accepted without
// checking, like DTD's ANY.
package xsd

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"dregex"
	"dregex/internal/dtd"
	"dregex/internal/numeric"
	"dregex/internal/validate"
)

// ContentKind classifies a type's content model.
type ContentKind int

// Content kinds.
const (
	// EmptyContent allows no children (text only when mixed).
	EmptyContent ContentKind = iota
	// TextContent is simple content: character data, no children.
	TextContent
	// Children is a regular content model over element names.
	Children
	// AllGroup is xs:all — each member element at most once, any order.
	AllGroup
	// AnyContent is xs:anyType (untyped elements): children and text are
	// accepted without checking, like DTD's ANY.
	AnyContent
)

func (k ContentKind) String() string {
	switch k {
	case EmptyContent:
		return "empty"
	case TextContent:
		return "text"
	case Children:
		return "children"
	case AllGroup:
		return "all"
	case AnyContent:
		return "any"
	}
	return fmt.Sprintf("ContentKind(%d)", int(k))
}

// Type is one compiled (complex or simple) type.
type Type struct {
	// Name is the declared name for named types, a synthesized
	// "element <x>" label for inline anonymous types, and the builtin name
	// for simple types.
	Name  string
	Kind  ContentKind
	Mixed bool
	// Line is the schema-document line of the type's declaration (0 for
	// interned simple types).
	Line int

	// Children models. Model is the lowered content-model source (DTD
	// notation, {m,n} for counters); Numeric selects which of CM/NCM is
	// live. Both compile through the schema's expression cache, so types
	// sharing a model — within one schema or across schemas parsed with
	// the same cache — share one compiled expression and its engines.
	Model   string
	Numeric bool
	CM      *dregex.Expr
	NCM     *dregex.NumericExpr
	// Deterministic reports the Unique Particle Attribution verdict
	// (paper §3/§3.3); Rule names the violated condition.
	Deterministic bool
	Rule          string
	matcher       *dregex.Matcher
	nmatcher      *dregex.NumericMatcher

	// children maps child element names to their declarations (all kinds
	// with element content).
	children   map[string]*ElementDecl
	childOrder []string

	// content is the type as the validation driver sees it (AllGroup
	// members live in content.All).
	content validate.Content
}

// ElementDecl is one element declaration (global or local).
type ElementDecl struct {
	Name string
	Type *Type
}

// Schema is a compiled schema: global element declarations plus every
// compiled type. It is immutable after Parse and safe for concurrent use.
type Schema struct {
	// Roots are the global element declarations (valid document roots).
	Roots     map[string]*ElementDecl
	RootOrder []string
	// Types are the named complexTypes.
	Types     map[string]*Type
	TypeOrder []string
	// AllTypes lists every compiled type with element content — named ones
	// first in declaration order, then inline anonymous ones — for linting
	// and reporting.
	AllTypes []*Type

	// schema is the schema as the validation driver sees it: global roots,
	// type-scoped child declarations, entities from the document's own
	// DOCTYPE.
	schema validate.Schema
}

// defaultCache backs Parse: content models repeat heavily across schema
// corpora, so even unrelated Parse calls amortize compilation. It is
// distinct from the DTD package cache only in its keys (dregex.XSD).
var defaultCache = dregex.NewCache(4096)

// Parse compiles a schema document, lowering every content model through
// the shared package-level expression cache.
func Parse(data []byte) (*Schema, error) {
	return ParseWithCache(data, defaultCache)
}

// ParseWithCache is Parse compiling content models through an explicit
// cache (one per validator pool, say, to bound memory independently).
func ParseWithCache(data []byte, cache *dregex.Cache) (*Schema, error) {
	if cache == nil {
		cache = defaultCache
	}
	rs, err := decode(data)
	if err != nil {
		return nil, err
	}
	if len(rs.elements) == 0 {
		return nil, errAt(0, "schema declares no top-level elements")
	}
	r := &resolver{
		rs:    rs,
		cache: cache,
		s: &Schema{
			Roots: map[string]*ElementDecl{},
			Types: map[string]*Type{},
		},
		text: map[string]*Type{},
	}
	// Shells first: named types and global elements may reference each
	// other cyclically (an element of type T whose model refs the element).
	for _, rt := range rs.types {
		if _, dup := r.s.Types[rt.name]; dup {
			return nil, errAt(rt.line, "complexType %q declared twice", rt.name)
		}
		t := &Type{Name: rt.name}
		r.s.Types[rt.name] = t
		r.s.TypeOrder = append(r.s.TypeOrder, rt.name)
	}
	for _, re := range rs.elements {
		if err := checkName(re.name); err != nil {
			return nil, errAt(re.line, "%v", err)
		}
		if _, dup := r.s.Roots[re.name]; dup {
			return nil, errAt(re.line, "element %q declared twice", re.name)
		}
		r.s.Roots[re.name] = &ElementDecl{Name: re.name}
		r.s.RootOrder = append(r.s.RootOrder, re.name)
	}
	// Fill named types, then resolve the global elements' types (inline
	// anonymous types compile on the way).
	for _, rt := range rs.types {
		if err := r.fillType(r.s.Types[rt.name], rt); err != nil {
			return nil, err
		}
	}
	for _, re := range rs.elements {
		t, err := r.typeFor(re)
		if err != nil {
			return nil, err
		}
		r.s.Roots[re.name].Type = t
	}
	// Element Declarations Consistent, deferred until every declaration's
	// type is resolved (a ref's global element may be typed after the
	// content model using it compiles).
	for _, p := range r.edc {
		if p.a.Type != p.b.Type {
			return nil, errAt(p.line,
				"type %s: element %q declared twice with different types", p.typeName, p.elem)
		}
	}
	r.s.AllTypes = r.allTypes
	r.s.describe()
	return r.s, nil
}

// describe fills in the driver's view of the schema: every type reachable
// from a root gets its content description, including the child
// declarations in its scope (resolved only now — a referenced global
// element's type may be filled after the content model using it).
func (s *Schema) describe() {
	s.schema = validate.Schema{Lang: "xsd", Doctype: doctype}
	seen := map[*Type]bool{}
	var visit func(t *Type)
	visit = func(t *Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		c := &t.content
		c.Kind, c.Model, c.Text = driverKind[t.Kind], t.Model, t.Mixed
		c.Plain, c.Counter = t.matcher, t.nmatcher
		var scope []*validate.Content
		for _, name := range t.childOrder {
			scope = append(scope, &t.children[name].Type.content)
		}
		s.schema.Bind(c, t.childOrder, scope)
		for _, name := range t.childOrder {
			visit(t.children[name].Type)
		}
	}
	roots := make([]*validate.Content, len(s.RootOrder))
	for i, name := range s.RootOrder {
		t := s.Roots[name].Type
		roots[i] = &t.content
		visit(t)
	}
	s.schema.DeclareRoots(s.RootOrder, roots)
}

// driverKind maps content kinds to the validation driver's.
var driverKind = [...]validate.Kind{
	EmptyContent: validate.Empty,
	TextContent:  validate.Simple,
	Children:     validate.Children,
	AllGroup:     validate.All,
	AnyContent:   validate.Any,
}

// doctype is XSD's DOCTYPE rule for the validation driver: no constraint
// on the root name, but general entities the internal subset declares
// (<!ENTITY foo "...">) resolve, so &foo; references are not rejected as
// malformed XML. Parameter and external entities stay out of scope.
func doctype(directive string) (string, map[string]string) {
	return "", dtd.EntitiesFromDoctype(directive)
}

// resolver carries the state of one Parse.
type resolver struct {
	rs       *rawSchema
	cache    *dregex.Cache
	s        *Schema
	allTypes []*Type
	text     map[string]*Type // interned text-only types by name
	groupUse []string         // group expansion stack (cycle detection)
	edc      []edcPending     // deferred consistency checks
	// pdecl memoizes local element declarations per raw particle, so a
	// named group expanded at several reference sites resolves each of its
	// elements to one declaration (and one inline anonymous type) — the
	// Element Declarations Consistent pointer check depends on it.
	pdecl map[*rawParticle]*ElementDecl
}

// builtinSimple is the XSD builtin simple-type vocabulary (anyType is
// separate: it admits any content, not just text).
var builtinSimple = map[string]bool{
	"string": true, "boolean": true, "decimal": true, "float": true,
	"double": true, "duration": true, "dateTime": true, "time": true,
	"date": true, "gYearMonth": true, "gYear": true, "gMonthDay": true,
	"gDay": true, "gMonth": true, "hexBinary": true, "base64Binary": true,
	"anyURI": true, "QName": true, "NOTATION": true,
	"normalizedString": true, "token": true, "language": true,
	"NMTOKEN": true, "NMTOKENS": true, "Name": true, "NCName": true,
	"ID": true, "IDREF": true, "IDREFS": true, "ENTITY": true,
	"ENTITIES": true, "integer": true, "nonPositiveInteger": true,
	"negativeInteger": true, "long": true, "int": true, "short": true,
	"byte": true, "nonNegativeInteger": true, "unsignedLong": true,
	"unsignedInt": true, "unsignedShort": true, "unsignedByte": true,
	"positiveInteger": true, "anySimpleType": true, "anyAtomicType": true,
}

// textType interns the text-only type for a simple-type name, so every
// element of the same simple type shares one *Type (keeping the Element
// Declarations Consistent check a pointer comparison).
func (r *resolver) textType(name string) *Type {
	if t, ok := r.text[name]; ok {
		return t
	}
	t := &Type{Name: name, Kind: TextContent, Deterministic: true}
	r.text[name] = t
	return t
}

// anyType resolves xs:anyType (and untyped elements): any children, any
// text, nothing checked.
func (r *resolver) anyType() *Type {
	if t, ok := r.text["anyType"]; ok {
		return t
	}
	t := &Type{Name: "anyType", Kind: AnyContent, Mixed: true, Deterministic: true}
	r.text["anyType"] = t
	return t
}

// typeFor resolves the type of an element declaration particle.
func (r *resolver) typeFor(p *rawParticle) (*Type, error) {
	switch {
	case p.inline != nil:
		label := "element " + p.name
		t := &Type{Name: label}
		if err := r.fillType(t, p.inline); err != nil {
			return nil, err
		}
		return t, nil
	case p.typ != "":
		if t, ok := r.s.Types[p.typ]; ok {
			return t, nil
		}
		if p.typ == "anyType" {
			return r.anyType(), nil
		}
		if r.rs.simpleTypes[p.typ] || builtinSimple[p.typ] {
			return r.textType(p.typ), nil
		}
		return nil, errAt(p.line, "element %q: unknown type %q", p.name, p.typ)
	case p.simple:
		return r.textType("(inline simpleType)"), nil
	default:
		return r.anyType(), nil
	}
}

// fillType compiles one complexType body into t.
func (r *resolver) fillType(t *Type, rt *rawType) error {
	t.Mixed = rt.mixed
	t.Line = rt.line
	switch {
	case rt.simpleContent:
		t.Kind = TextContent
		t.Deterministic = true
		return nil
	case rt.content == nil:
		t.Kind = EmptyContent
		t.Deterministic = true
		return nil
	}
	content := rt.content
	// A top-level group ref may name an all group; expand it before
	// deciding the content kind. The ref's occurrence applies to the
	// expansion, and xs:all only admits {0,1}/{1,1} — enforce that on the
	// ref's bounds, not just on the group definition's.
	if content.kind == "group" {
		body, err := r.group(content.ref, content.line)
		if err != nil {
			return err
		}
		if body.kind == "all" {
			if content.max == 0 {
				t.Kind = EmptyContent
				t.Deterministic = true
				return nil
			}
			if content.max != 1 || content.min > 1 {
				return errAt(content.line,
					"type %s: reference to xs:all group %q must have minOccurs 0 or 1 and maxOccurs 1",
					t.Name, content.ref)
			}
			all := *body
			if content.min == 0 {
				all.min = 0
			}
			content = &all
		}
	}
	if content.kind == "all" {
		return r.fillAll(t, content)
	}
	lw := &lowerer{r: r, t: t}
	kind, err := lw.lower(content)
	if err != nil {
		return err
	}
	if kind != lowExpr {
		t.Kind = EmptyContent
		t.Deterministic = true
		return nil
	}
	t.Kind = Children
	t.Model = string(lw.buf)
	t.Numeric = lw.numeric
	return r.compileModel(t, content.line)
}

// compileModel compiles t.Model through the cache — the numeric pipeline
// when real counters appeared, the plain one otherwise — and readies the
// shared matcher for deterministic models.
func (r *resolver) compileModel(t *Type, line int) error {
	r.allTypes = append(r.allTypes, t)
	if t.Numeric {
		ne, err := r.cache.GetNumeric(t.Model, dregex.XSD)
		if err != nil {
			return modelError(line, t, err)
		}
		t.NCM = ne
		t.Deterministic = ne.IsDeterministic()
		t.Rule = ne.Rule()
		if t.Deterministic {
			t.nmatcher = ne.Matcher()
		}
		return nil
	}
	cm, err := r.cache.Get(t.Model, dregex.XSD)
	if err != nil {
		return modelError(line, t, err)
	}
	t.CM = cm
	t.Deterministic = cm.IsDeterministic()
	t.Rule = cm.Rule()
	if t.Deterministic {
		// Content models are small, so Auto resolves almost always to the
		// dense table, and past its budget to a §4 engine; on a
		// deterministic model it cannot fail.
		m, err := cm.Matcher(dregex.Auto)
		if err != nil {
			return errAt(line, "type %s: %v", t.Name, err)
		}
		t.matcher = m
	}
	return nil
}

// modelError reports t's content model failing to compile with err. The
// message quotes at most the model's first 128 bytes: a model nested
// thousands deep would otherwise fill it.
func modelError(line int, t *Type, err error) error {
	m := t.Model
	if len(m) > 128 {
		k := 128
		for !utf8.RuneStart(m[k]) {
			k--
		}
		m = m[:k] + "…"
	}
	return &schemaError{Line: line, Err: err,
		Msg: fmt.Sprintf("type %s: content model %s: %v", t.Name, m, err)}
}

// fillAll compiles an xs:all content model: a set with per-member
// presence constraints rather than a regular expression (matching it as
// one would need every permutation).
func (r *resolver) fillAll(t *Type, p *rawParticle) error {
	if p.max == 0 {
		// Prohibited outright — same treatment as a maxOccurs=0 group ref
		// to an all group.
		t.Kind = EmptyContent
		t.Deterministic = true
		return nil
	}
	t.Kind = AllGroup
	t.Deterministic = true
	if p.max != 1 || p.min > 1 {
		return errAt(p.line, "type %s: xs:all must have minOccurs 0 or 1 and maxOccurs 1", t.Name)
	}
	all := &validate.AllGroup{Optional: p.min == 0}
	t.content.All = all
	r.allTypes = append(r.allTypes, t)
	member := map[string]bool{}
	for _, item := range p.items {
		if item.kind != "element" {
			return errAt(item.line, "type %s: xs:all may contain only element declarations", t.Name)
		}
		if item.max == 0 {
			continue // member prohibited (maxOccurs="0") — removed
		}
		if item.max != 1 || item.min > 1 {
			return errAt(item.line, "type %s: xs:all members must have minOccurs 0 or 1 and maxOccurs 1", t.Name)
		}
		decl, err := r.elementDecl(item, t)
		if err != nil {
			return err
		}
		if member[decl.Name] {
			return errAt(item.line, "type %s: element %q appears twice in xs:all", t.Name, decl.Name)
		}
		member[decl.Name] = true
		all.Names = append(all.Names, decl.Name)
		all.Required = append(all.Required, item.min > 0)
	}
	t.Model = "all(" + strings.Join(all.Names, ", ") + ")"
	return nil
}

// elementDecl resolves an element particle to a declaration and records it
// among t's children, enforcing Element Declarations Consistent (one name,
// one type, within a content model).
func (r *resolver) elementDecl(p *rawParticle, t *Type) (*ElementDecl, error) {
	var decl *ElementDecl
	if p.ref != "" {
		g, ok := r.s.Roots[p.ref]
		if !ok {
			return nil, errAt(p.line, "type %s: reference to undeclared element %q", t.Name, p.ref)
		}
		decl = g
	} else if memo, ok := r.pdecl[p]; ok {
		decl = memo // same particle again (repeated group expansion)
	} else {
		if err := checkName(p.name); err != nil {
			return nil, errAt(p.line, "type %s: %v", t.Name, err)
		}
		et, err := r.typeFor(p)
		if err != nil {
			return nil, err
		}
		decl = &ElementDecl{Name: p.name, Type: et}
		if r.pdecl == nil {
			r.pdecl = map[*rawParticle]*ElementDecl{}
		}
		r.pdecl[p] = decl
	}
	if t.children == nil {
		t.children = map[string]*ElementDecl{}
	}
	if prev, ok := t.children[decl.Name]; ok {
		// Global refs resolve to one shared decl; local re-declarations
		// must agree on the type (pointer identity — named and builtin
		// types are interned). A referenced global element's Type may
		// still be unresolved at this point (globals resolve after named
		// types fill), so the comparison is deferred to the end of Parse.
		if prev != decl {
			r.edc = append(r.edc, edcPending{
				typeName: t.Name, elem: decl.Name, line: p.line, a: prev, b: decl,
			})
		}
		return prev, nil
	}
	t.children[decl.Name] = decl
	t.childOrder = append(t.childOrder, decl.Name)
	return decl, nil
}

// edcPending is a deferred Element Declarations Consistent comparison
// (see elementDecl).
type edcPending struct {
	typeName string
	elem     string
	line     int
	a, b     *ElementDecl
}

// group resolves a named model group, guarding against reference cycles.
func (r *resolver) group(name string, line int) (*rawParticle, error) {
	body, ok := r.rs.groups[name]
	if !ok {
		return nil, errAt(line, "reference to undeclared group %q", name)
	}
	for _, seen := range r.groupUse {
		if seen == name {
			return nil, errAt(line, "group reference cycle through %q", name)
		}
	}
	return body, nil
}

// checkName verifies that an element name survives the round trip through
// content-model notation (schema documents can smuggle arbitrary bytes in
// name attributes; a name the model parser cannot read would corrupt the
// lowered expression).
func checkName(name string) error {
	if name == "" {
		return errors.New("empty element name")
	}
	for i, c := range name {
		if i == 0 && !nameStart(c) || i > 0 && !nameRune(c) {
			return fmt.Errorf("invalid element name %q", name)
		}
	}
	return nil
}

func nameStart(r rune) bool {
	return r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || r > 0x7f && nameLetter(r)
}

func nameRune(r rune) bool {
	return nameStart(r) || r == '-' || r == '.' || ('0' <= r && r <= '9')
}

// nameLetter is a conservative non-ASCII letter test (XML names allow
// most letters; anything the DTD-notation parser reads back is fine, but
// stay strict so lowered models never re-parse differently).
func nameLetter(r rune) bool {
	return (0xC0 <= r && r <= 0x2FF) || (0x370 <= r && r <= 0x1FFF) ||
		(0x3001 <= r && r <= 0xD7FF)
}

// Children returns the element names a type's content model can contain,
// sorted (reporting parity with dtd.Element.References).
func (t *Type) Children() []string {
	out := make([]string, len(t.childOrder))
	copy(out, t.childOrder)
	sort.Strings(out)
	return out
}

// Child returns the declaration of a child element name, or nil.
func (t *Type) Child(name string) *ElementDecl {
	if t == nil || t.children == nil {
		return nil
	}
	return t.children[name]
}

// Stats exposes the plain content model's structural parameters (k, c_e,
// …); the zero Stats for other kinds (see IterationStats for counters).
func (t *Type) Stats() dregex.Stats {
	if t.Kind != Children || t.Numeric {
		return dregex.Stats{}
	}
	return t.CM.Stats()
}

// IterationStats exposes the counter structure of a numeric model (the
// zero Stats for plain and non-Children models).
func (t *Type) IterationStats() numeric.Stats {
	if t.Kind != Children || !t.Numeric {
		return numeric.Stats{}
	}
	return t.NCM.IterationStats()
}

// Explain returns the counterexample diagnosis for a nondeterministic
// content model (nil when deterministic or not a Children model).
func (t *Type) Explain() *dregex.Ambiguity {
	if t.Kind != Children || t.Deterministic {
		return nil
	}
	if t.Numeric {
		return t.NCM.Explain()
	}
	return t.CM.Explain()
}

// MatchChildren matches a sequence of child element names against the
// type's content model (primarily for tests and tools; the validator
// streams instead). Nondeterministic plain models fall back to the NFA
// engine, numeric models are decided by counter simulation either way.
func (t *Type) MatchChildren(names []string) bool {
	switch t.Kind {
	case EmptyContent:
		return len(names) == 0
	case TextContent:
		return len(names) == 0
	case AnyContent:
		return true
	case AllGroup:
		all := t.content.All
		seen := make([]bool, len(all.Names))
		for _, n := range names {
			i := slices.Index(all.Names, n)
			if i < 0 || seen[i] {
				return false
			}
			seen[i] = true
		}
		if all.Optional && len(names) == 0 {
			return true
		}
		for i, req := range all.Required {
			if req && !seen[i] {
				return false
			}
		}
		return true
	}
	if t.Numeric {
		return t.NCM.MatchSymbols(names)
	}
	if t.matcher != nil {
		return t.matcher.MatchSymbols(names)
	}
	m, err := t.CM.Matcher(dregex.NFA)
	if err != nil {
		return false
	}
	return m.MatchSymbols(names)
}

// Issue is a lint finding about a schema.
type Issue struct {
	// Type names the offending type (or "element <x>" for inline types).
	Type string
	Msg  string
}

// Check lints the schema: nondeterministic content models — Unique
// Particle Attribution violations, fatal for conforming XSD processors —
// reported with the counterexample diagnosis the DTD path gets.
func (s *Schema) Check() []Issue {
	var issues []Issue
	for _, t := range s.AllTypes {
		if t.Deterministic {
			continue
		}
		msg := fmt.Sprintf("content model %s violates Unique Particle Attribution (%s)",
			t.Model, t.Rule)
		if amb := t.Explain(); amb != nil {
			if amb.Symbol != "" {
				msg += fmt.Sprintf("; symbol %q is ambiguous", amb.Symbol)
			}
			if len(amb.Word) > 0 {
				msg += fmt.Sprintf(" after reading %q", strings.Join(amb.Word, " "))
			}
		}
		issues = append(issues, Issue{Type: t.Name, Msg: msg})
	}
	return issues
}
