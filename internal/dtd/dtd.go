// Package dtd applies the paper's algorithms to their motivating domain:
// XML DTD content models. It parses <!ELEMENT …> declarations, checks every
// content model for determinism (the well-formedness requirement that XML
// inherits from SGML, §1 of the paper), and validates documents by matching
// each element's child sequence against its content model with a streaming
// transition simulator. Validator runs that pipeline over whole corpora
// concurrently.
//
// The front end is a real declaration tokenizer (ScanDecls): quoted
// literals, comments, processing instructions and INCLUDE/IGNORE
// conditional sections (nested ones too) are handled structurally, so a
// '>' or '<!' inside an attribute default or entity value can never
// terminate or fabricate a declaration. Supported DTD subset: ELEMENT
// declarations are compiled; ATTLIST declarations are compiled into
// attribute lists (types, defaults, enumerations — see attlist.go) and
// enforced during validation, including document-wide ID uniqueness and
// IDREF/IDREFS resolution; internal general ENTITY declarations with
// text-only values are collected into DTD.Entities for reference
// resolution during validation; NOTATION and all other ENTITY forms
// (parameter, external, unparsed, markup-bearing values) are tokenized
// and skipped; INCLUDE sections are processed, IGNORE sections skipped
// whole. Parameter entities are not expanded — declarations hidden behind
// PE references are invisible (an ATTLIST body using one is skipped
// whole), and a PE conditional-section keyword is an error.
//
// Mixed content (#PCDATA | a | b)* is handled by the specialized
// linear-time procedure the paper attributes to Xerces: determinism of a
// mixed model is just distinctness of the listed names, and validation is
// set membership.
//
// Content models compile through a dregex.Cache (a shared package default,
// or one supplied to ParseWithCache), so the heavy O(|e|) preprocessing
// and engine construction are amortized across declarations, documents and
// DTDs: validating a corpus against schemas that reuse content models —
// the common case in the wild — compiles each distinct model exactly once.
package dtd

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"dregex"
	"dregex/internal/validate"
	"dregex/internal/xmltok"
)

// ContentKind classifies an element declaration.
type ContentKind int

// Content model kinds per the XML specification.
const (
	// Empty is <!ELEMENT x EMPTY>: no children, no text.
	Empty ContentKind = iota
	// Any is <!ELEMENT x ANY>.
	Any
	// Mixed is <!ELEMENT x (#PCDATA | a | …)*>: text plus listed elements
	// in any order.
	Mixed
	// Children is a regular content model over element names.
	Children
)

func (k ContentKind) String() string {
	switch k {
	case Empty:
		return "EMPTY"
	case Any:
		return "ANY"
	case Mixed:
		return "mixed"
	case Children:
		return "children"
	}
	return fmt.Sprintf("ContentKind(%d)", int(k))
}

// Element is one compiled element declaration.
type Element struct {
	Name  string
	Kind  ContentKind
	Model string // the raw content model text
	// Offset is the byte offset of the declaration's "<!" in the parsed
	// source (see LineCol).
	Offset int

	// Children models: CM is the compiled content model, shared through
	// the DTD's expression cache (identical models across declarations —
	// or across DTDs parsed with the same cache — compile once and share
	// their lazily built engines).
	CM *dregex.Expr
	// Deterministic reports the §3 linear test verdict; Rule names the
	// violated condition for nondeterministic models.
	Deterministic bool
	Rule          string
	matcher       *dregex.Matcher

	// Mixed models:
	allowed map[string]bool
	// DupName is the repeated name making a mixed model nondeterministic.
	DupName string

	// content is the declaration as the validation driver sees it.
	content *validate.Content
}

// DTD is a set of compiled element declarations.
type DTD struct {
	Elements map[string]*Element
	// Order preserves declaration order for deterministic reporting.
	Order []string
	// Attlists maps element names to their merged attribute lists (nil
	// when the DTD declares none); see attlist.go.
	Attlists map[string]*AttList
	// Entities maps internal general entities (<!ENTITY foo "bar">) to
	// their replacement text; Validate wires it into the XML decoder so
	// documents referencing their own entities are not rejected as
	// malformed. Parameter entities and external (SYSTEM/PUBLIC) or
	// unparsed (NDATA) entities are out of scope and skipped.
	Entities map[string]string

	cache *dregex.Cache
	// subset is the internal-subset text this DTD was parsed from
	// (DocumentDTD sets it; empty for external DTDs), letting validation
	// skip re-scanning a document's DOCTYPE whose subset is the very text
	// Entities already came from — the standalone-mode common case.
	subset string
	// schema is the DTD as the validation driver sees it: every element
	// in one namespace, plus the DOCTYPE, entity and ATTLIST rules.
	schema validate.Schema
	// attlists holds Attlists by the element name's schema id (nil when
	// the DTD declares none, shorter than the id space when the last ids
	// have none), so the ATTLIST hook probes no map.
	attlists []*AttList
}

// defaultCache backs Parse: content models repeat heavily across schema
// corpora, so even unrelated Parse calls amortize compilation.
var defaultCache = dregex.NewCache(4096)

// Parse reads <!ELEMENT …> and <!ATTLIST …> declarations from DTD text,
// compiling content models through a shared package-level expression
// cache. ENTITY and NOTATION declarations, comments, processing
// instructions and IGNORE'd conditional sections are skipped
// (structurally — see ScanDecls); INCLUDE sections are processed. Errors
// carry line:column positions.
func Parse(src string) (*DTD, error) {
	return ParseWithCache(src, defaultCache)
}

// ParseWithCache is Parse compiling content models through an explicit
// cache (one per validator pool, say, to bound memory independently).
func ParseWithCache(src string, cache *dregex.Cache) (*DTD, error) {
	src = StripBOM(src)
	d := &DTD{Elements: map[string]*Element{}, Entities: map[string]string{}}
	d.cache = cache
	d.schema = validate.Schema{
		Lang:     "dtd",
		Entities: d.Entities,
		Doctype:  d.doctype,
		Attrs:    d.checkAttrs,
	}
	// Most names a DTD mentions are declared; counting the declarations
	// sizes the name table once.
	d.schema.Grow(strings.Count(src, "<!ELEMENT"))
	err := scanDecls(src, func(decl Decl) error {
		switch decl.Kind {
		case DeclElement:
			return d.addElement(src, decl)
		case DeclAttlist:
			return d.addAttlist(src, decl)
		case DeclEntity:
			addEntity(d.Entities, decl)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(d.Elements) == 0 {
		return nil, errors.New("dtd: no <!ELEMENT> declarations found")
	}
	return d, nil
}

func (d *DTD) addElement(src string, decl Decl) error {
	if decl.Name == "" || decl.Body == "" {
		return posErr(src, decl.Offset, "malformed element declaration <!ELEMENT %s", decl.Name)
	}
	if _, dup := d.Elements[decl.Name]; dup {
		return posErr(src, decl.Offset, "element %q declared twice", decl.Name)
	}
	el, err := compileElement(decl.Name, decl.Body, d.cache)
	if err != nil {
		return posErr(src, decl.Offset, "%s", strings.TrimPrefix(err.Error(), "dtd: "))
	}
	el.Offset = decl.Offset
	el.content = el.describe()
	d.Elements[decl.Name] = el
	d.Order = append(d.Order, decl.Name)
	// The driver's view: one namespace, and the content's child-name
	// table (shared static contents admit no child names of their own).
	d.schema.Declare(decl.Name, el.content)
	switch c := el.content; {
	case c.Kind == validate.Children:
		d.schema.Bind(c, nil, nil)
	case c.Kind == validate.Mixed && c != pcdataContent:
		d.schema.Bind(c, el.References(), nil)
	}
	return nil
}

// addEntity records an internal general-entity declaration in ents.
// Parameter entities ("%name"), external entities (SYSTEM/PUBLIC ids) and
// unparsed entities are skipped: only declarations whose body is a quoted
// literal define replacement text a validator can substitute. Per the XML
// spec, the first declaration of a name is binding.
//
// Values containing markup ('<') are also skipped: xmltok inserts
// entity replacement text verbatim as character data without re-parsing
// it, so substituting "<b>x</b>" would mutate the element structure into
// a wrong validation verdict. Skipped entities fall back to the previous
// behavior — a reference to one is a diagnosable malformed-XML error —
// which is strictly safer than validating the wrong tree.
func addEntity(ents map[string]string, decl Decl) {
	if decl.Name == "" || strings.HasPrefix(decl.Name, "%") {
		return
	}
	body := strings.TrimSpace(decl.Body)
	if len(body) < 2 || (body[0] != '\'' && body[0] != '"') {
		return // SYSTEM/PUBLIC external entity (or malformed): skipped
	}
	q := body[0]
	end := strings.IndexByte(body[1:], q)
	if end < 0 {
		return // unterminated literal: the scanner would have errored first
	}
	value := body[1 : 1+end]
	if strings.IndexByte(value, '<') >= 0 {
		return // markup-bearing value: substitution would corrupt structure
	}
	if _, dup := ents[decl.Name]; dup {
		return
	}
	ents[decl.Name] = value
}

// entitiesSubsumed reports whether every entity in ents is already present
// in base with the same value — in which case a validator can keep using
// base as the decoder's entity map instead of allocating a merged copy.
func entitiesSubsumed(ents, base map[string]string) bool {
	for k, v := range ents {
		if bv, ok := base[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// EntitiesFromDoctype extracts internal general-entity declarations from a
// DOCTYPE directive (the text between "<!" and ">", as xmltok delivers
// it). It is best-effort — a malformed subset yields whatever was
// declared before the damage — and returns nil when the directive carries
// no internal subset or declares no usable entities. Both validators (DTD
// and XSD) use it so documents may reference entities declared in their
// own prolog.
func EntitiesFromDoctype(directive string) map[string]string {
	_, subset, err := splitDoctype(strings.TrimSpace(directive))
	if err != nil || strings.TrimSpace(subset) == "" {
		return nil
	}
	return entitiesFromSubset(subset)
}

// entitiesFromSubset scans an internal subset for general-entity
// declarations (nil when there are none).
func entitiesFromSubset(subset string) map[string]string {
	var ents map[string]string
	scanDecls(subset, func(decl Decl) error {
		if decl.Kind == DeclEntity {
			if ents == nil {
				ents = map[string]string{}
			}
			addEntity(ents, decl)
		}
		return nil
	})
	if len(ents) == 0 {
		return nil
	}
	return ents
}

// docEntities resolves the decoder entity map for a document whose prolog
// carries the given DOCTYPE directive: nil means "keep d.Entities". The
// subset is tokenized only when it is not the very text d was parsed from
// (standalone mode re-reads its own document; that path does no scanning
// and no allocation) and only merged when it actually adds or overrides
// something.
func (d *DTD) docEntities(directive string) map[string]string {
	_, subset, err := splitDoctype(strings.TrimSpace(directive))
	if err != nil || strings.TrimSpace(subset) == "" || subset == d.subset {
		return nil
	}
	ents := entitiesFromSubset(subset)
	if entitiesSubsumed(ents, d.Entities) {
		return nil
	}
	// Per the XML spec the internal subset is processed first, so its
	// declarations take precedence; merge into a fresh map — d.Entities
	// is shared across concurrent validations.
	merged := make(map[string]string, len(d.Entities)+len(ents))
	for k, v := range d.Entities {
		merged[k] = v
	}
	for k, v := range ents {
		merged[k] = v
	}
	return merged
}

func compileElement(name, model string, cache *dregex.Cache) (*Element, error) {
	el := &Element{Name: name, Model: model}
	switch {
	case model == "EMPTY":
		el.Kind = Empty
		el.Deterministic = true
		return el, nil
	case model == "ANY":
		el.Kind = Any
		el.Deterministic = true
		return el, nil
	case strings.Contains(model, "#PCDATA"):
		return compileMixed(el, model)
	default:
		return compileChildren(el, model, cache)
	}
}

// Shared driver contents for the declarations that need no content model
// of their own — EMPTY, ANY and text-only (#PCDATA) leaves, the bulk of a
// large DTD — so describing them costs no memory per element.
var (
	emptyContent  = &validate.Content{Kind: validate.Empty, Model: "EMPTY"}
	anyContent    = &validate.Content{Kind: validate.Any, Model: "ANY"}
	pcdataContent = &validate.Content{Kind: validate.Mixed, Model: "(#PCDATA)"}
)

// describe returns the declaration's content as the validation driver
// sees it.
func (el *Element) describe() *validate.Content {
	switch {
	case el.Kind == Empty:
		return emptyContent
	case el.Kind == Any:
		return anyContent
	case el.Kind == Mixed && el.Model == pcdataContent.Model:
		return pcdataContent
	case el.Kind == Mixed:
		return &validate.Content{Kind: validate.Mixed, Model: el.Model}
	}
	return &validate.Content{Kind: validate.Children, Model: el.Model, Plain: el.matcher}
}

// compileMixed handles (#PCDATA) and (#PCDATA | a | b)* — the case the
// paper's §1 notes Xerces special-cases with a linear procedure: the model
// is deterministic iff the listed names are distinct.
func compileMixed(el *Element, model string) (*Element, error) {
	el.Kind = Mixed
	inner := strings.TrimSpace(model)
	inner = strings.TrimSuffix(inner, "*")
	inner = strings.TrimSpace(inner)
	if !strings.HasPrefix(inner, "(") || !strings.HasSuffix(inner, ")") {
		return nil, fmt.Errorf("dtd: element %s: malformed mixed model %q", el.Name, model)
	}
	parts := strings.Split(inner[1:len(inner)-1], "|")
	if strings.TrimSpace(parts[0]) != "#PCDATA" {
		return nil, fmt.Errorf("dtd: element %s: mixed model must start with #PCDATA", el.Name)
	}
	if len(parts) > 1 && !strings.HasSuffix(strings.TrimSpace(model), "*") {
		return nil, fmt.Errorf("dtd: element %s: mixed model with names needs a trailing *", el.Name)
	}
	el.allowed = map[string]bool{}
	el.Deterministic = true
	for _, p := range parts[1:] {
		n := strings.TrimSpace(p)
		if n == "" {
			return nil, fmt.Errorf("dtd: element %s: empty name in mixed model", el.Name)
		}
		if el.allowed[n] {
			// Duplicate name: (a1+…+am)* with a repeat — nondeterministic.
			el.Deterministic = false
			el.Rule = "mixed-duplicate"
			el.DupName = n
		}
		el.allowed[n] = true
	}
	return el, nil
}

func compileChildren(el *Element, model string, cache *dregex.Cache) (*Element, error) {
	el.Kind = Children
	cm, err := cache.Get(model, dregex.DTD)
	if err != nil {
		if errors.Is(err, dregex.ErrNumericIndicator) {
			return nil, fmt.Errorf("dtd: element %s: numeric bounds are XML-Schema only; use package numeric", el.Name)
		}
		return nil, fmt.Errorf("dtd: element %s: %w", el.Name, err)
	}
	el.CM = cm
	el.Deterministic = cm.IsDeterministic()
	el.Rule = cm.Rule()
	if el.Deterministic {
		// Content models are small, so Auto resolves almost always to the
		// dense table, and past its budget to a §4 engine; on a
		// deterministic model it cannot fail. The matcher is shared:
		// every element — in any DTD compiled through the same cache —
		// with this model reuses one simulator.
		m, err := cm.Matcher(dregex.Auto)
		if err != nil {
			return nil, fmt.Errorf("dtd: element %s: %w", el.Name, err)
		}
		el.matcher = m
	}
	return el, nil
}

// Issue is a lint finding about a declaration.
type Issue struct {
	Element string
	Msg     string
}

// Check lints all declarations: nondeterministic content models (fatal for
// XML processors) and references to undeclared elements (warnings).
func (d *DTD) Check() []Issue {
	var issues []Issue
	for _, name := range d.Order {
		el := d.Elements[name]
		if !el.Deterministic {
			switch el.Kind {
			case Mixed:
				issues = append(issues, Issue{name,
					fmt.Sprintf("mixed model repeats %q", el.DupName)})
			default:
				issues = append(issues, Issue{name,
					fmt.Sprintf("content model %s is nondeterministic (%s)", el.Model, el.Rule)})
			}
		}
		for _, ref := range el.References() {
			if _, ok := d.Elements[ref]; !ok {
				issues = append(issues, Issue{name,
					fmt.Sprintf("references undeclared element %q", ref)})
			}
		}
	}
	return issues
}

// References returns the element names used by this declaration.
func (el *Element) References() []string {
	var out []string
	switch el.Kind {
	case Mixed:
		out = make([]string, 0, len(el.allowed))
		for n := range el.allowed {
			out = append(out, n)
		}
	case Children:
		out = el.CM.Symbols()
	}
	sort.Strings(out)
	return out
}

// Stats exposes the content model's structural parameters (k, c_e, …);
// the zero Stats for non-Children kinds.
func (el *Element) Stats() dregex.Stats {
	if el.Kind != Children {
		return dregex.Stats{}
	}
	return el.CM.Stats()
}

// ValidationError describes one violation found while validating a
// document.
type ValidationError = validate.ValidationError

// DocState is the reusable per-worker scratch of a validation pass, for
// long-running callers (the dregexd server pools these per schema). A zero
// value is ready; see validate.DocState for the reuse contract.
type DocState = validate.DocState

// Validate checks an XML document against the DTD: every element must be
// declared, its children sequence must match its content model (evaluated
// with a streaming simulator — one pass, no buffering of child lists),
// text content must be allowed, attributes must conform to the element's
// <!ATTLIST> declarations (types, required/fixed constraints, document-wide
// ID uniqueness and IDREF resolution), and there must be exactly one root
// element. When the document carries a <!DOCTYPE> declaration, the root
// element must match its name. It returns all violations found, or nil.
func (d *DTD) Validate(r io.Reader) ([]ValidationError, error) {
	return d.schema.ValidateReusing(r, new(DocState))
}

// ValidateBytes is Validate on an in-memory document, skipping the read.
func (d *DTD) ValidateBytes(doc []byte) ([]ValidationError, error) {
	return d.schema.ValidateBytesReusing(doc, new(DocState))
}

// ValidateReusing is Validate with caller-managed scratch: reusing one
// DocState across documents keeps every internal buffer — element stack,
// tokenizer scratch, read buffer — so steady-state validation performs no
// per-document allocation. A DocState must not be used concurrently.
func (d *DTD) ValidateReusing(r io.Reader, st *DocState) ([]ValidationError, error) {
	return d.schema.ValidateReusing(r, st)
}

// ValidateBytesReusing is ValidateBytes with caller-managed scratch.
func (d *DTD) ValidateBytesReusing(doc []byte, st *DocState) ([]ValidationError, error) {
	return d.schema.ValidateBytesReusing(doc, st)
}

// doctype is the DTD's DOCTYPE rule for the validation driver: the root
// element must match the DOCTYPE name, and a document may declare its own
// entities in the internal subset (common when validating against an
// external DTD); see docEntities for the precedence and skip rules.
func (d *DTD) doctype(directive string) (string, map[string]string) {
	name, ok := doctypeName(directive)
	if !ok {
		return "", nil
	}
	return name, d.docEntities(directive)
}

// isXmlnsAttr reports whether name declares a namespace (xmlns or
// xmlns:prefix) — namespace declarations are not subject to ATTLIST
// validation.
func isXmlnsAttr(name []byte) bool {
	return len(name) >= 5 && string(name[:5]) == "xmlns" &&
		(len(name) == 5 || name[5] == ':')
}

// checkAttrs validates the current start tag's attributes against the
// element's attribute list: every attribute must be declared and satisfy
// its type and #FIXED constraints, required attributes must be present,
// ID values must be unique document-wide, and IDREF/IDREFS values
// (including defaulted ones) are queued for document-end resolution.
func (d *DTD) checkAttrs(st *DocState, tok *xmltok.Tokenizer, id int32, off int, declared bool) {
	var al *AttList
	if uint32(id) < uint32(len(d.attlists)) {
		al = d.attlists[id]
	}
	if !declared && al == nil {
		return // element undeclared: already reported, nothing to check against
	}
	nattr := tok.AttrCount()
	for i := 0; i < nattr; i++ {
		aname := tok.AttrName(i)
		if isXmlnsAttr(aname) {
			continue
		}
		var def *AttDef
		if al != nil {
			def = al.defBytes(aname)
		}
		if def == nil {
			st.Reportf(tok.AttrNameOffset(i), "attribute %s not declared", aname)
			continue
		}
		val := tok.AttrValue(i)
		if msg := def.checkValue(val); msg != "" {
			st.Reportf(tok.AttrNameOffset(i), "attribute %s: %s", aname, msg)
			continue
		}
		switch def.Type {
		case AttID:
			if id := attTrim(val); !st.ID(id) {
				st.Reportf(tok.AttrNameOffset(i), "ID %q already used in this document", id)
			}
		case AttIDREF:
			st.Ref(attTrim(val), tok.AttrNameOffset(i))
		case AttIDREFS:
			aoff := tok.AttrNameOffset(i)
			eachField(val, func(f []byte) bool {
				st.Ref(f, aoff)
				return true
			})
		}
	}
	if al == nil {
		return
	}
	for _, req := range al.required {
		found := false
		for i := 0; i < nattr; i++ {
			if string(tok.AttrName(i)) == req.Name {
				found = true
				break
			}
		}
		if !found {
			st.Reportf(off, "required attribute %s missing", req.Name)
		}
	}
	// Defaulted IDREF/IDREFS values join the document's reference graph
	// even when the attribute is absent.
	for _, def := range al.refDefaults {
		present := false
		for i := 0; i < nattr; i++ {
			if string(tok.AttrName(i)) == def.Name {
				present = true
				break
			}
		}
		if present {
			continue
		}
		if def.Type == AttIDREF {
			st.RefString(strings.TrimSpace(def.Value), off)
		} else {
			for _, f := range strings.Fields(def.Value) {
				st.RefString(f, off)
			}
		}
	}
}

// doctypeName extracts the root element name from a "DOCTYPE …" directive
// (the text between "<!" and ">", as xmltok delivers it).
func doctypeName(directive string) (string, bool) {
	name, _, ok := doctypeSplit(directive)
	return name, ok
}

// doctypeSplit is the single DOCTYPE-directive scan shared by the
// validator's root check and InternalSubset: it returns the root name as
// written, prefix included — DTD names match literally, like the element
// names the validator resolves — and the remainder of the directive after
// it.
func doctypeSplit(directive string) (name, rest string, ok bool) {
	s := strings.TrimSpace(directive)
	const kw = "DOCTYPE"
	if !strings.HasPrefix(s, kw) {
		return "", "", false
	}
	s = s[len(kw):]
	if s == "" || !isSpace(s[0]) {
		return "", "", false
	}
	s = strings.TrimLeft(s, " \t\n\r")
	i := 0
	for i < len(s) && !isSpace(s[i]) && s[i] != '[' {
		i++
	}
	name = s[:i]
	return name, s[i:], name != ""
}

// InternalSubset extracts the DOCTYPE name and the internal DTD subset
// (the text between '[' and ']') from an XML document's prolog. A missing
// DOCTYPE is an error; a DOCTYPE without an internal subset returns the
// root name and an empty subset.
func InternalSubset(doc []byte) (root, subset string, err error) {
	var tok xmltok.Tokenizer
	tok.Reset(doc) // strips any BOM
	for {
		kind, err := tok.Next()
		if err == io.EOF {
			return "", "", errors.New("dtd: document has no DOCTYPE")
		}
		if err != nil {
			return "", "", fmt.Errorf("dtd: malformed XML: %w", err)
		}
		switch kind {
		case xmltok.Directive:
			s := strings.TrimSpace(string(tok.Text()))
			if !strings.HasPrefix(s, "DOCTYPE") {
				continue
			}
			return splitDoctype(s)
		case xmltok.StartElement:
			return "", "", errors.New("dtd: document has no DOCTYPE")
		}
	}
}

// splitDoctype splits a DOCTYPE directive into root name and internal
// subset. The bracket scan is quote-aware, so a ']' inside an entity value
// or system literal cannot end the subset early. (xmltok already strips
// comments and handles quoted '>' when it delimits the directive.)
func splitDoctype(directive string) (root, subset string, err error) {
	root, rest, ok := doctypeSplit(directive)
	if !ok {
		return "", "", errors.New("dtd: DOCTYPE without a name")
	}
	open, close_ := -1, -1
	quote := byte(0)
	for j := 0; j < len(rest); j++ {
		c := rest[j]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '[':
			if open < 0 {
				open = j
			}
		case c == ']':
			close_ = j
		}
	}
	if open < 0 {
		return root, "", nil
	}
	if close_ <= open {
		return "", "", errors.New("dtd: unterminated internal subset in DOCTYPE")
	}
	return root, rest[open+1 : close_], nil
}

// DocumentDTD parses the internal DTD subset carried by an XML document
// itself, so standalone files (DOCTYPE with inline declarations) validate
// without an external DTD. Content models compile through cache (nil
// selects the shared package cache), so models repeated across a corpus of
// documents compile once.
func DocumentDTD(doc []byte, cache *dregex.Cache) (*DTD, error) {
	_, subset, err := InternalSubset(doc)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(subset) == "" {
		return nil, errors.New("dtd: DOCTYPE has no internal subset")
	}
	if cache == nil {
		cache = defaultCache
	}
	d, err := ParseWithCache(subset, cache)
	if err != nil {
		return nil, err
	}
	// Remember the subset so validating the very document it came from
	// (the standalone pattern) does not tokenize it a second time.
	d.subset = subset
	return d, nil
}
