package xsd

import (
	"strings"
	"testing"

	"dregex"
)

const librarySchema = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" type="BookType" maxOccurs="100"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:complexType name="BookType">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
      <xs:element name="author" type="xs:string" minOccurs="1" maxOccurs="5"/>
      <xs:choice minOccurs="0" maxOccurs="unbounded">
        <xs:element name="chapter" type="xs:string"/>
        <xs:element name="appendix" type="xs:string"/>
      </xs:choice>
    </xs:sequence>
  </xs:complexType>
</xs:schema>`

func TestParseLibrary(t *testing.T) {
	s, err := Parse([]byte(librarySchema))
	if err != nil {
		t.Fatal(err)
	}
	lib := s.Roots["library"]
	if lib == nil || lib.Type == nil {
		t.Fatal("library element missing")
	}
	if lib.Type.Kind != Children {
		t.Fatalf("library kind = %v", lib.Type.Kind)
	}
	if got, want := lib.Type.Model, "(book{1,100})"; got != want {
		t.Errorf("library model = %q, want %q", got, want)
	}
	if !lib.Type.Numeric {
		t.Error("library model must be numeric ({1,100})")
	}
	if !lib.Type.Deterministic {
		t.Errorf("library model nondeterministic: %s", lib.Type.Rule)
	}

	book := s.Types["BookType"]
	if book == nil {
		t.Fatal("BookType missing")
	}
	if got, want := book.Model, "(title, author{1,5}, (chapter | appendix)*)"; got != want {
		t.Errorf("BookType model = %q, want %q", got, want)
	}
	if !book.Numeric || !book.Deterministic {
		t.Errorf("BookType numeric=%v deterministic=%v rule=%s",
			book.Numeric, book.Deterministic, book.Rule)
	}
	st := book.IterationStats()
	if st.Iterations == 0 || st.MaxBound != 5 {
		t.Errorf("BookType iteration stats = %+v", st)
	}
	if got := book.Children(); strings.Join(got, " ") != "appendix author chapter title" {
		t.Errorf("BookType children = %v", got)
	}
	// title resolves to the interned builtin text type; author shares it.
	if book.Child("title").Type != book.Child("author").Type {
		t.Error("xs:string children must share one interned type")
	}
	if book.Child("title").Type.Kind != TextContent {
		t.Error("xs:string child must be text-only")
	}
	if issues := s.Check(); len(issues) != 0 {
		t.Errorf("unexpected issues: %v", issues)
	}

	// Matching through the compiled model.
	ok := []string{"title", "author", "chapter", "chapter", "appendix"}
	if !book.MatchChildren(ok) {
		t.Errorf("MatchChildren(%v) = false", ok)
	}
	bad := [][]string{
		{"author", "title"},
		{"title"},
		{"title", "author", "author", "author", "author", "author", "author"}, // 6 > maxOccurs
		{"title", "author", "chapter", "author"},
	}
	for _, w := range bad {
		if book.MatchChildren(w) {
			t.Errorf("MatchChildren(%v) = true", w)
		}
	}
}

func TestPlainModelsAvoidCounterEngine(t *testing.T) {
	// All occurrence ranges classical: must compile through the plain
	// pipeline (CM set, NCM nil).
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
  <element name="doc">
    <complexType>
      <sequence>
        <element name="head" type="string" minOccurs="0"/>
        <element name="item" type="string" maxOccurs="unbounded"/>
        <element name="foot" type="string" minOccurs="0" maxOccurs="1"/>
      </sequence>
    </complexType>
  </element>
</schema>`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	typ := s.Roots["doc"].Type
	if typ.Numeric {
		t.Fatalf("classical model %s routed to the counter engine", typ.Model)
	}
	if typ.CM == nil || typ.NCM != nil {
		t.Fatal("plain model must compile to a dregex.Expr")
	}
	if got, want := typ.Model, "(head?, item+, foot?)"; got != want {
		t.Errorf("model = %q, want %q", got, want)
	}
}

func TestNamedGroupsAndRefs(t *testing.T) {
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
  <group name="meta">
    <sequence>
      <element ref="title"/>
      <element name="date" type="string" minOccurs="0"/>
    </sequence>
  </group>
  <element name="title" type="string"/>
  <element name="entry">
    <complexType>
      <sequence>
        <group ref="meta" maxOccurs="3"/>
        <element name="body" type="string"/>
      </sequence>
    </complexType>
  </element>
</schema>`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	typ := s.Roots["entry"].Type
	if got, want := typ.Model, "((title, date?){1,3}, body)"; got != want {
		t.Errorf("model = %q, want %q", got, want)
	}
	if !typ.Numeric || !typ.Deterministic {
		t.Errorf("numeric=%v det=%v rule=%s", typ.Numeric, typ.Deterministic, typ.Rule)
	}
	// The ref must resolve to the global title declaration.
	if typ.Child("title") != s.Roots["title"] {
		t.Error("element ref did not resolve to the global declaration")
	}
}

func TestConsistentRefAndLocalDecl(t *testing.T) {
	// A ref to a global element plus a local declaration of the same name
	// and type satisfies Element Declarations Consistent — even though the
	// global's type resolves after the named type using it compiles.
	src := `<schema xmlns="x">
  <complexType name="R"><choice>
    <element ref="a"/>
    <sequence><element name="x" type="string"/><element name="a" type="T"/></sequence>
  </choice></complexType>
  <complexType name="T"><sequence><element name="y" type="string"/></sequence></complexType>
  <element name="a" type="T"/>
  <element name="root" type="R"/>
</schema>`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("consistent schema rejected: %v", err)
	}
	if s.Types["R"].Child("a").Type != s.Types["T"] {
		t.Error("child a must resolve to named type T")
	}

	// A named group expanded at several reference sites must resolve each
	// of its elements (inline anonymous types included) once, so repeated
	// refs stay Element-Declarations-Consistent.
	grp := `<schema xmlns="x">
  <group name="G"><sequence>
    <element name="x"><complexType><sequence><element name="y" type="string"/></sequence></complexType></element>
  </sequence></group>
  <element name="root"><complexType><sequence>
    <group ref="G"/><element name="sep" type="string"/><group ref="G"/>
  </sequence></complexType></element>
</schema>`
	if _, err := Parse([]byte(grp)); err != nil {
		t.Errorf("repeated group ref with inline type rejected: %v", err)
	}

	// The same shape with genuinely different types must still fail.
	bad := strings.Replace(src, `<element name="a" type="T"/>
  <element name="root"`, `<element name="a" type="string"/>
  <element name="root"`, 1)
	if _, err := Parse([]byte(bad)); err == nil ||
		!strings.Contains(err.Error(), "different types") {
		t.Errorf("inconsistent ref/local pair not rejected: %v", err)
	}
}

func TestAllGroup(t *testing.T) {
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
  <element name="config">
    <complexType>
      <all>
        <element name="host" type="string"/>
        <element name="port" type="string"/>
        <element name="debug" type="string" minOccurs="0"/>
      </all>
    </complexType>
  </element>
</schema>`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	typ := s.Roots["config"].Type
	if typ.Kind != AllGroup {
		t.Fatalf("kind = %v, want all", typ.Kind)
	}
	ok := [][]string{
		{"host", "port"},
		{"port", "debug", "host"},
	}
	bad := [][]string{
		{"host"},                 // port missing
		{"host", "port", "port"}, // repeat
		{"host", "port", "x"},    // not a member
	}
	for _, w := range ok {
		if !typ.MatchChildren(w) {
			t.Errorf("all group must accept %v", w)
		}
	}
	for _, w := range bad {
		if typ.MatchChildren(w) {
			t.Errorf("all group must reject %v", w)
		}
	}

	// maxOccurs="0" on a member prohibits it (legal XSD): the member
	// vanishes from the group.
	src2 := strings.Replace(src,
		`<element name="debug" type="string" minOccurs="0"/>`,
		`<element name="debug" type="string" maxOccurs="0"/>`, 1)
	s2, err := Parse([]byte(src2))
	if err != nil {
		t.Fatalf("prohibited all member rejected: %v", err)
	}
	typ2 := s2.Roots["config"].Type
	if !typ2.MatchChildren([]string{"host", "port"}) ||
		typ2.MatchChildren([]string{"host", "port", "debug"}) {
		t.Error("prohibited all member must be removed from the group")
	}
}

func TestNondeterministicModelDiagnosis(t *testing.T) {
	// (a{1,3}, a): after one 'a' a second 'a' can continue the counter or
	// move on — a UPA violation only visible through the §3.3 test.
	src := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
  <element name="root">
    <complexType>
      <sequence>
        <element name="a" type="string" maxOccurs="3"/>
        <element name="a" type="string"/>
      </sequence>
    </complexType>
  </element>
</schema>`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	typ := s.Roots["root"].Type
	if typ.Deterministic {
		t.Fatalf("model %s must violate UPA", typ.Model)
	}
	amb := typ.Explain()
	if amb == nil || amb.Rule == "" || amb.Symbol != "a" {
		t.Fatalf("diagnosis = %+v", amb)
	}
	issues := s.Check()
	if len(issues) != 1 || !strings.Contains(issues[0].Msg, "Unique Particle Attribution") {
		t.Fatalf("issues = %v", issues)
	}
	// The counter simulation still decides membership exactly.
	if !typ.MatchChildren([]string{"a", "a"}) || typ.MatchChildren([]string{"a", "a", "a", "a", "a"}) {
		t.Error("nondeterministic counter model mismatched")
	}

	// Plain nondeterminism gets the classical diagnosis with a witness
	// word, exactly like the DTD path.
	src2 := `<schema xmlns="http://www.w3.org/2001/XMLSchema">
  <element name="r">
    <complexType>
      <sequence>
        <element name="a" type="string" minOccurs="0"/>
        <element name="a" type="string"/>
      </sequence>
    </complexType>
  </element>
</schema>`
	s2, err := Parse([]byte(src2))
	if err != nil {
		t.Fatal(err)
	}
	typ2 := s2.Roots["r"].Type
	if typ2.Deterministic {
		t.Fatalf("model %s must violate UPA", typ2.Model)
	}
	amb2 := typ2.Explain()
	if amb2 == nil || amb2.Symbol != "a" || len(amb2.Word) == 0 {
		t.Fatalf("plain diagnosis = %+v", amb2)
	}
}

func TestSchemaErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"not a schema", `<foo/>`, "must be an XML Schema"},
		{"no elements", `<schema xmlns="http://www.w3.org/2001/XMLSchema"><complexType name="t"><sequence/></complexType></schema>`,
			"no top-level elements"},
		{"unknown type", `<schema xmlns="x"><element name="a" type="Missing"/></schema>`, "unknown type"},
		{"bad ref", `<schema xmlns="x"><element name="a"><complexType><sequence><element ref="nope"/></sequence></complexType></element></schema>`,
			"undeclared element"},
		{"wildcard", `<schema xmlns="x"><element name="a"><complexType><sequence><any/></sequence></complexType></element></schema>`,
			"not supported"},
		{"ref with type", `<schema xmlns="x"><element name="a" type="string"/><element name="r"><complexType><sequence><element ref="a" type="string"/></sequence></complexType></element></schema>`,
			"cannot carry a type"},
		{"ref with inline simpleType", `<schema xmlns="x"><element name="a" type="string"/><element name="r"><complexType><sequence><element ref="a"><simpleType/></element></sequence></complexType></element></schema>`,
			"cannot carry an inline type"},
		{"complexContent", `<schema xmlns="x"><element name="a"><complexType><complexContent/></complexType></element></schema>`,
			"not supported"},
		{"group cycle", `<schema xmlns="x">
  <group name="g"><sequence><group ref="g"/></sequence></group>
  <element name="a"><complexType><group ref="g"/></complexType></element>
</schema>`, "cycle"},
		{"dup element", `<schema xmlns="x"><element name="a" type="string"/><element name="a" type="string"/></schema>`,
			"declared twice"},
		{"inconsistent decls", `<schema xmlns="x"><element name="r"><complexType><sequence>
  <element name="a" type="string"/><element name="a"><complexType><sequence/></complexType></element>
</sequence></complexType></element></schema>`, "different types"},
		{"all nested", `<schema xmlns="x"><element name="r"><complexType><sequence><all/></sequence></complexType></element></schema>`,
			"entire content model"},
		{"all maxOccurs", `<schema xmlns="x"><element name="r"><complexType><all><element name="a" type="string" maxOccurs="2"/></all></complexType></element></schema>`,
			"minOccurs 0 or 1 and maxOccurs 1"},
		{"bad occurs", `<schema xmlns="x"><element name="r" minOccurs="3" maxOccurs="2" type="string"/></schema>`,
			"maxOccurs 2 < minOccurs 3"},
		{"contradictory prohibition", `<schema xmlns="x"><element name="r"><complexType><sequence><element name="a" type="string" minOccurs="5" maxOccurs="0"/></sequence></complexType></element></schema>`,
			"maxOccurs 0 < minOccurs 5"},
		{"all group ref occurrence", `<schema xmlns="x">
  <group name="g"><all><element name="a" type="string"/></all></group>
  <element name="r"><complexType><group ref="g" maxOccurs="unbounded"/></complexType></element>
</schema>`, "minOccurs 0 or 1 and maxOccurs 1"},
		{"bad name", "<schema xmlns=\"x\"><element name=\"r\"><complexType><sequence><element name=\"a b\" type=\"string\"/></sequence></complexType></element></schema>",
			"invalid element name"},
		{"non-UTF-8 encoding", `<?xml version="1.0" encoding="ISO-8859-1"?><schema xmlns="x"><element name="a" type="string"/></schema>`,
			"malformed XML"},
		{"undeclared entity in attribute", `<schema xmlns="x"><element name="a&ent;" type="string"/></schema>`,
			"malformed XML"},
		{"mismatched end tag", "<schema xmlns=\"x\">\n<element name=\"a\">\n</elements\n>\n</schema>",
			"line 3: malformed XML"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.src))
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestSchemaMarkupSkipped: markup around the particles — prefixed and
// xml: attributes, comments, processing instructions, CDATA sections and
// text, annotations with arbitrary content — does not change the schema.
func TestSchemaMarkupSkipped(t *testing.T) {
	const doc = `<documentation xml:lang="en">An <b>element</b>: <element name="no"/></documentation><appinfo><sequence/></appinfo>`
	cases := []struct {
		name, src, root, model string
	}{
		{"prefixed attributes", `<schema xmlns="x" xmlns:x="u" xml:lang="en">
  <element x:name="a" name="b" xml:lang="en"><complexType><sequence>
    <element name="c" x:type="T" type="string"/>
  </sequence></complexType></element>
</schema>`, "b", "(c)"},
		{"comments, PIs, CDATA and text", `<?xml version="1.0"?><!-- c --><schema xmlns="x"><!-- c --><?pi data?>text
  <element name="r">t<!-- c --><complexType><![CDATA[<element name="no"/>]]><sequence>
    <?pi?><element name="a" type="string"/><!-- <element name="no"/> -->text<![CDATA[x]]>
    <element name="b" type="string"/>
  </sequence>t</complexType></element>
</schema>`, "r", "(a, b)"},
		{"self-closing annotations", `<schema xmlns="x"><annotation/>
  <group name="g"><annotation/><sequence><annotation/><element name="a" type="string"><annotation/></element></sequence></group>
  <element name="r"><annotation/><complexType><annotation/><group ref="g"/></complexType></element>
</schema>`, "r", "(a)"},
		{"annotations with markup", `<schema xmlns="x"><annotation>` + doc + `</annotation>
  <group name="g"><annotation>` + doc + `</annotation><sequence><annotation>` + doc + `</annotation>
    <element name="a" type="string"><annotation>` + doc + `</annotation></element></sequence></group>
  <element name="r"><annotation>` + doc + `</annotation><complexType><annotation>` + doc + `</annotation>
    <group ref="g"/></complexType></element>
</schema>`, "r", "(a)"},
	}
	for _, c := range cases {
		s, err := ParseWithCache([]byte(c.src), dregex.NewCache(16))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(s.RootOrder) != 1 || s.RootOrder[0] != c.root {
			t.Errorf("%s: roots %v, want [%s]", c.name, s.RootOrder, c.root)
			continue
		}
		if m := s.Roots[c.root].Type.Model; m != c.model {
			t.Errorf("%s: model %q, want %q", c.name, m, c.model)
		}
	}
}

func TestMinOccursZeroParticles(t *testing.T) {
	// maxOccurs=0 prohibits a particle: it is removed from the model and —
	// unlike a genuinely ε branch (an empty sequence, say) — must not make
	// a required choice optional. A fully prohibited model is empty
	// content.
	src := `<schema xmlns="x">
  <element name="r">
    <complexType>
      <sequence>
        <element name="gone" type="string" maxOccurs="0"/>
        <choice>
          <element name="skip" type="string" maxOccurs="0"/>
          <element name="a" type="string"/>
          <element name="b" type="string"/>
        </choice>
      </sequence>
    </complexType>
  </element>
  <element name="opt">
    <complexType>
      <choice>
        <sequence/>
        <element name="a" type="string"/>
      </choice>
    </complexType>
  </element>
  <element name="empty">
    <complexType>
      <sequence>
        <element name="x" type="string" maxOccurs="0"/>
      </sequence>
    </complexType>
  </element>
</schema>`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	typ := s.Roots["r"].Type
	if got, want := typ.Model, "((a | b))"; got != want {
		t.Errorf("model = %q, want %q", got, want)
	}
	if typ.MatchChildren(nil) || !typ.MatchChildren([]string{"b"}) ||
		typ.MatchChildren([]string{"gone"}) || typ.MatchChildren([]string{"a", "b"}) {
		t.Error("required-choice model mismatched")
	}
	// An ε branch (empty sequence) does make a choice optional.
	opt := s.Roots["opt"].Type
	if got, want := opt.Model, "(a)?"; got != want {
		t.Errorf("opt model = %q, want %q", got, want)
	}
	if !opt.MatchChildren(nil) || !opt.MatchChildren([]string{"a"}) {
		t.Error("ε-branch choice must be optional")
	}
	if s.Roots["empty"].Type.Kind != EmptyContent {
		t.Errorf("fully prohibited model kind = %v, want empty", s.Roots["empty"].Type.Kind)
	}

	// An explicit minOccurs="0" alongside maxOccurs="0" is fine; a
	// prohibited ref to an xs:all group yields empty content.
	src2 := `<schema xmlns="x">
  <group name="g"><all><element name="a" type="string"/></all></group>
  <element name="r"><complexType><group ref="g" minOccurs="0" maxOccurs="0"/></complexType></element>
</schema>`
	s2, err := Parse([]byte(src2))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Roots["r"].Type.Kind != EmptyContent {
		t.Errorf("prohibited all-group ref kind = %v, want empty", s2.Roots["r"].Type.Kind)
	}
}

func TestCacheSharesXSDModels(t *testing.T) {
	cache := dregex.NewCache(64)
	src := `<schema xmlns="x"><element name="r"><complexType><sequence>
  <element name="a" type="string" maxOccurs="7"/>
</sequence></complexType></element></schema>`
	s1, err := ParseWithCache([]byte(src), cache)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseWithCache([]byte(src), cache)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Roots["r"].Type.NCM != s2.Roots["r"].Type.NCM {
		t.Error("identical XSD models must share one cached NumericExpr")
	}
	// The XSD key space is distinct from DTD: the same source text
	// compiled as DTD syntax is a separate entry.
	before := cache.Stats()
	if _, err := cache.GetNumeric(s1.Roots["r"].Type.Model, dregex.DTD); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Misses != before.Misses+1 {
		t.Error("DTD-syntax compile of the same text must be a distinct cache entry")
	}
}

// batchSchema has the shape of a typical counter schema: two named types,
// a global root, a counted element and a counted choice.
const batchSchema = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="batch" type="Batch"/>
  <xs:complexType name="Batch">
    <xs:sequence>
      <xs:element name="source" type="xs:string"/>
      <xs:element name="series" type="Series" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Series">
    <xs:sequence>
      <xs:element name="label" type="xs:string"/>
      <xs:element name="point" type="xs:string" minOccurs="2" maxOccurs="12"/>
      <xs:choice minOccurs="0" maxOccurs="3">
        <xs:element name="flag" type="xs:string"/>
        <xs:element name="comment" type="xs:string"/>
      </xs:choice>
      <xs:element name="unit" type="xs:string" minOccurs="0"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>
`

// TestParseWarmAllocs pins the allocations of parsing a schema whose
// models are already cached: decoding, resolution and the validator's
// name tables, with compilation amortized away.
func TestParseWarmAllocs(t *testing.T) {
	const pin = 128
	cache := dregex.NewCache(16)
	src := []byte(batchSchema)
	if _, err := ParseWithCache(src, cache); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := ParseWithCache(src, cache); err != nil {
			t.Fatal(err)
		}
	})
	if n > pin {
		t.Errorf("warm ParseWithCache: %v allocs, want at most %d", n, pin)
	}
}
