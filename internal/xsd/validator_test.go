package xsd

import (
	"fmt"
	"strings"
	"testing"

	"dregex/internal/numeric"
)

const catalogSchema = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="catalog">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="product" type="ProductType" minOccurs="1" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:complexType name="ProductType">
    <xs:sequence>
      <xs:element name="sku" type="xs:string"/>
      <xs:element name="img" type="xs:string" minOccurs="2" maxOccurs="4"/>
      <xs:element name="note" type="NoteType" minOccurs="0"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="NoteType" mixed="true">
    <xs:sequence>
      <xs:element name="em" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>`

func product(imgs int, note string) string {
	var b strings.Builder
	b.WriteString("<product><sku>X</sku>")
	for i := 0; i < imgs; i++ {
		b.WriteString("<img>i</img>")
	}
	b.WriteString(note)
	b.WriteString("</product>")
	return b.String()
}

func TestValidateInstances(t *testing.T) {
	s, err := Parse([]byte(catalogSchema))
	if err != nil {
		t.Fatal(err)
	}
	good := "<catalog>" + product(2, "") + product(4, "<note>plain <em>x</em> text</note>") + "</catalog>"
	errs, err := s.Validate(strings.NewReader(good))
	if err != nil || len(errs) != 0 {
		t.Fatalf("valid document rejected: errs=%v err=%v", errs, err)
	}

	cases := []struct {
		doc  string
		want string // substring of the expected violation
	}{
		{"<catalog>" + product(1, "") + "</catalog>", "children end prematurely"}, // img below minOccurs
		{"<catalog>" + product(5, "") + "</catalog>", "violates content model"},   // img beyond maxOccurs
		{"<catalog></catalog>", "children end prematurely"},                       // no product
		{"<catalog>" + product(2, "<bogus/>") + "</catalog>", "violates content model"},
		{"<wrong/>", "root element is not declared"},
		{"<catalog>" + strings.Replace(product(2, ""), "<sku>X</sku>", "<sku>X</sku>text", 1) + "</catalog>",
			"text content not allowed"},
		{"<catalog>" + strings.Replace(product(2, ""), "<sku>X</sku>", "<sku><sub/></sku>", 1) + "</catalog>",
			"simple content"},
	}
	for _, c := range cases {
		errs, err := s.Validate(strings.NewReader(c.doc))
		if err != nil {
			t.Errorf("doc %.60q: document-level error %v", c.doc, err)
			continue
		}
		found := false
		for _, e := range errs {
			if strings.Contains(e.Msg, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("doc %.60q: violations %v lack %q", c.doc, errs, c.want)
		}
	}

	if _, err := s.Validate(strings.NewReader("<catalog><product>")); err == nil {
		t.Error("malformed XML not reported")
	}
	// A document without any root element (empty or comments-only) is not
	// valid either.
	for _, doc := range []string{"", "<!-- nothing here -->"} {
		if _, err := s.Validate(strings.NewReader(doc)); err == nil ||
			!strings.Contains(err.Error(), "no root element") {
			t.Errorf("rootless document %q: err = %v", doc, err)
		}
	}

	// A second top-level element is not well-formed XML; encoding/xml
	// tokenizes it anyway, so the validator must flag it.
	multi := good + "<catalog>" + product(2, "") + "</catalog>"
	errs, err = s.Validate(strings.NewReader(multi))
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Msg, "more than one root") {
		t.Errorf("multiple roots: got %v, want one more-than-one-root error", errs)
	}
}

func TestValidateAllGroupInstances(t *testing.T) {
	src := `<schema xmlns="x"><element name="cfg"><complexType mixed="true"><all minOccurs="0">
  <element name="host" type="string"/>
  <element name="port" type="string" minOccurs="0"/>
</all></complexType></element></schema>`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	check := func(doc string, wantErrs int) {
		t.Helper()
		errs, err := s.Validate(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if len(errs) != wantErrs {
			t.Errorf("%s: got %v, want %d errors", doc, errs, wantErrs)
		}
	}
	check(`<cfg><port>1</port><host>h</host></cfg>`, 0)
	check(`<cfg>ok text</cfg>`, 0) // allOptional + mixed
	check(`<cfg><port>1</port></cfg>`, 1)
	check(`<cfg><host>h</host><host>h</host></cfg>`, 1)
	check(`<cfg><nope/></cfg>`, 1)
}

// TestValidateAnyType: untyped elements (and explicit xs:anyType) accept
// any children and text unchecked, like DTD's ANY.
func TestValidateAnyType(t *testing.T) {
	src := `<schema xmlns="x">
  <element name="r"><complexType><sequence>
    <element name="blob"/>
    <element name="any2" type="anyType"/>
  </sequence></complexType></element>
</schema>`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	blob := s.Roots["r"].Type.Child("blob").Type
	if blob.Kind != AnyContent || !blob.MatchChildren([]string{"whatever"}) {
		t.Fatalf("untyped element kind = %v, want any", blob.Kind)
	}
	if any2 := s.Roots["r"].Type.Child("any2").Type; any2 != blob {
		t.Error("explicit xs:anyType must intern to the same type")
	}
	doc := `<r><blob>text <x><y/></x> more</blob><any2/></r>`
	errs, err := s.Validate(strings.NewReader(doc))
	if err != nil || len(errs) != 0 {
		t.Fatalf("anyType content rejected: errs=%v err=%v", errs, err)
	}
}

// TestValidateXMLWhitespaceOnly: only XML white space (#x20, #x9, #xD,
// #xA) is ignorable between the children of element-only content; other
// Unicode spaces such as U+00A0 and U+0085 are character data.
func TestValidateXMLWhitespaceOnly(t *testing.T) {
	s, err := Parse([]byte(`<schema xmlns="x"><element name="a"><complexType><sequence>
  <element name="b" type="string"/><element name="c" type="string"/>
</sequence></complexType></element></schema>`))
	if err != nil {
		t.Fatal(err)
	}
	if errs, err := s.ValidateBytes([]byte("<a> \t\r\n<b/>\n<c/> </a>")); err != nil || len(errs) != 0 {
		t.Errorf("XML white space rejected: errs=%v err=%v", errs, err)
	}
	for _, space := range []string{"&#xA0;", "\u00a0", "&#x85;"} {
		doc := "<a>" + space + "<b/><c/></a>"
		errs, err := s.ValidateBytes([]byte(doc))
		if err != nil || len(errs) != 1 || !strings.Contains(errs[0].Msg, "text content not allowed") {
			t.Errorf("%q: errs=%v err=%v, want text content not allowed", doc, errs, err)
		}
	}
}

// TestValidatePrematureEndExpected: children that end before the content
// model is satisfied report the names that could have come next, for plain
// and counter models alike.
func TestValidatePrematureEndExpected(t *testing.T) {
	s, err := Parse([]byte(`<schema xmlns="x">
  <element name="a"><complexType><sequence>
    <element name="b" type="string"/><element name="c" type="string"/>
  </sequence></complexType></element>
  <element name="list"><complexType><sequence>
    <element name="item" type="string" minOccurs="2" maxOccurs="5"/>
  </sequence></complexType></element>
</schema>`))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ doc, want string }{
		{"<a><b/></a>", "c"},
		{"<list><item/></list>", "item"},
	} {
		errs, err := s.ValidateBytes([]byte(c.doc))
		if err != nil || len(errs) != 1 || !strings.Contains(errs[0].Msg, "end prematurely") ||
			strings.Join(errs[0].Expected, ",") != c.want {
			t.Errorf("%s: errs=%v err=%v, want premature end expecting %s", c.doc, errs, err, c.want)
		}
	}
}

// TestValidatePastMaxExpected: a child past its maxOccurs violates the
// counter model and reports the names that could have come instead — a
// 13th point in a point{2,12} series expects what may follow the points.
func TestValidatePastMaxExpected(t *testing.T) {
	s, err := Parse([]byte(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="series"><xs:complexType><xs:sequence>
    <xs:element name="label" type="xs:string"/>
    <xs:element name="point" type="xs:string" minOccurs="2" maxOccurs="12"/>
    <xs:choice minOccurs="0" maxOccurs="3">
      <xs:element name="flag" type="xs:string"/>
      <xs:element name="comment" type="xs:string"/>
    </xs:choice>
    <xs:element name="unit" type="xs:string" minOccurs="0"/>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>`))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		points int
		want   string
	}{
		{12, ""},
		{13, "flag,comment,unit"},
	} {
		doc := "<series><label/>" + strings.Repeat("<point/>", c.points) + "</series>"
		errs, err := s.ValidateBytes([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if c.want == "" {
			if len(errs) != 0 {
				t.Errorf("%d points: %v, want valid", c.points, errs)
			}
			continue
		}
		if len(errs) != 1 || !strings.Contains(errs[0].Msg, "child <point> violates content model") ||
			strings.Join(errs[0].Expected, ",") != c.want {
			t.Errorf("%d points: errs=%v, want a violation expecting %s", c.points, errs, c.want)
		}
	}
}

// TestValidatorConcurrent runs the worker pool over a mixed corpus (run
// with -race in CI: engines and compiled models are shared across
// workers).
func TestValidatorConcurrent(t *testing.T) {
	s, err := Parse([]byte(catalogSchema))
	if err != nil {
		t.Fatal(err)
	}
	var docs []Doc
	wantValid := 0
	for i := 0; i < 200; i++ {
		imgs := 2 + i%4 // 2..5; 5 is invalid
		valid := imgs <= 4
		if valid {
			wantValid++
		}
		docs = append(docs, Doc{
			Name: fmt.Sprintf("doc%d", i),
			Data: []byte("<catalog>" + product(imgs, "") + "</catalog>"),
		})
	}
	v := NewValidator(s, 8)
	results := v.ValidateDocs(docs)
	gotValid := 0
	for i, r := range results {
		if r.Name != docs[i].Name {
			t.Fatalf("result %d out of order: %s", i, r.Name)
		}
		if r.Valid() {
			gotValid++
		}
	}
	if gotValid != wantValid {
		t.Errorf("valid = %d, want %d", gotValid, wantValid)
	}
}

// TestChildrenPathZeroAlloc pins the acceptance criterion: in steady state
// the numeric children-matching path — stream init, one feed per child,
// acceptance check — allocates nothing per document, so corpus validation
// cost is XML decoding plus counter-simulation transitions.
func TestChildrenPathZeroAlloc(t *testing.T) {
	s, err := Parse([]byte(catalogSchema))
	if err != nil {
		t.Fatal(err)
	}
	typ := s.Types["ProductType"]
	if !typ.Numeric {
		t.Fatal("ProductType must use the counter engine")
	}
	children := []string{"sku", "img", "img", "img", "note"}
	var st numeric.Stream
	run := func() {
		typ.nmatcher.InitStream(&st)
		for _, c := range children {
			st.FeedName(c)
		}
		if !st.Accepts() {
			t.Fatal("valid children rejected")
		}
	}
	run() // warm up the stream's buffers
	if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
		t.Errorf("children-model path allocates %.2f/doc, want 0", allocs)
	}

	// Whole-document steady state: everything beyond the XML decoder
	// reuses per-worker state. The decoder itself allocates (tokens,
	// name strings), so pin a generous ceiling rather than zero — the
	// point is that allocations do not scale with the schema or grow run
	// over run.
	doc := "<catalog>" + product(3, "") + product(2, "") + "</catalog>"
	var ds DocState
	if errs, err := s.ValidateReusing(strings.NewReader(doc), &ds); err != nil || len(errs) != 0 {
		t.Fatalf("warm-up: errs=%v err=%v", errs, err)
	}
	r := strings.NewReader("")
	perDoc := testing.AllocsPerRun(200, func() {
		r.Reset(doc)
		if errs, err := s.ValidateReusing(r, &ds); err != nil || len(errs) != 0 {
			t.Fatal("document became invalid")
		}
	})
	t.Logf("whole-document allocations (decoder included): %.1f", perDoc)
}
