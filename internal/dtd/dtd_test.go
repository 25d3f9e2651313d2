package dtd

import (
	"strings"
	"testing"

	"dregex/internal/match"
)

const bookDTD = `
<!-- a small publishing DTD -->
<!ELEMENT book (title, author+, chapter+, appendix*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT chapter (title, (para | figure)*)>
<!ELEMENT appendix (title, para*)>
<!ELEMENT para (#PCDATA | em | code)*>
<!ELEMENT em (#PCDATA)>
<!ELEMENT code EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ELEMENT figure EMPTY>
`

func TestParseAndCheck(t *testing.T) {
	d, err := Parse(bookDTD)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Elements) != 9 {
		t.Fatalf("parsed %d elements, want 9", len(d.Elements))
	}
	if issues := d.Check(); len(issues) != 0 {
		t.Fatalf("clean DTD reported issues: %v", issues)
	}
	book := d.Elements["book"]
	if book.Kind != Children || !book.Deterministic {
		t.Errorf("book: kind=%v det=%v", book.Kind, book.Deterministic)
	}
	para := d.Elements["para"]
	if para.Kind != Mixed || !para.allowed["em"] || para.allowed["b"] {
		t.Errorf("para mixed model wrong: %+v", para)
	}
	if code := d.Elements["code"]; code.Kind != Empty {
		t.Errorf("code: kind=%v", code.Kind)
	}
	refs := book.References()
	if strings.Join(refs, " ") != "appendix author chapter title" {
		t.Errorf("book references = %v", refs)
	}
}

func TestNondeterministicModels(t *testing.T) {
	d, err := Parse(`
<!ELEMENT a ((b, c) | (b, d))>
<!ELEMENT m (#PCDATA | x | y | x)*>
<!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>
<!ELEMENT x EMPTY><!ELEMENT y EMPTY>
`)
	if err != nil {
		t.Fatal(err)
	}
	issues := d.Check()
	var aFound, mFound bool
	for _, is := range issues {
		if is.Element == "a" {
			aFound = true
		}
		if is.Element == "m" {
			mFound = true
		}
	}
	if !aFound {
		t.Error("(b,c)|(b,d) not reported as nondeterministic")
	}
	if !mFound {
		t.Error("duplicate mixed name not reported")
	}
}

func TestUndeclaredReference(t *testing.T) {
	d, err := Parse(`<!ELEMENT r (s, t?)><!ELEMENT s EMPTY>`)
	if err != nil {
		t.Fatal(err)
	}
	issues := d.Check()
	if len(issues) != 1 || !strings.Contains(issues[0].Msg, `"t"`) {
		t.Fatalf("issues = %v", issues)
	}
}

func validateString(t *testing.T, d *DTD, doc string) []ValidationError {
	t.Helper()
	errs, err := d.Validate(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return errs
}

func TestValidateDocuments(t *testing.T) {
	d, err := Parse(bookDTD)
	if err != nil {
		t.Fatal(err)
	}
	good := `<book isbn="i1">
  <title>T</title>
  <author>A</author><author>B</author>
  <chapter><title>C1</title><para>text <em>emph</em> more</para><figure/></chapter>
  <appendix><title>Ap</title></appendix>
</book>`
	if errs := validateString(t, d, good); len(errs) != 0 {
		t.Fatalf("valid document rejected: %v", errs)
	}

	cases := []struct {
		name string
		doc  string
		frag string // expected substring of the first error
	}{
		{"missing author", `<book isbn="i1"><title>T</title><chapter><title>c</title></chapter></book>`,
			"violates content model"},
		{"premature end", `<book isbn="i1"><title>T</title><author>A</author></book>`,
			"end prematurely"},
		{"undeclared child", `<book isbn="i1"><title>T</title><author>A</author><chapter><title>c</title><mystery/></chapter></book>`,
			"not declared"},
		{"empty with child", `<book isbn="i1"><title>T</title><author>A</author><chapter><title>c</title><figure><em>x</em></figure></chapter></book>`,
			"EMPTY element has child"},
		{"text in children model", `<book isbn="i1">stray<title>T</title><author>A</author><chapter><title>c</title></chapter></book>`,
			"text content not allowed"},
		{"mixed violation", `<book isbn="i1"><title>T</title><author>A</author><chapter><title>c</title><para><figure/></para></chapter></book>`,
			"not allowed in mixed model"},
	}
	for _, c := range cases {
		errs := validateString(t, d, c.doc)
		if len(errs) == 0 {
			t.Errorf("%s: no errors reported", c.name)
			continue
		}
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), c.frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: errors %v lack %q", c.name, errs, c.frag)
		}
	}
}

func TestValidateMalformedXML(t *testing.T) {
	d, err := Parse(`<!ELEMENT a EMPTY>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Validate(strings.NewReader("<a><unclosed></a>")); err == nil {
		t.Error("malformed XML not reported")
	}
}

func TestParseNoPhantomDeclarations(t *testing.T) {
	// Regression: with the old quote-blind scanner this parsed as
	// [a evil b] — the '>' inside "a>b" ended the ATTLIST early and the
	// <!ELEMENT text inside the second default value became a declaration.
	d, err := Parse(`<!ELEMENT a (b)>
<!ATTLIST a x CDATA "a>b" y CDATA "<!ELEMENT evil (b)>">
<!ELEMENT b EMPTY>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(d.Order, " "); got != "a b" {
		t.Fatalf("Order = [%s], want [a b]", got)
	}
	if _, ok := d.Elements["evil"]; ok {
		t.Fatal("phantom element 'evil' fabricated from quoted text")
	}
}

func TestParseIgnoreSection(t *testing.T) {
	// Regression: <!ELEMENT ghost …> inside <![IGNORE[ … ]]> must not be
	// declared; nested sections are skipped whole, and INCLUDE contents
	// are processed as if written at top level.
	d, err := Parse(`<!ELEMENT a (b?)>
<![IGNORE[
  <!ELEMENT ghost (b, c)>
  <![INCLUDE[ <!ELEMENT ghost2 EMPTY> ]]>
]]>
<![INCLUDE[ <!ELEMENT b EMPTY> ]]>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(d.Order, " "); got != "a b" {
		t.Fatalf("Order = [%s], want [a b]", got)
	}
	if _, ok := d.Elements["ghost"]; ok {
		t.Fatal("IGNORE'd element 'ghost' declared")
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("<!ELEMENT a (b)>\n<!ELEMENT bad (c | )>\n<!ELEMENT b EMPTY>")
	if err == nil || !strings.Contains(err.Error(), "2:1") {
		t.Errorf("compile error lacks declaration position: %v", err)
	}
	_, err = Parse("<!ELEMENT a EMPTY>\n\n<!ELEMENT a EMPTY>")
	if err == nil || !strings.Contains(err.Error(), "3:1") {
		t.Errorf("duplicate error lacks position: %v", err)
	}
}

func TestElementOffsets(t *testing.T) {
	src := "<!-- c -->\n<!ELEMENT a (b*)>\n<!ELEMENT b EMPTY>"
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range d.Order {
		off := d.Elements[name].Offset
		if !strings.HasPrefix(src[off:], "<!ELEMENT") {
			t.Errorf("element %q Offset %d does not point at its declaration", name, off)
		}
	}
}

func TestValidateDoctypeRootMismatch(t *testing.T) {
	d, err := Parse(`<!ELEMENT a EMPTY><!ELEMENT b EMPTY>`)
	if err != nil {
		t.Fatal(err)
	}
	errs := validateString(t, d, `<!DOCTYPE a><b/>`)
	if len(errs) != 1 || !strings.Contains(errs[0].Msg, "does not match DOCTYPE a") {
		t.Fatalf("errs = %v, want DOCTYPE mismatch", errs)
	}
	if errs := validateString(t, d, `<!DOCTYPE a><a/>`); len(errs) != 0 {
		t.Fatalf("matching DOCTYPE rejected: %v", errs)
	}
	if errs := validateString(t, d, `<a/>`); len(errs) != 0 {
		t.Fatalf("document without DOCTYPE rejected: %v", errs)
	}
	// A prefixed DOCTYPE name compares by its local part, like every other
	// element name in the validator.
	if errs := validateString(t, d, `<!DOCTYPE x:a><x:a xmlns:x="u"/>`); len(errs) != 0 {
		t.Fatalf("prefixed DOCTYPE root rejected: %v", errs)
	}
}

// TestValidateOneRoot: a document has exactly one root element. A second
// top-level element is reported (its subtree skipped), and a document with
// no element at all is a document-level error, not a valid document.
func TestValidateOneRoot(t *testing.T) {
	d, err := Parse(`<!ELEMENT a (b, c)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>`)
	if err != nil {
		t.Fatal(err)
	}
	errs := validateString(t, d, `<a><b/><c/></a><a><b/><c/></a>`)
	if len(errs) != 1 || !strings.Contains(errs[0].Msg, "more than one root element") ||
		errs[0].Path != "/a" || errs[0].Col != 16 {
		t.Errorf("two roots: errs = %v, want one more-than-one-root error at 1:16", errs)
	}
	for _, doc := range []string{"", `<?xml version="1.0"?>`, `<!DOCTYPE a><!-- no element -->`} {
		errs, err := d.ValidateBytes([]byte(doc))
		if err == nil || err.Error() != "dtd: document has no root element" || len(errs) != 0 {
			t.Errorf("rootless document %q: errs=%v err=%v, want dtd: document has no root element", doc, errs, err)
		}
	}
}

func TestInternalSubset(t *testing.T) {
	doc := []byte(`<?xml version="1.0"?>
<!DOCTYPE note [
  <!ELEMENT note (to, body?)>
  <!ELEMENT to (#PCDATA)>
  <!ELEMENT body (#PCDATA)>
  <!ATTLIST note id CDATA "x]y">
]>
<note><to>T</to></note>`)
	root, subset, err := InternalSubset(doc)
	if err != nil {
		t.Fatal(err)
	}
	if root != "note" {
		t.Errorf("root = %q, want note", root)
	}
	if !strings.Contains(subset, "<!ELEMENT note") || !strings.Contains(subset, `"x]y"`) {
		t.Errorf("subset truncated: %q", subset)
	}

	d, err := DocumentDTD(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(d.Order, " "); got != "note to body" {
		t.Fatalf("Order = [%s]", got)
	}
	if errs := validateString(t, d, string(doc)); len(errs) != 0 {
		t.Fatalf("standalone document invalid against its own subset: %v", errs)
	}

	if _, _, err := InternalSubset([]byte(`<a/>`)); err == nil {
		t.Error("missing DOCTYPE not reported")
	}
	if _, err := DocumentDTD([]byte(`<!DOCTYPE a SYSTEM "a.dtd"><a/>`), nil); err == nil {
		t.Error("DOCTYPE without internal subset not reported")
	}
}

// TestChildrenPathZeroAlloc pins the acceptance criterion: in steady state
// the children-model matching path — stream init, one feed per child,
// acceptance check — allocates nothing, so corpus validation cost is XML
// decoding plus O(1)-state transitions.
func TestChildrenPathZeroAlloc(t *testing.T) {
	d, err := Parse(bookDTD)
	if err != nil {
		t.Fatal(err)
	}
	book := d.Elements["book"]
	children := []string{"title", "author", "author", "chapter", "appendix"}
	var s match.Stream
	allocs := testing.AllocsPerRun(1000, func() {
		book.matcher.InitStream(&s)
		for _, c := range children {
			s.FeedName(c)
		}
		if !s.Accepts() {
			t.Fatal("valid children rejected")
		}
	})
	if allocs != 0 {
		t.Errorf("children-model path allocates %.1f/doc, want 0", allocs)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"<!ELEMENT>",
		"<!ELEMENT a (b",
		"<!ELEMENT a (#PCDATA | )*>",
		"<!ELEMENT a (x | #PCDATA)*>",
		"<!ELEMENT a (b{2,3})>",
		"<!ELEMENT a EMPTY><!ELEMENT a EMPTY>",
		"<!-- unterminated",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}
