package validate_test

import (
	"fmt"
	"strings"
	"testing"

	"dregex"
	"dregex/internal/dtd"
	"dregex/internal/xsd"
)

// wideDTD declares a root whose model (e0|…|e{n-1})* has n positions over
// n names: past dregex.TableBudget for n = 2000, so Auto runs it on KORE,
// and every start tag resolves one of n names.
func wideDTD(n int) string {
	var b strings.Builder
	b.WriteString("<!ELEMENT r (")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "e%d", i)
	}
	b.WriteString(")*>\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<!ELEMENT e%d EMPTY>\n", i)
	}
	return b.String()
}

// wideDoc is a root with children EMPTY children cycling through n names.
func wideDoc(n, children int) []byte {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < children; i++ {
		fmt.Fprintf(&b, "<e%d/>", (i*7)%n)
	}
	b.WriteString("</r>")
	return []byte(b.String())
}

// idDTD and idDoc are an attribute-heavy document: every element carries an
// ID, an IDREF (forward and backward), an IDREFS list, an enumeration and
// CDATA.
const idDTD = `<!ELEMENT doc (item*)>
<!ELEMENT item EMPTY>
<!ATTLIST item id ID #REQUIRED ref IDREF #IMPLIED refs IDREFS #IMPLIED
               kind (a|b|c) "a" note CDATA #IMPLIED>
<!ATTLIST doc id ID #IMPLIED>`

func idDoc(items int) []byte {
	var b strings.Builder
	b.WriteString(`<doc id="root">`)
	for i := 0; i < items; i++ {
		fmt.Fprintf(&b, `<item id="item-%d" ref="item-%d" refs="root item-%d item-%d" kind="%c" note="n%d"/>`,
			i, (i+17)%items, i/2, (i*3)%items, "abc"[i%3], i)
	}
	b.WriteString(`</doc>`)
	return []byte(b.String())
}

// batchXSD is a batch-shaped schema: each series holds point{2,12} and a
// (flag|comment){0,3} choice, so its model runs on the counter engine.
const batchXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="batch"><xs:complexType><xs:sequence>
    <xs:element name="source" type="xs:string"/>
    <xs:element name="series" minOccurs="0" maxOccurs="unbounded"><xs:complexType><xs:sequence>
      <xs:element name="label" type="xs:string"/>
      <xs:element name="point" type="xs:string" minOccurs="2" maxOccurs="12"/>
      <xs:choice minOccurs="0" maxOccurs="3">
        <xs:element name="flag" type="xs:string"/>
        <xs:element name="comment" type="xs:string"/>
      </xs:choice>
      <xs:element name="unit" type="xs:string" minOccurs="0"/>
    </xs:sequence></xs:complexType></xs:element>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>`

// batchDoc is a batch of n series with 2–12 points, 0–3 flags or
// comments and an optional unit each; it returns the document and its
// element count.
func batchDoc(n int) ([]byte, int) {
	var b strings.Builder
	b.WriteString("<batch><source>s</source>")
	elems := 2
	for i := 0; i < n; i++ {
		b.WriteString("<series><label>l</label>")
		points := 2 + i%11
		for j := 0; j < points; j++ {
			fmt.Fprintf(&b, "<point>%d</point>", j)
		}
		extras := i % 4
		for j := 0; j < extras; j++ {
			b.WriteString([]string{"<flag>f</flag>", "<comment>c</comment>"}[(i+j)%2])
		}
		unit := i % 2
		if unit == 1 {
			b.WriteString("<unit>u</unit>")
		}
		b.WriteString("</series>")
		elems += 2 + points + extras + unit
	}
	b.WriteString("</batch>")
	return []byte(b.String()), elems
}

func mustDTD(tb testing.TB, src string) *dtd.DTD {
	tb.Helper()
	d, err := dtd.ParseWithCache(src, dregex.NewCache(16))
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// validateWarm validates doc once through st (growing its buffers) and
// fails on any violation.
func validateWarm(tb testing.TB, d *dtd.DTD, doc []byte, st *dtd.DocState) {
	tb.Helper()
	errs, err := d.ValidateBytesReusing(doc, st)
	if err != nil || len(errs) != 0 {
		tb.Fatalf("valid document rejected: %v %v", errs, err)
	}
}

// TestValidateWideKORE pins the wide benchmark's premise: the root model is
// past the table budget and runs on KORE.
func TestValidateWideKORE(t *testing.T) {
	d := mustDTD(t, wideDTD(2000))
	m, err := d.Elements["r"].CM.Matcher(dregex.Auto)
	if err != nil || m.Algorithm() != dregex.KORE {
		t.Fatalf("root model engine = %v (%v), want kore", m.Algorithm(), err)
	}
	var st dtd.DocState
	validateWarm(t, d, wideDoc(2000, 4000), &st)
}

// TestValidateIDsAllocs: with a warm DocState, validating a document full
// of ID, IDREF and IDREFS attributes allocates nothing — IDs are keyed by
// arena spans, not strings.
func TestValidateIDsAllocs(t *testing.T) {
	d := mustDTD(t, idDTD)
	doc := idDoc(300)
	var st dtd.DocState
	validateWarm(t, d, doc, &st)
	if n := testing.AllocsPerRun(20, func() { d.ValidateBytesReusing(doc, &st) }); n != 0 {
		t.Fatalf("validating an ID-heavy document: %v allocs/doc, want 0", n)
	}
}

// TestValidateIDVerdicts: duplicate IDs and dangling IDREFs are reported
// with the same messages across reuses of one DocState — the ID table is
// reset between documents, not carried over — and at the referencing
// element's full path, like every other violation.
func TestValidateIDVerdicts(t *testing.T) {
	d := mustDTD(t, idDTD)
	var st dtd.DocState
	for round := 0; round < 3; round++ {
		validateWarm(t, d, idDoc(50), &st)
		errs, err := d.ValidateBytesReusing([]byte(
			`<doc><item id="a" ref="c"/><item id="b" refs="a zz"/><item id="a"/></doc>`), &st)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			`ID "a" already used in this document`,
			`IDREF "c" matches no ID in the document`,
			`IDREF "zz" matches no ID in the document`,
		}
		if len(errs) != len(want) {
			t.Fatalf("round %d: errs = %v, want %d", round, errs, len(want))
		}
		for i, e := range errs {
			if e.Msg != want[i] {
				t.Errorf("round %d, error %d = %q, want %q", round, i, e.Msg, want[i])
			}
			if e.Path != "/doc/item" || e.Element != "item" {
				t.Errorf("round %d, error %d at %s <%s>, want /doc/item <item>", round, i, e.Path, e.Element)
			}
		}
	}
}

// BenchmarkValidateWide is the driver's per-element cost on a wide model:
// 4000 EMPTY children over 2000 names under a KORE-tier root.
func BenchmarkValidateWide(b *testing.B) {
	const children = 4000
	d := mustDTD(b, wideDTD(2000))
	doc := wideDoc(2000, children)
	var st dtd.DocState
	validateWarm(b, d, doc, &st)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ValidateBytesReusing(doc, &st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(children+1), "ns/elem")
}

// BenchmarkValidateIDs validates the attribute-heavy ID document.
func BenchmarkValidateIDs(b *testing.B) {
	const items = 300
	d := mustDTD(b, idDTD)
	doc := idDoc(items)
	var st dtd.DocState
	validateWarm(b, d, doc, &st)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ValidateBytesReusing(doc, &st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(items+1), "ns/elem")
}

// BenchmarkValidateCounted is the driver's per-element cost on counter
// models: 300 batch-shaped series, whose children step the point{2,12} and
// (flag|comment){0,3} counters.
func BenchmarkValidateCounted(b *testing.B) {
	s, err := xsd.ParseWithCache([]byte(batchXSD), dregex.NewCache(16))
	if err != nil {
		b.Fatal(err)
	}
	doc, elems := batchDoc(300)
	var st xsd.DocState
	if errs, err := s.ValidateBytesReusing(doc, &st); err != nil || len(errs) != 0 {
		b.Fatalf("valid document rejected: %v %v", errs, err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ValidateBytesReusing(doc, &st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}
