package xmltok

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// walk collects (kind, name, text) triples until EOF or error.
func walk(t *testing.T, tok *Tokenizer) []string {
	t.Helper()
	var out []string
	for {
		k, err := tok.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v (after %v)", err, out)
		}
		switch k {
		case StartElement:
			s := "<" + string(tok.Name())
			for i := 0; i < tok.AttrCount(); i++ {
				s += " " + string(tok.AttrName(i)) + "=" + string(tok.AttrValue(i))
			}
			out = append(out, s+">")
		case EndElement:
			out = append(out, "</"+string(tok.Name())+">")
		case Text:
			out = append(out, "T:"+string(tok.Text()))
		case Comment:
			out = append(out, "C:"+string(tok.Text()))
		case ProcInst:
			out = append(out, "PI:"+string(tok.Name())+":"+string(tok.Text()))
		case Directive:
			out = append(out, "D:"+string(tok.Text()))
		}
	}
}

func tokens(t *testing.T, doc string, ents map[string]string) []string {
	t.Helper()
	var tok Tokenizer
	tok.Reset([]byte(doc))
	tok.SetEntities(ents)
	return walk(t, &tok)
}

func TestBasicDocument(t *testing.T) {
	got := tokens(t, `<?xml version="1.0"?><!DOCTYPE a><a x="1" y='2'><b/>hi<!--c--></a>`, nil)
	want := []string{
		`PI:xml:version="1.0"`,
		"D:DOCTYPE a",
		"<a x=1 y=2>",
		"<b>", "</b>",
		"T:hi",
		"C:c",
		"</a>",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestEntitiesAndCharRefs(t *testing.T) {
	ents := map[string]string{"e": "xyz", "empty": ""}
	got := tokens(t, `<a b="&lt;&e;&#65;&#x42;">&amp;&empty;&#xD800;</a>`, ents)
	want := []string{
		"<a b=<xyzAB>",
		"T:&�", // surrogate charref encodes as U+FFFD, as encoding/xml does
		"</a>",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestCRNormalization(t *testing.T) {
	got := tokens(t, "<a c=\"x\r\ny\rz\">p\r\nq\rr&#13;\n</a>", nil)
	want := []string{"<a c=x\ny\nz>", "T:p\nq\nr\r\n", "</a>"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestCDATA(t *testing.T) {
	got := tokens(t, "<a>x<![CDATA[a&lt;]]b<>]]>y</a>", nil)
	want := []string{"<a>", "T:x", "T:a&lt;]]b<>", "T:y", "</a>"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestDirectiveWithComment(t *testing.T) {
	got := tokens(t, `<!DOCTYPE a [<!ENTITY e "v"><!--note-->]><a>&e;</a>`,
		map[string]string{"e": "v"})
	want := []string{`D:DOCTYPE a [<!ENTITY e "v"> ]`, "<a>", "T:v", "</a>"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestSelfClosingDepth(t *testing.T) {
	var tok Tokenizer
	tok.Reset([]byte(`<a><b/></a>`))
	k, _ := tok.Next()
	if k != StartElement || tok.Depth() != 1 {
		t.Fatalf("a: kind %v depth %d", k, tok.Depth())
	}
	k, _ = tok.Next()
	if k != StartElement || !tok.SelfClosing() || tok.Depth() != 2 {
		t.Fatalf("b start: kind %v self %v depth %d", k, tok.SelfClosing(), tok.Depth())
	}
	k, _ = tok.Next()
	if k != EndElement || string(tok.Name()) != "b" || tok.Depth() != 1 {
		t.Fatalf("b end: kind %v name %q depth %d", k, tok.Name(), tok.Depth())
	}
}

func TestLocalNames(t *testing.T) {
	for _, tc := range []struct{ name, local string }{
		{"a", "a"}, {"p:a", "a"}, {":a", ":a"}, {"a:", "a:"}, {"xml:space", "space"},
	} {
		if got := string(localOf([]byte(tc.name))); got != tc.local {
			t.Errorf("localOf(%q) = %q, want %q", tc.name, got, tc.local)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	for _, tc := range []struct{ doc, wantSub string }{
		{"<a>", "unexpected EOF"},
		{"<a></b>", "element <a> closed by </b>"},
		{"</a>", "unexpected end element </a>"},
		{"<a>x]]>y</a>", "unescaped ]]> not in CDATA"},
		{"<a b='<'/>", "unescaped < inside quoted string"},
		{"<a>&nosuch;</a>", "invalid character entity"},
		{"<a>&#x110000;</a>", "invalid character entity"},
		{"<a>\x01</a>", "illegal character code"},
		{"<a>\xff</a>", "invalid UTF-8"},
		{"<a b=c></a>", "unquoted or missing attribute value"},
		{"<a b></a>", "attribute name without ="},
		{"<!- x", "invalid sequence <!- not part of <!--"},
		{"<!--a--b-->", `invalid sequence "--" not allowed in comments`},
		{"<![CDAT[", "invalid <![ sequence"},
		{"<a></a  x>", "invalid characters between </a and >"},
		{"<?xml version='2.0'?><a/>", "unsupported version"},
	} {
		var tok Tokenizer
		tok.Reset([]byte(tc.doc))
		var err error
		for err == nil {
			_, err = tok.Next()
		}
		if err == io.EOF {
			t.Errorf("%q: no error, want %q", tc.doc, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%q: error %q, want substring %q", tc.doc, err, tc.wantSub)
		}
	}
}

func TestPositions(t *testing.T) {
	// Multi-byte text before the error: columns count runes, not bytes.
	doc := "<a>\n ééé <b></c>\n</a>"
	var tok Tokenizer
	tok.Reset([]byte(doc))
	var err error
	for err == nil {
		_, err = tok.Next()
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error %v is not a *SyntaxError", err)
	}
	if se.Line != 2 || se.Col != 9 {
		t.Errorf("error at %d:%d, want 2:9 (runes, not bytes)", se.Line, se.Col)
	}
}

func TestPositionsBOM(t *testing.T) {
	// A BOM must not shift positions: the first visible byte is 1:1.
	doc := "\uFEFF<a></b>"
	var tok Tokenizer
	tok.Reset([]byte(doc))
	var err error
	for err == nil {
		_, err = tok.Next()
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error %v is not a *SyntaxError", err)
	}
	if se.Line != 1 || se.Col != 4 {
		t.Errorf("error at %d:%d, want 1:4 (BOM stripped)", se.Line, se.Col)
	}
	if line, col := tok.Position(0); line != 1 || col != 1 {
		t.Errorf("Position(0) = %d:%d, want 1:1", line, col)
	}
}

func TestPositionMemoBackward(t *testing.T) {
	var tok Tokenizer
	tok.Reset([]byte("a\nbc\ndef"))
	if l, c := tok.Position(7); l != 3 || c != 3 {
		t.Fatalf("Position(7) = %d:%d, want 3:3", l, c)
	}
	if l, c := tok.Position(2); l != 2 || c != 1 {
		t.Errorf("backward Position(2) = %d:%d, want 2:1", l, c)
	}
}

// TestPositionColumnMemo: memoized columns agree with a count from the
// line start for every offset, in increasing and in arbitrary order, over
// multi-byte text, stray continuation bytes and truncated sequences.
func TestPositionColumnMemo(t *testing.T) {
	doc := []byte("ab\xc3\xa9\xe2\x82\xac\n\x80\xbf x\xe2\x82\n\xf0\x9f\x98\x80\xe2y\n\nz\xc3")
	naive := func(off int) (int, int) {
		ls := bytes.LastIndexByte(doc[:off], '\n') + 1
		return 1 + bytes.Count(doc[:off], []byte("\n")), 1 + utf8.RuneCount(doc[ls:off])
	}
	var tok Tokenizer
	check := func(off int) {
		t.Helper()
		wl, wc := naive(off)
		if l, c := tok.Position(off); l != wl || c != wc {
			t.Fatalf("Position(%d) = %d:%d, want %d:%d", off, l, c, wl, wc)
		}
	}
	tok.Reset(doc)
	for off := 0; off <= len(doc); off++ {
		check(off)
	}
	tok.Reset(doc)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		check(r.Intn(len(doc) + 1))
	}
}

const allocTestDoc = `<?xml version="1.0"?><library owner="mia &amp; co">` +
	`<book id="b1"><title>A &lt;quiet&gt; place</title><author>M</author><year>2001</year></book>` +
	`<book id="b2"><title>Two</title><author>N&e;</author><year>2002</year></book>` +
	`</library>`

// TestTokenizeAllocs pins steady-state tokenization at zero allocations
// per document (after one warmup to size the internal buffers).
func TestTokenizeAllocs(t *testing.T) {
	ents := map[string]string{"e": "ö"}
	data := []byte(allocTestDoc)
	var tok Tokenizer
	run := func() {
		tok.Reset(data)
		tok.SetEntities(ents)
		for {
			k, err := tok.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if k == StartElement {
				for i := 0; i < tok.AttrCount(); i++ {
					_ = tok.AttrValue(i)
				}
			}
		}
	}
	run() // warmup: grow stack, attrs, scratch
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("steady-state tokenization allocates %v per doc, want 0", n)
	}
}

func BenchmarkXMLTok(b *testing.B) {
	data := []byte(allocTestDoc)
	ents := map[string]string{"e": "ö"}
	var tok Tokenizer
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok.Reset(data)
		tok.SetEntities(ents)
		for {
			_, err := tok.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
