package xmltok

import (
	"bytes"
	"fmt"
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
	for _, tc := range []struct {
		doc, wantSub   string
		off, line, col int
	}{
		{"<a>", "unexpected EOF", 3, 1, 4},
		{"<a></b>", "element <a> closed by </b>", 3, 1, 4},
		{"</a>", "unexpected end element </a>", 0, 1, 1},
		{"<a>x]]>y</a>", "unescaped ]]> not in CDATA", 4, 1, 5},
		{"<a b='<'/>", "unescaped < inside quoted string", 6, 1, 7},
		{"<a>&nosuch;</a>", "invalid character entity", 3, 1, 4},
		{"<a>&#x110000;</a>", "invalid character entity", 3, 1, 4},
		{"<a>\x01</a>", "illegal character code", 3, 1, 4},
		{"<a>\xff</a>", "invalid UTF-8", 3, 1, 4},
		{"<a b=c></a>", "unquoted or missing attribute value", 5, 1, 6},
		{"<a b></a>", "attribute name without =", 4, 1, 5},
		{"<!- x", "invalid sequence <!- not part of <!--", 3, 1, 4},
		{"<!--a--b-->", `invalid sequence "--" not allowed in comments`, 5, 1, 6},
		{"<![CDAT[", "invalid <![ sequence", 7, 1, 8},
		{"<a></a  x>", "invalid characters between </a and >", 8, 1, 9},
		{"<?xml version='2.0'?><a/>", "unsupported version", 0, 1, 1},
		{"<ab></a>", "element <ab> closed by </a>", 4, 1, 5},
		{"<a></ab>", "element <a> closed by </ab>", 3, 1, 4},
		{"<a></a", "unexpected EOF", 6, 1, 7},
		{"<a>x</a>\n</a>", "unexpected end element </a>", 9, 2, 1},
		{"<a>\nx\r\ny]]>z</a>", "unescaped ]]> not in CDATA section", 8, 3, 2},
		{"<a b='x&amp;<'/>", "unescaped < inside quoted string", 12, 1, 13},
		{"<a b='abcdefghé\x01'/>", "illegal character code U+0001", 16, 1, 16},
		{"<a>abcdefgh\uFFFE</a>", "illegal character code U+FFFE", 11, 1, 12},
		{"<a b=\"abc", "unexpected EOF", 9, 1, 10},
		{"<a>\n\t€€<b c='\n\xc3'/></a>", "invalid UTF-8", 18, 3, 1},
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
		se, ok := err.(*SyntaxError)
		if !ok {
			t.Errorf("%q: error %v is not a *SyntaxError", tc.doc, err)
			continue
		}
		if se.Offset != tc.off || se.Line != tc.line || se.Col != tc.col {
			t.Errorf("%q: error at offset %d (%d:%d), want %d (%d:%d)",
				tc.doc, se.Offset, se.Line, se.Col, tc.off, tc.line, tc.col)
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

// TestPositionsLargeDocument locates errors near the end of a 512 KiB
// document, with many lines and with one, against a naive byte count.
func TestPositionsLargeDocument(t *testing.T) {
	for _, nl := range []string{"\n", ""} {
		r := rand.New(rand.NewSource(1))
		var b bytes.Buffer
		b.WriteString("<a>")
		for b.Len() < 512<<10 {
			b.WriteString([]string{"word ", "é ", "€ ", "😀 ", "x\t"}[r.Intn(5)])
			if r.Intn(8) == 0 {
				b.WriteString(nl)
			}
		}
		b.WriteString("</b>")
		doc := b.Bytes()
		naive := func(off int) (line, col int) {
			line, ls := 1, 0
			for i := 0; i < off; i++ {
				if doc[i] == '\n' {
					line, ls = line+1, i+1
				}
			}
			return line, 1 + utf8.RuneCount(doc[ls:off])
		}
		var tok Tokenizer
		tok.Reset(doc)
		var err error
		for err == nil {
			_, err = tok.Next()
		}
		se, ok := err.(*SyntaxError)
		if !ok || se.Offset != len(doc)-4 {
			t.Fatalf("newline %q: error %v, want one at offset %d", nl, err, len(doc)-4)
		}
		if l, c := naive(se.Offset); se.Line != l || se.Col != c {
			t.Errorf("newline %q: error at %d:%d, want %d:%d", nl, se.Line, se.Col, l, c)
		}
		// Later offsets resume from the memo, earlier ones rescan.
		for _, off := range []int{len(doc) - 3, len(doc), len(doc) - 700, len(doc) - 5} {
			wl, wc := naive(off)
			if l, c := tok.Position(off); l != wl || c != wc {
				t.Errorf("newline %q: Position(%d) = %d:%d, want %d:%d", nl, off, l, c, wl, wc)
			}
		}
	}
}

// refText is the byte-at-a-time scan of a text run at lo that the fused
// scan replaced: find the '<', reject "]]>", then resolve.
func refText(t *Tokenizer, lo int) (v valRef, end int, err error) {
	d := t.data
	hi := lo
	for hi < len(d) && d[hi] != '<' {
		hi++
	}
	for i := lo; i+2 < hi; i++ {
		if d[i] == ']' && d[i+1] == ']' && d[i+2] == '>' {
			return valRef{}, 0, t.syntaxErr(i, "unescaped ]]> not in CDATA section")
		}
	}
	v, err = refResolve(t, lo, hi)
	return v, hi, err
}

// refValue is the byte-at-a-time scan of an attribute value at lo, after
// its opening quote q: find the closing quote, reject '<', then resolve.
func refValue(t *Tokenizer, lo int, q byte) (v valRef, end int, err error) {
	d := t.data
	hi := lo
	for hi < len(d) && d[hi] != q {
		hi++
	}
	if hi == len(d) {
		return valRef{}, 0, t.syntaxErr(len(d), "unexpected EOF")
	}
	for i := lo; i < hi; i++ {
		if d[i] == '<' {
			return valRef{}, 0, t.syntaxErr(i, "unescaped < inside quoted string")
		}
	}
	v, err = refResolve(t, lo, hi)
	return v, hi + 1, err
}

// refResolve checks [lo,hi) one byte or rune at a time and returns it as
// is, or hands it to resolveSlow at the first reference or carriage
// return.
func refResolve(t *Tokenizer, lo, hi int) (valRef, error) {
	d := t.data
	for i := lo; i < hi; {
		switch b := d[i]; {
		case b == '&' || b == '\r':
			return t.resolveSlow(lo, hi, true)
		case b == '\t' || b == '\n' || 0x20 <= b && b < utf8.RuneSelf:
			i++
		case b < utf8.RuneSelf:
			return valRef{}, t.syntaxErr(i, "illegal character code %U", rune(b))
		default:
			r, size := utf8.DecodeRune(d[i:hi])
			if r == utf8.RuneError && size == 1 {
				return valRef{}, t.syntaxErr(i, "invalid UTF-8")
			}
			if !isInCharacterRange(r) {
				return valRef{}, t.syntaxErr(i, "illegal character code %U", r)
			}
			i += size
		}
	}
	return valRef{lo, hi, false}, nil
}

// TestScanWordBoundaries puts each byte the fused scan must stop at into
// runs of length 0–24 at every offset 0–17, in text and in values of both
// quote kinds, ending at EOF or before more markup, and requires the
// token, value, error message and error position of the reference scans.
func TestScanWordBoundaries(t *testing.T) {
	pieces := []string{
		"<", "&", "&amp;", "]", "]]>", "\r", "\r\n", "\x01", "\x08", "\x0b", "\x1f",
		"\x7f", "\x80", "\xff", "é", "€", "😀", "\uFFFE", `"`, "'",
	}
	const filler = "ab>d\tf h\nj]lmnopqrstuvwxyzABCD"
	ctxs := []struct {
		open, close string
		q           byte // 0 for text
	}{
		{"<a>", "", 0}, {"<a>", "</a>", 0},
		{`<a v="`, ``, '"'}, {`<a v="`, `"`, '"'}, {`<a v="`, `"><b/></a>`, '"'},
		{`<a v='`, ``, '\''}, {`<a v='`, `'`, '\''}, {`<a v='`, `'><b/></a>`, '\''},
	}
	var got, want Tokenizer
	sameErr := func(a, b error) bool {
		if a == nil || b == nil {
			return a == nil && b == nil
		}
		sa, ok1 := a.(*SyntaxError)
		sb, ok2 := b.(*SyntaxError)
		return ok1 && ok2 && *sa == *sb
	}
	for _, p := range pieces {
		for size := 0; size <= 24; size++ {
			for at := 0; at <= 17 && at <= size; at++ {
				run := filler[:at] + p + filler[at:size]
				for _, c := range ctxs {
					doc := []byte(c.open + run + c.close)
					lo := len(c.open)
					got.Reset(doc)
					want.Reset(doc)
					var gv, wv valRef
					var gend, wend int
					var gerr, werr error
					if c.q == 0 {
						got.pos, got.tokOff = lo, lo
						_, gerr = got.scanText()
						gv, gend = got.content, got.pos
						wv, wend, werr = refText(&want, lo)
					} else {
						got.pos = lo
						gv, gerr = got.scanValue(c.q)
						gend = got.pos
						wv, wend, werr = refValue(&want, lo, c.q)
					}
					switch {
					case !sameErr(gerr, werr):
						t.Errorf("%q at %d: error %v, want %v", doc, lo, gerr, werr)
					case gerr != nil:
					case gend != wend || gv.scratch != wv.scratch ||
						!bytes.Equal(got.bytesOf(gv), want.bytesOf(wv)):
						t.Errorf("%q at %d: %q (scratch %v) ending at %d, want %q (scratch %v) ending at %d",
							doc, lo, got.bytesOf(gv), gv.scratch, gend, want.bytesOf(wv), wv.scratch, wend)
					}
				}
			}
		}
	}
}

// largeDoc builds a seeded document of about size bytes shaped like a
// record ledger: elements with 1–5 attributes and text runs of 40–230
// bytes, a few of them with a reference or a \r\n.
func largeDoc(size int) []byte {
	r := rand.New(rand.NewSource(1))
	words := strings.Fields(`amber basalt cedar delta ember fjord granite harbor
		indigo juniper kelp lumen meadow nectar onyx pewter quartz river`)
	var b bytes.Buffer
	b.WriteString("<ledger region=\"eu\">\n")
	for b.Len() < size {
		b.WriteString("<line")
		for i, n := 0, 1+r.Intn(5); i < n; i++ {
			fmt.Fprintf(&b, ` a%d="%s-%04d"`, i, words[r.Intn(len(words))], r.Intn(10000))
		}
		b.WriteByte('>')
		for end := b.Len() + 40 + r.Intn(191); b.Len() < end; {
			b.WriteString(words[r.Intn(len(words))])
			b.WriteByte(' ')
		}
		switch r.Intn(32) {
		case 0:
			b.WriteString("&amp; co")
		case 1:
			b.WriteString("\r\n")
		}
		b.WriteString("</line>\n")
	}
	b.WriteString("</ledger>\n")
	return b.Bytes()
}

func BenchmarkXMLTokLarge(b *testing.B) {
	data := largeDoc(200 << 10)
	var tok Tokenizer
	scan := func() {
		tok.Reset(data)
		for {
			_, err := tok.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	scan() // warmup: grow stack, attrs, scratch
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
}
