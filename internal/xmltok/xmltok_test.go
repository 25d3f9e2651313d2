package xmltok

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"unicode"
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
	got := tokens(t, "<a>x<![CDATA[a&lt;]]b<>]]>y<![CDATA[p\r\nq\rr&amp;\r]]></a>", nil)
	want := []string{"<a>", "T:x", "T:a&lt;]]b<>", "T:y", "T:p\nq\nr&amp;\n", "</a>"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %q want %q", got, want)
	}
}

// TestEntityReplacementChecked: the scan does not read replacement text,
// so a reference's expansion is range-checked on its own and a fault in
// it is reported at the '&'. An entity value that is not valid UTF-8 by
// itself fails even where the bytes after the reference would complete
// its last sequence (encoding/xml, which checks the joined text, reads
// "é" there).
func TestEntityReplacementChecked(t *testing.T) {
	ents := map[string]string{"ctl": "a\x01", "half": "\xc3", "ok": "é\r"}
	if got := tokens(t, "<a b='x&ok;'>&ok;\n&amp;</a>", ents); strings.Join(got, "|") != "<a b=xé\r>|T:é\r\n&|</a>" {
		t.Errorf("got %q", got)
	}
	for _, tc := range []struct {
		doc, want string
		off       int
	}{
		{"<a>xy&ctl;</a>", "illegal character code U+0001", 5},
		{"<a>xy&#1;</a>", "illegal character code U+0001", 5}, // the reference scans: 3
		{"<a b='&ctl;'/>", "illegal character code U+0001", 6},
		{"<a>&half;\xa9</a>", "invalid UTF-8", 3},
		{"<a>&#0;</a>", "illegal character code U+0000", 3},
		{"<a>&#xFFFF;</a>", "illegal character code U+FFFF", 3},
	} {
		var tok Tokenizer
		tok.Reset([]byte(tc.doc))
		tok.SetEntities(ents)
		var err error
		for err == nil {
			_, err = tok.Next()
		}
		se, ok := err.(*SyntaxError)
		if !ok || se.Msg != tc.want || se.Offset != tc.off {
			t.Errorf("%q: error %v, want %q at offset %d", tc.doc, err, tc.want, tc.off)
		}
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
		{"<a>&#x4?;</a>", "invalid character entity", 3, 1, 4},
		{"<a>&#4a;</a>", "invalid character entity", 3, 1, 4},
		{"<a>&#x;</a>", "invalid character entity", 3, 1, 4},
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
		// A character fault after a reference or a carriage return is
		// reported at its own offset, ahead of a later bad reference.
		{"<a>xy&amp;&#1;zw</a>", "illegal character code U+0001", 10, 1, 11},
		{"<a>ab\r\n\x01</a>", "illegal character code U+0001", 7, 2, 1},
		{"<a b='c\rd\xffe'/>", "invalid UTF-8", 9, 1, 10},
		{"<a>x&#1;&</a>", "illegal character code U+0001", 4, 1, 5},
		{"<a>x&amp;\uFFFE&y;</a>", "illegal character code U+FFFE", 9, 1, 10},
		// Faults of the whole run still come first.
		{"<a>x&#1;]]></a>", "unescaped ]]> not in CDATA section", 8, 1, 9},
		{"<a b='&#1;<'/>", "unescaped < inside quoted string", 10, 1, 11},
		{"<a b='&#1;", "unexpected EOF", 10, 1, 11},
		// CDATA: '&' and '<' are literal, "]]>" ends the section.
		{"<a><![CDATA[x\r\n\x01]]></a>", "illegal character code U+0001", 15, 2, 1},
		{"<a><![CDATA[x&\x01", "unexpected EOF in CDATA section", 15, 1, 16},
		{"<a><![CDATA[x]]", "unexpected EOF in CDATA section", 15, 1, 16},
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

// The ref* functions are the byte-at-a-time scans that scanRun replaced,
// kept as its oracle: find the end of the run, reject what breaks the run
// as a whole, then resolve it, rewriting the whole run into scratch at its
// first reference or carriage return and range-checking the result.

// refText scans a text run at lo: find the '<', reject "]]>", resolve.
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
	v, err = refResolve(t, lo, hi, true)
	return v, hi, err
}

// refValue scans an attribute value at lo, after its opening quote q:
// find the closing quote, reject '<', resolve.
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
	v, err = refResolve(t, lo, hi, true)
	return v, hi + 1, err
}

// refCDATA scans a CDATA section's body at lo: find "]]>", then resolve
// with '&' taken literally.
func refCDATA(t *Tokenizer, lo int) (v valRef, end int, err error) {
	d := t.data
	hi := lo
	for hi+2 < len(d) && !(d[hi] == ']' && d[hi+1] == ']' && d[hi+2] == '>') {
		hi++
	}
	if hi+2 >= len(d) {
		return valRef{}, 0, t.syntaxErr(len(d), "unexpected EOF in CDATA section")
	}
	v, err = refResolve(t, lo, hi, false)
	return v, hi + 3, err
}

// refResolve checks [lo,hi) one byte or rune at a time and returns it as
// is, or hands it to refResolveSlow at the first carriage return or, with
// entities set, reference.
func refResolve(t *Tokenizer, lo, hi int, entities bool) (valRef, error) {
	d := t.data
	for i := lo; i < hi; {
		switch b := d[i]; {
		case b == '&' && entities || b == '\r':
			return refResolveSlow(t, lo, hi, entities)
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

// refResolveSlow rewrites [lo,hi) into scratch byte by byte: references
// expanded, \r and \r\n rewritten to \n (replacement text is inserted
// verbatim and resets the \r state). The result is then range-checked as
// a whole, so a fault in it is reported at lo, after any bad reference.
func refResolveSlow(t *Tokenizer, lo, hi int, entities bool) (valRef, error) {
	d := t.data
	s := t.scratch
	slo := len(s)
	prevCR := false
	for i := lo; i < hi; {
		b := d[i]
		switch {
		case b == '&' && entities:
			var err error
			if s, i, err = refReference(t, s, i, hi); err != nil {
				t.scratch = s
				return valRef{}, err
			}
			prevCR = false
		case b == '\r':
			s = append(s, '\n')
			prevCR = true
			i++
		case b == '\n' && prevCR:
			prevCR = false
			i++
		default:
			s = append(s, b)
			prevCR = false
			i++
		}
	}
	t.scratch = s
	if err := refCheckChars(t, s[slo:], lo); err != nil {
		return valRef{}, err
	}
	return valRef{slo, len(s), true}, nil
}

// refCheckChars range-checks resolved text, reporting a fault at errOff.
func refCheckChars(t *Tokenizer, b []byte, errOff int) error {
	for len(b) > 0 {
		r, size := utf8.DecodeRune(b)
		if r == utf8.RuneError && size == 1 {
			return t.syntaxErr(errOff, "invalid UTF-8")
		}
		if !isInCharacterRange(r) {
			return t.syntaxErr(errOff, "illegal character code %U", r)
		}
		b = b[size:]
	}
	return nil
}

// refReference expands the reference at i within [i,hi), appending its
// replacement text unchecked, and returns the position past the ';'.
func refReference(t *Tokenizer, s []byte, i, hi int) ([]byte, int, error) {
	d := t.data
	j := i + 1
	if j < hi && d[j] == '#' {
		j++
		base := 10
		if j < hi && d[j] == 'x' {
			base = 16
			j++
		}
		start := j
		n := 0
		for ; j < hi; j++ {
			v := strings.IndexByte("0123456789abcdef", d[j]|0x20*byte(base/16))
			if v < 0 || v >= base || d[j] < '0' {
				break
			}
			if n = n*base + v; n > unicode.MaxRune {
				n = unicode.MaxRune + 1
			}
		}
		if j == start || j >= hi || d[j] != ';' || n > unicode.MaxRune {
			return s, 0, t.syntaxErr(i, "invalid character entity")
		}
		return utf8.AppendRune(s, rune(n)), j + 1, nil
	}
	start := j
	for j < hi && nameByte[d[j]] {
		j++
	}
	if j == start || j >= hi || d[j] != ';' {
		return s, 0, t.syntaxErr(i, "invalid character entity")
	}
	name := string(d[start:j])
	if v, ok := map[string]string{"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": `"`}[name]; ok {
		return append(s, v...), j + 1, nil
	}
	if v, ok := t.entities[name]; ok {
		return append(s, v...), j + 1, nil
	}
	return s, 0, t.syntaxErr(i, "invalid character entity &%s;", name)
}

// A runCtx places a run in a document: text (q 0), a CDATA section's body
// or an attribute value quoted by q, ending at EOF or before more markup.
type runCtx struct {
	open, close string
	q           byte
	cdata       bool
}

var runCtxs = []runCtx{
	{"<a>", "", 0, false}, {"<a>", "</a>", 0, false},
	{`<a v="`, ``, '"', false}, {`<a v="`, `"`, '"', false}, {`<a v="`, `"><b/></a>`, '"', false},
	{`<a v='`, ``, '\'', false}, {`<a v='`, `'`, '\'', false}, {`<a v='`, `'><b/></a>`, '\'', false},
	{"<a><![CDATA[", "", 0, true}, {"<a><![CDATA[", "]]></a>", 0, true},
}

// runResult is what a scan of one run produced.
type runResult struct {
	text    string
	scratch bool
	end     int
	err     error
}

// scanBoth reads the run at lo in doc with scanRun and with the reference.
func scanBoth(got, want *Tokenizer, doc []byte, lo int, c runCtx) (g, w runResult) {
	got.Reset(doc)
	want.Reset(doc)
	got.pos, got.tokOff = lo, lo
	var gv, wv valRef
	switch {
	case c.q != 0:
		gv, g.err = got.scanRun(c.q, false)
		wv, w.end, w.err = refValue(want, lo, c.q)
	case c.cdata:
		_, g.err = got.scanText(true)
		gv = got.content
		wv, w.end, w.err = refCDATA(want, lo)
	default:
		_, g.err = got.scanText(false)
		gv = got.content
		wv, w.end, w.err = refText(want, lo)
	}
	if g.err == nil {
		g.text, g.scratch, g.end = string(got.bytesOf(gv)), gv.scratch, got.pos
	}
	if w.err == nil {
		w.text, w.scratch = string(want.bytesOf(wv)), wv.scratch
	}
	return g, w
}

// movedFault reports whether the errors of a run differ only as the one
// scan intends: got is a character fault at its own offset, after the
// run's first reference or carriage return or in that reference's
// replacement text (reported at its '&'), where the reference reported
// the same message at the run's start lo, or a bad reference later on.
func movedFault(doc []byte, lo int, c runCtx, got, want error) bool {
	g, ok1 := got.(*SyntaxError)
	w, ok2 := want.(*SyntaxError)
	if !ok1 || !ok2 || g.Offset < lo || g.Offset >= len(doc) {
		return false
	}
	if !strings.HasPrefix(g.Msg, "illegal character code") && g.Msg != "invalid UTF-8" {
		return false
	}
	stops := "&\r"
	if c.cdata {
		stops = "\r"
	}
	if bytes.IndexAny(doc[lo:g.Offset+1], stops) < 0 {
		return false
	}
	return w.Msg == g.Msg && w.Offset == lo ||
		strings.HasPrefix(w.Msg, "invalid character entity") && w.Offset > g.Offset
}

// TestScanWordBoundaries puts each byte scanRun must stop at into runs of
// length 0–24 at every offset 0–17, and every ordered pair of special
// pieces at and across word edges, in text, CDATA and values of both
// quote kinds, and requires the reference scan's token, end and error.
// The only difference allowed is movedFault's.
func TestScanWordBoundaries(t *testing.T) {
	const filler = "ab>d\tf h\nj]lmnopqrstuvwxyzABCD"
	var got, want Tokenizer
	runs, moved, msgs := 0, 0, 0
	check := func(run string) {
		t.Helper()
		for _, c := range runCtxs {
			runs++
			doc := []byte(c.open + run + c.close)
			lo := len(c.open)
			g, w := scanBoth(&got, &want, doc, lo, c)
			sameErr := g.err == nil && w.err == nil
			if g.err != nil && w.err != nil {
				ge, _ := g.err.(*SyntaxError)
				we, _ := w.err.(*SyntaxError)
				sameErr = ge != nil && we != nil && *ge == *we
			}
			switch {
			case sameErr && g.err == nil && g != w:
				t.Errorf("%q at %d: %q (scratch %v) ending at %d, want %q (scratch %v) ending at %d",
					doc, lo, g.text, g.scratch, g.end, w.text, w.scratch, w.end)
			case sameErr:
			case movedFault(doc, lo, c, g.err, w.err):
				moved++
				if g.err.(*SyntaxError).Msg != w.err.(*SyntaxError).Msg {
					msgs++
				}
			default:
				t.Errorf("%q at %d: error %v, want %v", doc, lo, g.err, w.err)
			}
		}
	}
	for _, p := range []string{
		"<", "&", "&amp;", "]", "]]>", "\r", "\r\n", "\x01", "\x08", "\x0b", "\x1f",
		"\x7f", "\x80", "\xff", "é", "€", "😀", "\uFFFE", `"`, "'",
	} {
		for size := 0; size <= 24; size++ {
			for at := 0; at <= 17 && at <= size; at++ {
				check(filler[:at] + p + filler[at:size])
			}
		}
	}
	if moved != 0 {
		t.Errorf("%d one-piece runs moved a fault, want 0", moved)
	}
	runs, moved, msgs = 0, 0, 0
	pieces := []string{
		"&amp;", "&#1;", "&", "\r", "\r\n", "]]>", "<", "\x01", "\xff", "\uFFFE", `"`, "'",
	}
	for _, p1 := range pieces {
		for _, p2 := range pieces {
			for _, at := range []int{0, 7, 8} {
				for _, gap := range []int{0, 1, 7, 8} {
					for _, tail := range []int{0, 9} {
						check(filler[:at] + p1 + filler[at:at+gap] + p2 + filler[at+gap:at+gap+tail])
					}
				}
			}
		}
	}
	t.Logf("%d of %d two-piece runs report a moved fault (%d with another message)", moved, runs, msgs)
}

// Shapes of largeDoc's document.
const (
	docSeeded = iota // "&amp;" in one text run in 32, "\r\n" in another one in 32
	docPlain         // no reference and no carriage return, as in perfbench's documents
	docCRLF          // docSeeded with CRLF line ends and a reference in one value in 8
)

// largeDoc builds a seeded document of about size bytes shaped like a
// record ledger: elements with 1–5 attributes and text runs of 40–230
// bytes, with references and carriage returns as shape says.
func largeDoc(size, shape int) []byte {
	r := rand.New(rand.NewSource(1))
	words := strings.Fields(`amber basalt cedar delta ember fjord granite harbor
		indigo juniper kelp lumen meadow nectar onyx pewter quartz river`)
	nl := "\n"
	if shape == docCRLF {
		nl = "\r\n"
	}
	var b bytes.Buffer
	b.WriteString("<ledger region=\"eu\">" + nl)
	for b.Len() < size {
		b.WriteString("<line")
		for i, n := 0, 1+r.Intn(5); i < n; i++ {
			sep := "-"
			if shape == docCRLF && r.Intn(8) == 0 {
				sep = "&amp;"
			}
			fmt.Fprintf(&b, ` a%d="%s%s%04d"`, i, words[r.Intn(len(words))], sep, r.Intn(10000))
		}
		b.WriteByte('>')
		for end := b.Len() + 40 + r.Intn(191); b.Len() < end; {
			b.WriteString(words[r.Intn(len(words))])
			b.WriteByte(' ')
		}
		switch k := r.Intn(32); {
		case shape == docPlain:
		case k == 0:
			b.WriteString("&amp; co")
		case k == 1:
			b.WriteString("\r\n")
		}
		b.WriteString("</line>" + nl)
	}
	b.WriteString("</ledger>" + nl)
	return b.Bytes()
}

// benchLarge tokenizes a 200 KiB largeDoc of the given shape.
func benchLarge(b *testing.B, shape int) {
	data := largeDoc(200<<10, shape)
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

func BenchmarkXMLTokLarge(b *testing.B)      { benchLarge(b, docSeeded) }
func BenchmarkXMLTokLargeCRLF(b *testing.B)  { benchLarge(b, docCRLF) }
func BenchmarkXMLTokLargePlain(b *testing.B) { benchLarge(b, docPlain) }
