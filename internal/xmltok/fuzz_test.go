package xmltok

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"testing"
)

// fuzzEntities is the fixed internal-entity map both tokenizers resolve
// against; keys are valid XML names (encoding/xml rejects references
// whose name fails its Unicode tables, so invalid keys would never
// resolve there).
var fuzzEntities = map[string]string{
	"e":     "xyz",
	"empty": "",
	"uni":   "héllo",
	"cr":    "a\rb",
	"amps":  "&&",
}

// stdTokens tokenizes with encoding/xml (Strict, same entity map) and
// renders each token in the shared comparison form. ok is false when the
// decoder errors — those inputs are outside the agreement contract.
func stdTokens(data []byte) (toks []string, ok bool) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	dec.Entity = fuzzEntities
	for {
		t, err := dec.Token()
		if err == io.EOF {
			return toks, true
		}
		if err != nil {
			return toks, false
		}
		switch t := t.(type) {
		case xml.StartElement:
			s := "<" + t.Name.Local
			for _, a := range t.Attr {
				s += fmt.Sprintf(" %s=%q", a.Name.Local, a.Value)
			}
			toks = append(toks, s+">")
		case xml.EndElement:
			toks = append(toks, "</"+t.Name.Local+">")
		case xml.CharData:
			toks = append(toks, "T:"+string(t))
		case xml.Comment:
			toks = append(toks, "C:"+string(t))
		case xml.ProcInst:
			toks = append(toks, "PI:"+t.Target+":"+string(t.Inst))
		case xml.Directive:
			toks = append(toks, "D:"+string(t))
		}
	}
}

// ourTokens tokenizes with xmltok in the same comparison form.
func ourTokens(tok *Tokenizer, data []byte) (toks []string, err error) {
	tok.Reset(data)
	tok.SetEntities(fuzzEntities)
	for {
		k, err := tok.Next()
		if err == io.EOF {
			return toks, nil
		}
		if err != nil {
			return toks, err
		}
		switch k {
		case StartElement:
			s := "<" + string(tok.Local())
			for i := 0; i < tok.AttrCount(); i++ {
				s += fmt.Sprintf(" %s=%q", tok.AttrLocal(i), tok.AttrValue(i))
			}
			toks = append(toks, s+">")
		case EndElement:
			toks = append(toks, "</"+string(tok.Local())+">")
		case Text:
			toks = append(toks, "T:"+string(tok.Text()))
		case Comment:
			toks = append(toks, "C:"+string(tok.Text()))
		case ProcInst:
			toks = append(toks, "PI:"+string(tok.Name())+":"+string(tok.Text()))
		case Directive:
			toks = append(toks, "D:"+string(tok.Text()))
		}
	}
}

// FuzzXMLTok is the differential agreement gate: on any input that
// encoding/xml's Strict decoder tokenizes to EOF, xmltok must produce
// the same token sequence (kinds, local names, attribute local names and
// values, resolved text, comment/PI/directive bytes). When encoding/xml
// rejects the input, xmltok may accept a superset (Unicode name-table
// checks are relaxed) but must neither panic nor hang.
func FuzzXMLTok(f *testing.F) {
	seeds := []string{
		"",
		"<a/>",
		"<a x='1' y=\"2\">t</a>",
		"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a><b/>x</a>",
		"<?xml version=\"1.0\" encoding=\"Utf-8\"?><a/>",
		"<!DOCTYPE a [<!ENTITY e \"v\"><!--c-->]><a>&e;&lt;&#65;</a>",
		"<a><![CDATA[x]]y]]></a>",
		"<p:a xmlns:p='u'><p:b/></p:a>",
		"a\r\nb<r>\rt&cr;</r>",
		"<a>&#xD800;&#x10FFFF;</a>",
		"\uFEFF<a>é</a>",
		"<a>]]></a>",
		"<a b='&amp;&e;&empty;'></a>",
		"<!doctype a <!-- -- > x--> y><a/>",
		"<a><b></b  ></a >tail",
		"<a>\x01</a>",
		"<r>&uni;<v w='&#13;&#10;'/></r>",
		"<a>\r\n  x\r\ny\r<b c='1'/>\r\n</a>\r\n",
		"<a b='x&amp;y&#x41;&e;' c=\"&quot;&#13;&cr;\r\n\">&amps;</a>",
		"<a><![CDATA[x\r\ny\r]]>&#10;\r<![CDATA[\r]]></a>",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	var tok Tokenizer
	f.Fuzz(func(t *testing.T, data []byte) {
		// Both sides read the document without its BOM: xmltok strips the
		// BOM itself, encoding/xml would surface it as leading character
		// data. Only one is stripped; a second U+FEFF is text to both.
		want, ok := stdTokens(bytes.TrimPrefix(data, bom))
		got, err := ourTokens(&tok, data)
		if !ok {
			// encoding/xml rejected the input; xmltok just had to
			// terminate, which it did.
			return
		}
		if err != nil {
			t.Fatalf("encoding/xml accepts but xmltok rejects: %v\ninput: %q\nstd: %q", err, data, want)
		}
		if len(got) != len(want) {
			t.Fatalf("token count %d != %d\ninput: %q\nstd: %q\nours: %q", len(got), len(want), data, want, got)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("token %d: %q != %q\ninput: %q", i, got[i], want[i], data)
			}
		}
	})
}
