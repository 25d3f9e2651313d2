package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dregex"
	"dregex/client"
)

const testDTD = `<!ELEMENT note (to, body)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT body (#PCDATA)>
<!ENTITY who "Alice">`

const testXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="order">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="item" type="xs:string" minOccurs="1" maxOccurs="3"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`

func newTestServer(t *testing.T) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	s := New(Config{})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs, client.New(hs.URL, hs.Client())
}

// doRaw issues a request against the handler and returns status and body.
func doRaw(t *testing.T, hs *httptest.Server, method, path, contentType, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func TestCompileEndpoint(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()

	det, err := c.Compile(ctx, client.CompileRequest{Expr: "(a, b*, c?)"})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !det.Deterministic || det.Numeric || det.Stats == nil || det.Stats.Sigma != 3 {
		t.Errorf("deterministic DTD model: %+v", det)
	}
	if det.Cached {
		t.Error("first compile reported cached")
	}
	again, err := c.Compile(ctx, client.CompileRequest{Expr: "(a, b*, c?)"})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("second compile not served from cache")
	}

	nondet, err := c.Compile(ctx, client.CompileRequest{Expr: "(a, b) | (a, c)"})
	if err != nil {
		t.Fatalf("Compile nondet: %v", err)
	}
	if nondet.Deterministic {
		t.Error("nondeterministic model reported deterministic")
	}
	if nondet.Ambiguity == nil || nondet.Ambiguity.Symbol != "a" || len(nondet.Ambiguity.Word) == 0 {
		t.Errorf("missing Explain counterexample: %+v", nondet.Ambiguity)
	}

	num, err := c.Compile(ctx, client.CompileRequest{Expr: "(a{2,5}, b)", Syntax: client.SyntaxXSD})
	if err != nil {
		t.Fatalf("Compile numeric: %v", err)
	}
	if !num.Numeric || !num.Deterministic {
		t.Errorf("numeric fallback: %+v", num)
	}

	math, err := c.Compile(ctx, client.CompileRequest{Expr: "(ab+b(b?)a)*", Syntax: client.SyntaxMath})
	if err != nil {
		t.Fatalf("Compile math: %v", err)
	}
	if !math.Deterministic {
		t.Errorf("paper's example expression: %+v", math)
	}

	if _, err := c.Compile(ctx, client.CompileRequest{Expr: "(a,", Syntax: "dtd"}); err == nil {
		t.Error("malformed expression accepted")
	} else if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusUnprocessableEntity {
		t.Errorf("malformed expression: %v, want 422", err)
	}
	if _, err := c.Compile(ctx, client.CompileRequest{Expr: "a", Syntax: "perl"}); err == nil {
		t.Error("unknown syntax accepted")
	} else if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusBadRequest {
		t.Errorf("unknown syntax: %v, want 400", err)
	}
}

func TestCompileMalformedPayloads(t *testing.T) {
	_, hs, _ := newTestServer(t)
	if code, _ := doRaw(t, hs, "POST", "/v1/compile", "application/json", "{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d, want 400", code)
	}
	if code, _ := doRaw(t, hs, "GET", "/v1/compile", "", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET compile: %d, want 405", code)
	}
}

func TestOversizedPayloads(t *testing.T) {
	s := New(Config{MaxBodyBytes: 256})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	big := strings.Repeat("x", 512)
	if code, _ := doRaw(t, hs, "POST", "/v1/compile", "application/json",
		`{"expr": "`+big+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized compile: %d, want 413", code)
	}

	if _, err := c.PutSchema(ctx, "n", client.KindDTD, []byte("<!ELEMENT a EMPTY>")); err != nil {
		t.Fatal(err)
	}
	doc := "<a>" + strings.Repeat("<b/>", 200) + "</a>"
	if code, _ := doRaw(t, hs, "POST", "/v1/validate?schema=n", "application/xml", doc); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized document: %d, want 413", code)
	}
	if code, _ := doRaw(t, hs, "PUT", "/v1/schemas/huge", "", strings.Repeat("<!ELEMENT a EMPTY>", 100)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized schema: %d, want 413", code)
	}
}

func TestMatchEndpoint(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()

	m, err := c.Match(ctx, client.MatchRequest{
		Expr:  "(a, b*, c)",
		Words: [][]string{{"a", "c"}, {"a", "b", "b", "c"}, {"a"}, {"c"}},
	})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	want := []bool{true, true, false, false}
	if fmt.Sprint(m.Results) != fmt.Sprint(want) {
		t.Errorf("Results = %v, want %v", m.Results, want)
	}

	// Numeric expressions match through the counter pipeline.
	nm, err := c.Match(ctx, client.MatchRequest{
		Expr:   "(a{2,3})",
		Syntax: client.SyntaxXSD,
		Words:  [][]string{{"a"}, {"a", "a"}, {"a", "a", "a", "a"}},
	})
	if err != nil {
		t.Fatalf("Match numeric: %v", err)
	}
	if fmt.Sprint(nm.Results) != fmt.Sprint([]bool{false, true, false}) {
		t.Errorf("numeric Results = %v", nm.Results)
	}

	// Matching a nondeterministic expression is rejected with a reason —
	// on both pipelines (the numeric simulator would run one at
	// superlinear cost, so it must refuse like MatchAll does).
	for _, req := range []client.MatchRequest{
		{Expr: "(a, b) | (a, c)", Words: [][]string{{"a", "b"}}},
		{Expr: "(a{1,2}, b) | (a{1,2}, c)", Syntax: client.SyntaxXSD, Words: [][]string{{"a", "b"}}},
	} {
		if _, err := c.Match(ctx, req); err == nil {
			t.Errorf("nondeterministic match accepted: %q", req.Expr)
		} else if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusUnprocessableEntity {
			t.Errorf("nondeterministic match %q: %v, want 422", req.Expr, err)
		}
	}
}

func TestSchemaRegistry(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()

	info, err := c.PutSchema(ctx, "note", "", []byte(testDTD))
	if err != nil {
		t.Fatalf("PutSchema: %v", err)
	}
	if info.Kind != client.KindDTD || info.Version != 1 || info.Elements != 3 {
		t.Errorf("PutSchema info = %+v", info)
	}

	info2, err := c.PutSchema(ctx, "order", "", []byte(testXSD))
	if err != nil {
		t.Fatalf("PutSchema xsd: %v", err)
	}
	if info2.Kind != client.KindXSD || info2.Elements != 1 {
		t.Errorf("sniffed XSD info = %+v", info2)
	}

	// Hot swap bumps the version.
	swap, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(`<!ELEMENT note (#PCDATA)>`))
	if err != nil {
		t.Fatalf("PutSchema swap: %v", err)
	}
	if swap.Version != 2 {
		t.Errorf("swap version = %d, want 2", swap.Version)
	}

	// A broken replacement is rejected and the old version stays live.
	if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte("<!ELEMENT broken")); err == nil {
		t.Error("broken schema accepted")
	}
	got, err := c.GetSchema(ctx, "note")
	if err != nil || got.Version != 2 {
		t.Errorf("after failed swap: %+v err=%v", got, err)
	}

	// Nondeterministic models register with warnings.
	warn, err := c.PutSchema(ctx, "warny", client.KindDTD, []byte(`<!ELEMENT w ((a, b) | (a, c))>
<!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>`))
	if err != nil {
		t.Fatalf("PutSchema nondet: %v", err)
	}
	if len(warn.Warnings) == 0 {
		t.Error("nondeterministic model registered without warnings")
	}

	list, err := c.Schemas(ctx)
	if err != nil || len(list.Schemas) != 3 {
		t.Fatalf("Schemas: %+v err=%v", list, err)
	}
	if list.Schemas[0].Name != "note" && list.Schemas[0].Name != "order" && list.Schemas[0].Name != "warny" {
		t.Errorf("unexpected list: %+v", list)
	}

	if err := c.DeleteSchema(ctx, "warny"); err != nil {
		t.Fatalf("DeleteSchema: %v", err)
	}
	if err := c.DeleteSchema(ctx, "warny"); !client.IsNotFound(err) {
		t.Errorf("second delete: %v, want 404", err)
	}
	if _, err := c.GetSchema(ctx, "warny"); !client.IsNotFound(err) {
		t.Errorf("GetSchema after delete: %v, want 404", err)
	}
}

func TestValidateEndpoint(t *testing.T) {
	_, hs, c := newTestServer(t)
	ctx := context.Background()

	if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(testDTD)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutSchema(ctx, "order", client.KindXSD, []byte(testXSD)); err != nil {
		t.Fatal(err)
	}

	good := `<note><to>Bob</to><body>hi</body></note>`
	res, err := c.Validate(ctx, "note", []byte(good))
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !res.Valid || len(res.Errors) != 0 {
		t.Errorf("valid doc: %+v", res)
	}

	bad := `<note><body>hi</body><to>Bob</to></note>`
	res, err = c.Validate(ctx, "note", []byte(bad))
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid || len(res.Errors) == 0 {
		t.Errorf("invalid doc: %+v", res)
	}

	// Entity-using, BOM-prefixed document: the schema's entity plus a
	// document-declared one resolve; the BOM is tolerated.
	entDoc := "\uFEFF" + `<?xml version="1.0"?>
<!DOCTYPE note [ <!ENTITY greet "hello"> ]>
<note><to>&who;</to><body>&greet;</body></note>`
	res, err = c.Validate(ctx, "note", []byte(entDoc))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Errorf("entity+BOM doc: %+v", res)
	}

	// XSD backend, counter model: 4 items exceed maxOccurs=3.
	res, err = c.Validate(ctx, "order", []byte(`<order><item>x</item><item>y</item></order>`))
	if err != nil || !res.Valid {
		t.Errorf("xsd valid doc: %+v err=%v", res, err)
	}
	res, err = c.Validate(ctx, "order", []byte(`<order><item>1</item><item>2</item><item>3</item><item>4</item></order>`))
	if err != nil || res.Valid {
		t.Errorf("xsd counter violation: %+v err=%v", res, err)
	}

	// Malformed XML is a document-level error, not a transport error.
	res, err = c.Validate(ctx, "note", []byte(`<note><to>`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid || res.DocError == "" {
		t.Errorf("malformed doc: %+v", res)
	}

	// Unknown schema.
	if _, err := c.Validate(ctx, "ghost", []byte(good)); !client.IsNotFound(err) {
		t.Errorf("unknown schema: %v, want 404", err)
	}

	// JSON envelope mode — including a mixed-case media type with
	// parameters, which RFC 9110 makes equivalent.
	body, _ := json.Marshal(client.ValidateRequest{Schema: "note", Doc: good})
	for _, ct := range []string{"application/json", "Application/JSON; charset=utf-8"} {
		code, raw := doRaw(t, hs, "POST", "/v1/validate", ct, string(body))
		if code != http.StatusOK {
			t.Fatalf("JSON envelope (%s): %d %s", ct, code, raw)
		}
		var vr client.ValidateResponse
		if err := json.Unmarshal(raw, &vr); err != nil || !vr.Valid {
			t.Errorf("JSON envelope response (%s): %+v err=%v", ct, vr, err)
		}
	}

	// Missing schema name.
	if code, _ := doRaw(t, hs, "POST", "/v1/validate", "application/xml", good); code != http.StatusBadRequest {
		t.Errorf("missing schema name: %d, want 400", code)
	}
}

// TestValidateRootlessDocument: an empty body is not a valid document, for
// either schema kind.
func TestValidateRootlessDocument(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	for _, sc := range []struct{ name, kind, src string }{
		{"note", client.KindDTD, testDTD},
		{"order", client.KindXSD, testXSD},
	} {
		if _, err := c.PutSchema(ctx, sc.name, sc.kind, []byte(sc.src)); err != nil {
			t.Fatal(err)
		}
		res, err := c.Validate(ctx, sc.name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := sc.kind + ": document has no root element"; res.Valid || res.DocError != want {
			t.Errorf("%s: empty body: %+v, want doc_error %q", sc.kind, res, want)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()

	if _, err := c.PutSchema(ctx, "note", "", []byte(testDTD)); err != nil {
		t.Fatal(err)
	}
	// Same expression twice: the second compile must hit the cache.
	for i := 0; i < 2; i++ {
		if _, err := c.Compile(ctx, client.CompileRequest{Expr: "(x, y*)"}); err != nil {
			t.Fatal(err)
		}
	}
	// One failing request to exercise the error counter.
	c.Compile(ctx, client.CompileRequest{Expr: "(("})

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Cache.Hits == 0 {
		t.Errorf("cache reports no hits: %+v", st.Cache)
	}
	if st.Cache.HitRate <= 0 || st.Cache.HitRate > 1 {
		t.Errorf("hit rate out of range: %v", st.Cache.HitRate)
	}
	if st.Endpoints["compile"].Requests < 3 {
		t.Errorf("compile requests = %d, want >= 3", st.Endpoints["compile"].Requests)
	}
	if st.Endpoints["compile"].Errors < 1 {
		t.Errorf("compile errors = %d, want >= 1", st.Endpoints["compile"].Errors)
	}
	if st.SchemaCount != 1 || st.SchemaSwaps != 1 {
		t.Errorf("schema counters: %+v", st)
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", st.UptimeSeconds)
	}
}

// TestHotSwapUnderLoad swaps a schema repeatedly while concurrent clients
// validate against it; every response must be coherent with one of the two
// versions (run under -race via make test).
func TestHotSwapUnderLoad(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()

	// v1 requires (to, body); v2 requires (body, to).
	v1 := []byte(testDTD)
	v2 := []byte(`<!ELEMENT note (body, to)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT body (#PCDATA)>`)
	if _, err := c.PutSchema(ctx, "note", client.KindDTD, v1); err != nil {
		t.Fatal(err)
	}

	docA := []byte(`<note><to>x</to><body>y</body></note>`) // valid under v1 only
	docB := []byte(`<note><body>y</body><to>x</to></note>`) // valid under v2 only

	const swaps = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			doc := docA
			if w%2 == 1 {
				doc = docB
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.Validate(ctx, "note", doc)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// Exactly one of docA/docB is valid under whichever version
				// served the request; a malformed-XML doc error would mean
				// the swap corrupted in-flight state.
				if res.DocError != "" {
					t.Errorf("worker %d: doc error %q", w, res.DocError)
					return
				}
			}
		}(w)
	}
	for i := 0; i < swaps; i++ {
		src := v1
		if i%2 == 0 {
			src = v2
		}
		if _, err := c.PutSchema(ctx, "note", client.KindDTD, src); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	info, err := c.GetSchema(ctx, "note")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != swaps+1 {
		t.Errorf("version = %d, want %d", info.Version, swaps+1)
	}
}

func TestSniffKind(t *testing.T) {
	if k := sniffKind([]byte(testDTD)); k != client.KindDTD {
		t.Errorf("DTD sniffed as %s", k)
	}
	if k := sniffKind([]byte(testXSD)); k != client.KindXSD {
		t.Errorf("XSD sniffed as %s", k)
	}
	// A DTD whose entity value quotes schema markup is still a DTD.
	tricky := `<!ELEMENT a EMPTY> <!ENTITY e "<xs:schema>">`
	if k := sniffKind([]byte(tricky)); k != client.KindDTD {
		t.Errorf("tricky DTD sniffed as %s", k)
	}
	// An XSD quoting DTD markup in a comment is still an XSD.
	commented := "<!-- legacy DTD: <!ELEMENT note (to)> -->\n" + testXSD
	if k := sniffKind([]byte(commented)); k != client.KindXSD {
		t.Errorf("commented XSD sniffed as %s", k)
	}
	// Multiple comments, and an unterminated one, stay on the DTD side
	// when real declarations follow outside them.
	multi := "<!-- a --><!ELEMENT x EMPTY><!-- b --><!-- unterminated <schema"
	if k := sniffKind([]byte(multi)); k != client.KindDTD {
		t.Errorf("multi-comment DTD sniffed as %s", k)
	}
	// A nonstandard namespace prefix is still a schema document.
	odd := `<s1:schema xmlns:s1="http://www.w3.org/2001/XMLSchema"><s1:element name="a" type="s1:string"/></s1:schema>`
	if k := sniffKind([]byte(odd)); k != client.KindXSD {
		t.Errorf("nonstandard-prefix XSD sniffed as %s", k)
	}
	// An XSD whose DOCTYPE internal subset declares elements is still an
	// XSD: the DOCTYPE is read past, the schema root decides.
	doctyped := strings.Replace(testXSD, "?>\n", "?>\n<!DOCTYPE xs:schema [<!ELEMENT xs:schema ANY>]>\n", 1)
	if k := sniffKind([]byte(doctyped)); k != client.KindXSD {
		t.Errorf("XSD with a DOCTYPE internal subset sniffed as %s", k)
	}
	// An encoding the tokenizer rejects decides nothing by itself: the
	// XSD goes to its decoder, which reports the encoding, and a DTD
	// with the same text declaration stays a DTD.
	const latin1 = `<?xml version="1.0" encoding="ISO-8859-1"?>`
	latin1XSD := strings.Replace(testXSD, `<?xml version="1.0"?>`, latin1, 1)
	if k := sniffKind([]byte(latin1XSD)); k != client.KindXSD {
		t.Errorf("Latin-1 XSD sniffed as %s", k)
	}
	if k := sniffKind([]byte(latin1 + "\n" + testDTD)); k != client.KindDTD {
		t.Errorf("Latin-1 DTD sniffed as %s", k)
	}
	_, err := New(Config{}).compileSchema("latin1", "", []byte(latin1XSD))
	if err == nil || !strings.Contains(err.Error(), `unsupported encoding "ISO-8859-1"`) {
		t.Errorf("unnamed Latin-1 XSD: err = %v, want the decoder's encoding error", err)
	}
}

func TestQueryParam(t *testing.T) {
	cases := []struct {
		raw, key, want string
	}{
		{"schema=library", "schema", "library"},
		{"a=1&schema=lib2&b=2", "schema", "lib2"},
		{"schema=with%20space", "schema", "with space"},
		{"schema=a+b", "schema", "a b"},
		{"other=x", "schema", ""},
		{"", "schema", ""},
		{"schema", "schema", ""},
		{"schema=first&schema=second", "schema", "first"},
	}
	for _, c := range cases {
		if got := queryParam(c.raw, c.key); got != c.want {
			t.Errorf("queryParam(%q, %q) = %q, want %q", c.raw, c.key, got, c.want)
		}
	}
}

// TestNestingRejected: a source whose groups nest past dregex.MaxNesting
// is the input's own compile error, answered 422 on /v1/compile and on
// PUT /v1/schemas for DTD and XSD alike, and the server keeps answering.
// The grammar recurses once per group: without the bound the million-deep
// body would overflow the stack, which no recovery middleware can catch,
// and end the process.
func TestNestingRejected(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	const n = 1_000_000
	deep := strings.Repeat("(", n) + "a" + strings.Repeat(")", n)
	want422 := func(what string, err error) {
		t.Helper()
		if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusUnprocessableEntity ||
			!strings.Contains(ae.Msg, dregex.ErrNesting.Error()) {
			t.Errorf("%s: %.200v, want 422 with %q", what, err, dregex.ErrNesting)
		}
	}
	for _, syntax := range []string{client.SyntaxDTD, client.SyntaxMath} {
		_, err := c.Compile(ctx, client.CompileRequest{Expr: deep, Syntax: syntax})
		want422("compile of "+syntax+" nested 1M deep", err)
	}
	_, err := c.PutSchema(ctx, "deep", client.KindDTD, []byte("<!ELEMENT r "+deep+">\n<!ELEMENT a EMPTY>"))
	want422("PUT of a DTD nested 1M deep", err)
	const xn = 100_000
	xsd := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="r"><xs:complexType>` +
		strings.Repeat("<xs:sequence>", xn) + `<xs:element name="a"/>` + strings.Repeat("</xs:sequence>", xn) +
		`</xs:complexType></xs:element></xs:schema>`
	_, err = c.PutSchema(ctx, "deep", client.KindXSD, []byte(xsd))
	want422("PUT of an XSD nested 100k deep", err)

	if _, err := c.PutSchema(ctx, "deep", client.KindDTD, []byte(testDTD)); err != nil {
		t.Fatalf("PUT after the rejected ones: %v", err)
	}
	resp, err := c.Compile(ctx, client.CompileRequest{Expr: "(a, b)*", Syntax: client.SyntaxDTD})
	if err != nil || !resp.Deterministic {
		t.Fatalf("compile after the rejected ones: %+v, %v", resp, err)
	}
}

// TestLargeSourceSyntaxError: the 422 for a 2 MB source with a syntax
// error at its end quotes only the input around the error, so the client
// decodes the body and reports the offset.
func TestLargeSourceSyntaxError(t *testing.T) {
	_, _, c := newTestServer(t)
	src := "a" + strings.Repeat(" ", 2<<20) + ")"
	_, err := c.Compile(context.Background(), client.CompileRequest{Expr: src, Syntax: client.SyntaxMath})
	want := fmt.Sprintf("at offset %d", len(src)-1)
	if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusUnprocessableEntity ||
		!strings.Contains(ae.Msg, want) || len(ae.Msg) >= 512 {
		t.Errorf("compile of a 2 MB bad source: %.300v, want a 422 under 512 bytes with %q", err, want)
	}
}

// TestExpansionBudgetRejected: a model whose nested + would desugar past
// dregex.ExpansionBudget is the input's own compile error — 422 on
// /v1/compile and on PUT /v1/schemas, where the old version stays live.
func TestExpansionBudgetRejected(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	deep := strings.Repeat("(", 22) + "a" + strings.Repeat(")+", 22)
	_, err := c.Compile(ctx, client.CompileRequest{Expr: deep, Syntax: client.SyntaxDTD})
	if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusUnprocessableEntity {
		t.Errorf("compile of 22 nested +: %v, want 422", err)
	}
	if _, err := c.PutSchema(ctx, "deep", client.KindDTD, []byte(testDTD)); err != nil {
		t.Fatal(err)
	}
	_, err = c.PutSchema(ctx, "deep", client.KindDTD, []byte("<!ELEMENT r "+deep+">\n<!ELEMENT a EMPTY>"))
	if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusUnprocessableEntity {
		t.Errorf("PUT of 22 nested +: %v, want 422", err)
	}
	if got, err := c.GetSchema(ctx, "deep"); err != nil || got.Version != 1 {
		t.Errorf("after the rejected PUT: %+v err=%v", got, err)
	}
}
