package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dregex"
	"dregex/client"
)

func TestRateLimiterGCRA(t *testing.T) {
	// 10 req/s, burst 3: emission interval 100ms. Driven with synthetic
	// clock values, so the test is fully deterministic.
	rl := newRateLimiter(10, 3)
	now := int64(0)
	for i := 0; i < 3; i++ {
		if ok, _ := rl.allow(now); !ok {
			t.Fatalf("burst request %d shed", i)
		}
	}
	ok, ra := rl.allow(now)
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if ra <= 0 || ra > 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 100ms]", ra)
	}
	// A rejected probe must not move the recovery point: retrying exactly
	// at now+ra conforms.
	if ok2, ra2 := rl.allow(now); !ok2 && ra2 != ra {
		t.Fatalf("second rejected probe moved retryAfter: %v -> %v", ra, ra2)
	}
	now += int64(ra)
	if ok, _ := rl.allow(now); !ok {
		t.Fatal("request at the advertised retry time shed")
	}
	// After a long idle stretch the full burst is available again.
	now += int64(10 * time.Second)
	for i := 0; i < 3; i++ {
		if ok, _ := rl.allow(now); !ok {
			t.Fatalf("post-idle burst request %d shed", i)
		}
	}

	if rl := newRateLimiter(0, 5); rl != nil {
		t.Error("rate 0 must disable the limiter")
	}
}

func TestClassLimitSemaphore(t *testing.T) {
	cl := &classLimit{class: "validate", max: 2}
	if !cl.acquire() || !cl.acquire() {
		t.Fatal("slots under the bound refused")
	}
	if cl.acquire() {
		t.Fatal("slot over the bound admitted")
	}
	cl.release()
	if !cl.acquire() {
		t.Fatal("freed slot refused")
	}
	// Unbounded class still counts (for the gauge) but never refuses.
	free := &classLimit{class: "admin"}
	for i := 0; i < 100; i++ {
		if !free.acquire() {
			t.Fatal("unbounded class refused")
		}
	}
	if free.cur.Load() != 100 {
		t.Fatalf("gauge count = %d, want 100", free.cur.Load())
	}
}

func TestRetryAfterMs(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int64
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Microsecond, 1},
		{time.Millisecond, 1},
		{time.Millisecond + 1, 2},
		{1500 * time.Millisecond, 1500},
	} {
		if got := retryAfterMs(c.d); got != c.want {
			t.Errorf("retryAfterMs(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestValidateDeadlineHeader(t *testing.T) {
	if d := validateDeadline(0, ""); !d.IsZero() {
		t.Error("no budget must mean no deadline")
	}
	if d := validateDeadline(time.Minute, ""); d.IsZero() || time.Until(d) > time.Minute {
		t.Errorf("configured budget: %v", d)
	}
	// The header tightens a configured budget…
	d := validateDeadline(time.Minute, "50")
	if d.IsZero() || time.Until(d) > 100*time.Millisecond {
		t.Errorf("header must tighten the budget: %v away", time.Until(d))
	}
	// …but cannot loosen it.
	d = validateDeadline(time.Millisecond, "60000")
	if time.Until(d) > time.Second {
		t.Errorf("header loosened the budget: %v away", time.Until(d))
	}
	// Invalid or non-positive header values are ignored.
	if d := validateDeadline(0, "abc"); !d.IsZero() {
		t.Error("garbage header produced a deadline")
	}
	if d := validateDeadline(0, "0"); !d.IsZero() {
		t.Error("zero header produced a deadline")
	}
}

// shedServer builds a server + schema with the given limits.
func shedServer(t *testing.T, limits Limits) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	s := New(Config{Limits: limits})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	c := client.New(hs.URL, hs.Client())
	if _, err := c.PutSchema(context.Background(), "note", client.KindDTD, []byte(testDTD)); err != nil {
		t.Fatal(err)
	}
	return s, hs, c
}

func TestGlobalRateShed(t *testing.T) {
	// 1 req/s with burst 2: the schema registration rides the admin class
	// (exempt), so exactly two validates pass before shedding starts.
	s, hs, _ := shedServer(t, Limits{Rate: 1, Burst: 2})
	doc := `<note><to>x</to><body>y</body></note>`

	codes := make([]int, 4)
	for i := range codes {
		codes[i], _ = doRaw(t, hs, "POST", "/v1/validate?schema=note", "application/xml", doc)
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("burst requests: %v, want two 200s first", codes)
	}
	if codes[2] != http.StatusTooManyRequests || codes[3] != http.StatusTooManyRequests {
		t.Fatalf("over-rate requests: %v, want 429s", codes)
	}

	// The shed response is well-formed: Retry-After header and structured
	// JSON with the millisecond hint.
	req, _ := http.NewRequest("POST", hs.URL+"/v1/validate?schema=note", strings.NewReader(doc))
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var er client.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("shed body not JSON: %v", err)
	}
	if er.Error == "" || er.RetryAfterMs <= 0 {
		t.Errorf("shed body = %+v", er)
	}

	// Admin endpoints bypass the (exhausted) global bucket: observability
	// must survive overload.
	if code, _ := doRaw(t, hs, "GET", "/v1/stats", "", ""); code != http.StatusOK {
		t.Errorf("/v1/stats shed during overload: %d", code)
	}
	if code, _ := doRaw(t, hs, "GET", "/metrics", "", ""); code != http.StatusOK {
		t.Errorf("/metrics shed during overload: %d", code)
	}

	// Accounting: shed_total moved and /v1/stats reports the sheds.
	if v := s.endpoints["validate"].shedRate.Value(); v < 2 {
		t.Errorf("shedRate = %d, want >= 2", v)
	}
	var st client.StatsResponse
	_, raw := doRaw(t, hs, "GET", "/v1/stats", "", "")
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Endpoints["validate"].Shed < 2 {
		t.Errorf("stats shed = %d, want >= 2", st.Endpoints["validate"].Shed)
	}
}

func TestSchemaRateShed(t *testing.T) {
	s, hs, c := shedServer(t, Limits{SchemaRate: 1, SchemaBurst: 1})
	if _, err := c.PutSchema(context.Background(), "other", client.KindDTD,
		[]byte(`<!ELEMENT other (#PCDATA)>`)); err != nil {
		t.Fatal(err)
	}
	doc := `<note><to>x</to><body>y</body></note>`

	if code, _ := doRaw(t, hs, "POST", "/v1/validate?schema=note", "application/xml", doc); code != http.StatusOK {
		t.Fatalf("first validate shed: %d", code)
	}
	if code, _ := doRaw(t, hs, "POST", "/v1/validate?schema=note", "application/xml", doc); code != http.StatusTooManyRequests {
		t.Fatalf("over-rate validate: %d, want 429", code)
	}
	// The bucket is per schema: a different schema still has its token.
	if code, _ := doRaw(t, hs, "POST", "/v1/validate?schema=other", "application/xml",
		`<other>x</other>`); code != http.StatusOK {
		t.Errorf("sibling schema shed by note's bucket: %d", code)
	}
	if v := s.endpoints["validate"].shedSchemaRate.Value(); v != 1 {
		t.Errorf("shedSchemaRate = %d, want 1", v)
	}

	// A hot swap keeps the bucket's (empty) state: re-registering is not a
	// way around the limit.
	if _, err := c.PutSchema(context.Background(), "note", client.KindDTD, []byte(testDTD)); err != nil {
		t.Fatal(err)
	}
	if code, _ := doRaw(t, hs, "POST", "/v1/validate?schema=note", "application/xml", doc); code != http.StatusTooManyRequests {
		t.Errorf("validate after swap: %d, want 429 (bucket must survive the swap)", code)
	}
}

func TestInflightShed(t *testing.T) {
	s, hs, _ := shedServer(t, Limits{MaxInflight: 1})
	doc := `<note><to>x</to><body>y</body></note>`

	// Occupy the validate class's only slot, as a stuck request would.
	cl := s.classes[classValidate]
	if !cl.acquire() {
		t.Fatal("occupying the slot failed")
	}
	code, body := doRaw(t, hs, "POST", "/v1/validate?schema=note", "application/xml", doc)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("validate with full class: %d %s, want 503", code, body)
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterMs <= 0 {
		t.Errorf("inflight shed body = %s (err=%v)", body, err)
	}
	// Other classes are unaffected: their slots are their own.
	if code, _ := doRaw(t, hs, "POST", "/v1/compile", "application/json", `{"expr":"(a)"}`); code != http.StatusOK {
		t.Errorf("compile shed by validate's class: %d", code)
	}
	cl.release()
	if code, _ := doRaw(t, hs, "POST", "/v1/validate?schema=note", "application/xml", doc); code != http.StatusOK {
		t.Errorf("validate after release: %d", code)
	}
	if v := s.endpoints["validate"].shedInflight.Value(); v != 1 {
		t.Errorf("shedInflight = %d, want 1", v)
	}
}

func TestValidateTimeoutShed(t *testing.T) {
	s, hs, c := shedServer(t, Limits{ValidateTimeout: time.Nanosecond})
	if _, err := c.PutSchema(context.Background(), "wide", client.KindDTD,
		[]byte(`<!ELEMENT r (c)*><!ELEMENT c EMPTY>`)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 3000; i++ {
		b.WriteString("<c/>")
	}
	b.WriteString("</r>")

	code, body := doRaw(t, hs, "POST", "/v1/validate?schema=wide", "application/xml", b.String())
	if code != http.StatusServiceUnavailable {
		t.Fatalf("expired validate budget: %d %s, want 503", code, body)
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterMs <= 0 {
		t.Errorf("timeout shed body = %s (err=%v)", body, err)
	}
	if v := s.endpoints["validate"].shedTimeout.Value(); v != 1 {
		t.Errorf("shedTimeout = %d, want 1", v)
	}
	// The aborted run is a shed, not a verdict: no doc_error accounting.
	e := s.lookupSchema("wide")
	if n := e.om.docErrors.Value(); n != 0 {
		t.Errorf("aborted run counted as doc_error (%d)", n)
	}
}

func TestCompileTimeoutShed(t *testing.T) {
	s, hs, _ := shedServer(t, Limits{CompileTimeout: time.Nanosecond})
	// A large expression so the background compile cannot win the race
	// against the already-expired context.
	var b strings.Builder
	b.WriteString("(a0")
	for i := 1; i < 3000; i++ {
		fmt.Fprintf(&b, ", a%d", i)
	}
	b.WriteString(")")
	src := b.String()

	code, body := doRaw(t, hs, "POST", "/v1/compile", "application/json", `{"expr": "`+src+`"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("expired compile budget: %d %s, want 503", code, body)
	}
	if v := s.endpoints["compile"].shedTimeout.Value(); v != 1 {
		t.Errorf("shedTimeout = %d, want 1", v)
	}
	// The compile finishes in the background and caches its result, so an
	// unlimited retry path hits. GetInfo waits for that compile rather than
	// starting its own, so once it returns nothing of this test is still
	// allocating behind the tests that follow.
	if _, hit, err := s.cache.GetInfo(src, dregex.DTD); !hit || err != nil {
		t.Fatalf("abandoned compile never cached: hit=%v err=%v", hit, err)
	}
}

func TestPanicRecovery(t *testing.T) {
	s := New(Config{})
	h := s.counted("stats", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic status = %d, want 500", rec.Code)
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Errorf("recovered panic body = %s (err=%v)", rec.Body, err)
	}
	if v := s.panics.Value(); v != 1 {
		t.Errorf("panics counter = %d, want 1", v)
	}
	if v := s.endpoints["stats"].errors.Value(); v != 1 {
		t.Errorf("error counter = %d, want 1", v)
	}
	// The in-flight slot was released despite the panic.
	if n := s.classes[classAdmin].cur.Load(); n != 0 {
		t.Errorf("inflight after panic = %d, want 0", n)
	}

	// http.ErrAbortHandler passes through untouched — net/http owns it.
	aborter := s.counted("stats", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Errorf("ErrAbortHandler swallowed (got %v)", p)
			}
		}()
		aborter.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/stats", nil))
	}()
	if v := s.panics.Value(); v != 1 {
		t.Errorf("ErrAbortHandler counted as recovered panic (%d)", v)
	}
}

// TestServerValidateAllocsLimited extends the hot-path allocation pin to a
// fully armed admission-control configuration: rate buckets, in-flight
// bounds, and a validate deadline all on. The budget matches
// TestServerValidateAllocs — overload protection must be allocation-free
// on admitted requests.
func TestServerValidateAllocsLimited(t *testing.T) {
	s := New(Config{Limits: Limits{
		Rate: 1e9, Burst: 1000,
		SchemaRate: 1e9, SchemaBurst: 1000,
		MaxInflight:     64,
		ValidateTimeout: time.Hour,
	}})
	req := httptest.NewRequest("PUT", "/v1/schemas/library", strings.NewReader(benchSchemaDTD))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("schema registration: %d %s", rec.Code, rec.Body)
	}
	h := s.Handler()
	doc := []byte(benchDoc)
	vreq := httptest.NewRequest("POST", "/v1/validate?schema=library", nil)
	rb := &resetBody{bytes.NewReader(doc)}
	w := &discardWriter{h: make(http.Header)}
	run := func() {
		rb.Seek(0, io.SeekStart)
		vreq.Body = rb
		h.ServeHTTP(w, vreq)
	}
	run()
	allocs := testing.AllocsPerRun(200, run)
	const maxAllocs = 9
	if allocs > maxAllocs {
		t.Errorf("limited validate path allocates %.1f allocs/op, pinned at <= %d", allocs, maxAllocs)
	}
}

// TestShedUnderConcurrency hammers a tightly limited server from many
// goroutines: every response must be a 200, 429 or 503 — never a hang,
// never a malformed body (run under -race via make test).
func TestShedUnderConcurrency(t *testing.T) {
	_, hs, _ := shedServer(t, Limits{Rate: 50, Burst: 5, MaxInflight: 4})
	doc := `<note><to>x</to><body>y</body></note>`
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				req, _ := http.NewRequest("POST", hs.URL+"/v1/validate?schema=note", strings.NewReader(doc))
				resp, err := hs.Client().Do(req)
				if err != nil {
					t.Errorf("transport error: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				if resp.StatusCode != http.StatusOK {
					var er client.ErrorResponse
					if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
						t.Errorf("malformed shed body (status %d): %v", resp.StatusCode, err)
					}
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}
