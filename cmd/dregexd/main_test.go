package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dregex/client"
	"dregex/internal/obs"
)

// TestDregexdSmoke is the CI server smoke test (make smoke-server): it
// builds the real dregexd binary, boots it on a free port, registers a
// schema through the Go client, validates one good and one bad document,
// asserts /v1/stats reports a cache hit, and shuts the server down
// gracefully.
func TestDregexdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary smoke test")
	}
	bin := filepath.Join(t.TempDir(), "dregexd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	srv := exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = srv.Stdout
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// The first stdout line announces the resolved listen address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "dregexd listening on "
	if !strings.HasPrefix(line, marker) {
		t.Fatalf("unexpected startup line %q", line)
	}
	addr := strings.TrimPrefix(line, marker)
	go func() { // drain so the server never blocks on a full pipe
		for sc.Scan() {
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New("http://"+addr, nil)

	schema := `<!ELEMENT note (to, body)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT body (#PCDATA)>`
	if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(schema)); err != nil {
		t.Fatalf("PutSchema: %v", err)
	}
	// Re-registering recompiles the same content models: cache hits.
	if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(schema)); err != nil {
		t.Fatalf("PutSchema (swap): %v", err)
	}

	good, err := c.Validate(ctx, "note", []byte(`<note><to>a</to><body>b</body></note>`))
	if err != nil || !good.Valid {
		t.Fatalf("good document: %+v err=%v", good, err)
	}
	bad, err := c.Validate(ctx, "note", []byte(`<note><body>b</body><to>a</to></note>`))
	if err != nil {
		t.Fatalf("bad document: %v", err)
	}
	if bad.Valid || len(bad.Errors) == 0 {
		t.Fatalf("bad document reported valid: %+v", bad)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Cache.Hits == 0 {
		t.Errorf("stats report no cache hits: %+v", st.Cache)
	}
	if st.Endpoints["validate"].Requests < 2 {
		t.Errorf("validate requests = %d, want >= 2", st.Endpoints["validate"].Requests)
	}

	// Graceful shutdown: SIGTERM must drain and exit 0.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("server exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Error("server did not shut down within 15s")
	}
}

// TestDregexdDrainObservability exercises graceful drain end to end with
// the observability layer on and the rate limiter actively shedding: a
// slow /v1/validate is mid-body when SIGTERM arrives, and must still
// complete with a 200; a request released mid-drain still gets a
// well-formed 429 with Retry-After (admission control keeps shedding
// while the server drains); a /metrics scrape riding a connection that
// was active at shutdown returns coherent totals mid-drain; the access
// log (-log json) carries the final request line before the process
// exits 0.
func TestDregexdDrainObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary drain test")
	}
	bin := filepath.Join(t.TempDir(), "dregexd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// One token per 10s with burst 2: the in-flight connection A takes one
	// token, one quick validate takes the other, and the bucket then stays
	// empty for the rest of the test — shedding is active when the signal
	// lands, deterministically.
	srv := exec.Command(bin, "-addr", "127.0.0.1:0", "-log", "json", "-rate", "0.1", "-burst", "2")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	srv.Stderr = &stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line: %v", sc.Err())
	}
	addr := strings.TrimPrefix(sc.Text(), "dregexd listening on ")
	go func() {
		for sc.Scan() {
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New("http://"+addr, nil)
	schema := `<!ELEMENT note (to, body)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT body (#PCDATA)>`
	if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(schema)); err != nil {
		t.Fatalf("PutSchema: %v", err)
	}

	// Connection A: a validate request whose body is only half sent — the
	// handler sits in the body read when the signal lands, so the
	// connection is active and Shutdown must wait for it.
	doc := `<note><to>alice</to><body>hello</body></note>`
	connA, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	fmt.Fprintf(connA, "POST /v1/validate?schema=note HTTP/1.1\r\nHost: %s\r\nContent-Type: application/xml\r\nContent-Length: %d\r\n\r\n", addr, len(doc))
	half := len(doc) / 2
	if _, err := connA.Write([]byte(doc[:half])); err != nil {
		t.Fatal(err)
	}
	// Wait until A is admitted: admission takes the class's in-flight slot
	// and then a rate token, so once the validate in-flight gauge reads 1,
	// A holds one of the two burst tokens and the next two validates
	// split the remaining one and the shed.
	waitValidateInflight(ctx, t, addr)

	// Drain the bucket: one validate passes on the second burst token, the
	// next is shed — the limiter is now actively shedding.
	if ok, err := c.Validate(ctx, "note", []byte(doc)); err != nil || !ok.Valid {
		t.Fatalf("burst validate: %+v err=%v", ok, err)
	}
	if _, err := c.Validate(ctx, "note", []byte(doc)); !client.IsShed(err) {
		t.Fatalf("third validate: err=%v, want shed 429", err)
	}

	// Connection B: a /metrics request with the final header CRLF
	// withheld — active at shutdown, released mid-drain.
	connB, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()
	fmt.Fprintf(connB, "GET /metrics HTTP/1.1\r\nHost: %s\r\n", addr)

	// Connection C: a validate with the final header CRLF withheld, to be
	// released mid-drain — it must shed with a well-formed 429 even while
	// the server is shutting down.
	connC, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer connC.Close()
	fmt.Fprintf(connC, "POST /v1/validate?schema=note HTTP/1.1\r\nHost: %s\r\nContent-Type: application/xml\r\nContent-Length: %d\r\n", addr, len(doc))

	// Let the server read the partial requests, then signal.
	time.Sleep(300 * time.Millisecond)
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	// The in-flight validate completes during the drain.
	if _, err := connA.Write([]byte(doc[half:])); err != nil {
		t.Fatalf("completing body mid-drain: %v", err)
	}
	respA, err := http.ReadResponse(bufio.NewReader(connA), nil)
	if err != nil {
		t.Fatalf("reading drained validate response: %v", err)
	}
	var vr client.ValidateResponse
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("drained validate: status %d", respA.StatusCode)
	}
	if err := jsonDecode(respA.Body, &vr); err != nil || !vr.Valid {
		t.Fatalf("drained validate verdict: %+v err=%v", vr, err)
	}
	respA.Body.Close()

	// A /metrics scrape mid-drain: strictly parseable, histogram
	// invariants hold, and the just-completed validate is counted — the
	// counter and its histogram agree.
	if _, err := connB.Write([]byte("\r\n")); err != nil {
		t.Fatalf("releasing metrics request mid-drain: %v", err)
	}
	respB, err := http.ReadResponse(bufio.NewReader(connB), nil)
	if err != nil {
		t.Fatalf("reading mid-drain metrics: %v", err)
	}
	exp, err := obs.ParseExposition(respB.Body)
	respB.Body.Close()
	if err != nil {
		t.Fatalf("mid-drain exposition: %v", err)
	}
	if err := exp.CheckHistograms(); err != nil {
		t.Fatalf("mid-drain histograms: %v", err)
	}
	// Three validates so far: connA (drained to completion), the burst
	// success, the shed 429 — every one counted, with its duration, and
	// the shed one also in dregexd_shed_total.
	ep := obs.L("endpoint", "validate")
	reqs, ok1 := exp.Get("dregexd_requests_total", ep)
	durs, ok2 := exp.Get("dregexd_request_duration_seconds_count", ep)
	if !ok1 || !ok2 || reqs != 3 || durs != 3 {
		t.Errorf("mid-drain totals: requests=%v(%v) durations=%v(%v), want 3/3", reqs, ok1, durs, ok2)
	}
	shed, ok := exp.Get("dregexd_shed_total", ep, obs.L("reason", "rate"))
	if !ok || shed < 1 {
		t.Errorf("mid-drain shed total: %v(%v), want >= 1", shed, ok)
	}

	// Release connection C: a request arriving mid-drain while the bucket
	// is empty still gets a complete, well-formed shed response.
	if _, err := connC.Write([]byte("\r\n" + doc)); err != nil {
		t.Fatalf("releasing validate mid-drain: %v", err)
	}
	respC, err := http.ReadResponse(bufio.NewReader(connC), nil)
	if err != nil {
		t.Fatalf("reading mid-drain shed response: %v", err)
	}
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("mid-drain shed status = %d, want 429", respC.StatusCode)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Error("mid-drain shed response missing Retry-After")
	}
	var er client.ErrorResponse
	if err := jsonDecode(respC.Body, &er); err != nil || er.Error == "" || er.RetryAfterMs <= 0 {
		t.Errorf("mid-drain shed body: %+v err=%v", er, err)
	}
	respC.Body.Close()

	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("server exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain within 15s")
	}

	// The final access-log line flushed before exit: the drained validate
	// with its schema and verdict.
	logs := stderr.String()
	if !strings.Contains(logs, `"path":"/v1/validate"`) ||
		!strings.Contains(logs, `"schema":"note"`) ||
		!strings.Contains(logs, `"verdict":"valid"`) {
		t.Errorf("access log missing drained request line:\n%s", logs)
	}
}

// waitValidateInflight polls /metrics, an admin-class endpoint outside
// the rate bucket, until the validate class's in-flight gauge reads 1.
func waitValidateInflight(ctx context.Context, t *testing.T, addr string) {
	t.Helper()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("polling /metrics for the validate in-flight gauge: %v", err)
		}
		exp, err := obs.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("polled exposition: %v", err)
		}
		if v, ok := exp.Get("dregexd_inflight", obs.L("class", "validate")); ok && v == 1 {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("validate in-flight gauge never read 1: %v", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// jsonDecode decodes one JSON value from r.
func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}
