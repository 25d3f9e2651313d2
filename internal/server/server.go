// Package server is the serving layer of dregexd: a long-running HTTP
// service exposing the whole pipeline — determinism verdicts, batch word
// matching, and instance validation against a hot-reloadable registry of
// DTD and XSD schemas — as JSON endpoints.
//
// The design rides the library's amortized paths end to end. Every
// expression that enters through /v1/compile, /v1/match or a registered
// schema compiles through one shared dregex.Cache, so the steady state of
// real traffic (schema reuse dominates real corpora) is a hash probe, not
// a compile. DTD and XSD documents validate through the one shared driver
// (package validate): a request borrows a DocState from the schema's
// bounded pool.StatePool, so the frame stacks, stream buffers and read
// buffer grown by earlier requests are reused rather than reallocated —
// the same DocState reuse discipline as the corpus validators, adapted to
// open-ended request traffic. A raw-body document is read into that
// pooled buffer and tokenized in place.
//
// Schema hot-reload is atomic: the registry is an immutable map behind an
// atomic pointer, writers build a new map and swap it, and in-flight
// requests keep the entry (and pooled states) they resolved — swapping a
// schema under live traffic never disturbs requests already validating
// against the old version.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dregex"
	"dregex/client"
	"dregex/internal/obs"
)

// Config parameterizes New. The zero value is usable.
type Config struct {
	// Cache backs every compilation (expressions and schema content
	// models); nil selects a fresh dregex.NewCache(4096).
	Cache *dregex.Cache
	// MaxBodyBytes bounds request bodies (documents, schemas, JSON);
	// 0 selects 4 MiB. Oversized requests get 413.
	MaxBodyBytes int64
	// AccessLog, when non-nil, receives one structured line per request
	// (request id, method, path, status, bytes, duration, remote addr,
	// and — for /v1/validate — schema and verdict). nil disables access
	// logging entirely; the hot path then pays a single branch.
	AccessLog *slog.Logger
	// Limits configures admission control (rate buckets, in-flight
	// bounds, deadlines); the zero value disables all of it. See limit.go.
	Limits Limits
}

// DefaultMaxBodyBytes bounds request bodies when Config leaves it zero.
const DefaultMaxBodyBytes = 4 << 20

// endpointNames are the per-endpoint instrument keys of /v1/stats and
// /metrics.
var endpointNames = []string{"compile", "match", "validate", "schemas", "stats", "metrics"}

// Server is the dregexd request handler. Construct with New; it is safe
// for concurrent use.
type Server struct {
	cache   *dregex.Cache
	maxBody int64
	start   time.Time

	// schemas is the registry: an immutable name → entry map behind an
	// atomic pointer. Readers Load once per request; writers serialize on
	// mu, build a copy, and Store it.
	mu      sync.Mutex
	schemas atomic.Pointer[map[string]*schemaEntry]
	swaps   atomic.Uint64

	// metrics is the obs registry behind GET /metrics; endpoints holds the
	// pre-resolved per-endpoint instruments keyed by endpointNames.
	metrics   *obs.Registry
	endpoints map[string]*endpointMetrics
	// panics counts handler panics absorbed by the recovery middleware.
	panics *obs.Counter

	// Admission control (limit.go): the global rate bucket, the per-class
	// in-flight bounds, and the per-schema-name validate buckets (guarded
	// by mu, resolved at registration like the per-schema instruments).
	limits        Limits
	global        *rateLimiter
	classes       map[string]*classLimit
	schemaBuckets map[string]*rateLimiter
	// reqSeq issues the monotonic per-server request ids threaded through
	// access-log lines and error responses.
	reqSeq    atomic.Uint64
	accessLog *slog.Logger

	publishOnce sync.Once
	publishName string

	handler http.Handler
}

// New returns a ready Server.
func New(cfg Config) *Server {
	s := &Server{
		cache:     cfg.Cache,
		maxBody:   cfg.MaxBodyBytes,
		start:     time.Now(),
		accessLog: cfg.AccessLog,
	}
	if s.cache == nil {
		s.cache = dregex.NewCache(4096)
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	empty := map[string]*schemaEntry{}
	s.schemas.Store(&empty)
	s.schemaBuckets = make(map[string]*rateLimiter)
	s.initLimits(cfg.Limits)
	s.initMetrics()

	mux := http.NewServeMux()
	mux.Handle("POST /v1/compile", s.counted("compile", s.handleCompile))
	mux.Handle("POST /v1/match", s.counted("match", s.handleMatch))
	mux.Handle("POST /v1/validate", s.counted("validate", s.handleValidate))
	mux.Handle("PUT /v1/schemas/{name}", s.counted("schemas", s.handlePutSchema))
	mux.Handle("GET /v1/schemas/{name}", s.counted("schemas", s.handleGetSchema))
	mux.Handle("DELETE /v1/schemas/{name}", s.counted("schemas", s.handleDeleteSchema))
	mux.Handle("GET /v1/schemas", s.counted("schemas", s.handleListSchemas))
	mux.Handle("GET /v1/stats", s.counted("stats", s.handleStats))
	mux.Handle("GET /metrics", s.counted("metrics", s.handleMetrics))
	mux.Handle("GET /debug/vars", expvar.Handler())
	s.handler = mux
	return s
}

// Handler returns the root http.Handler (mount it on an http.Server).
func (s *Server) Handler() http.Handler { return s.handler }

// NewHTTPServer wraps the handler in an http.Server with production
// timeouts, ready for graceful shutdown via its Shutdown method.
func (s *Server) NewHTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// publishMu serializes expvar name allocation across servers in one
// process; expvar names are process-global and a second Publish of the
// same name panics.
var (
	publishMu sync.Mutex
	publishN  int
)

// Publish exports this server's stats snapshot on GET /debug/vars
// (alongside the runtime's memstats) and returns the expvar name it was
// published under. The first server in the process gets "dregexd"; later
// servers get "dregexd-2", "dregexd-3", … — expvar names are
// process-global, so each instance needs its own. Publish is idempotent
// per server: repeated calls return the name chosen the first time.
func (s *Server) Publish() string {
	s.publishOnce.Do(func() {
		publishMu.Lock()
		publishN++
		name := "dregexd"
		if publishN > 1 {
			name = fmt.Sprintf("dregexd-%d", publishN)
		}
		publishMu.Unlock()
		s.publishName = name
		expvar.Publish(name, expvar.Func(func() any { return s.statsSnapshot() }))
	})
	return s.publishName
}

// statusWriter records the response code and size so the middleware can
// count errors and observe response bytes, and carries the per-request
// trace context (id, and — set by handleValidate — schema and verdict)
// without a context.WithValue allocation. Handlers reach it by asserting
// their ResponseWriter back to *statusWriter.
type statusWriter struct {
	http.ResponseWriter
	code    int
	bytes   int64
	id      uint64
	schema  string
	verdict string
	// wrote tracks whether the response has started, so the panic-recovery
	// middleware knows whether a clean 500 is still possible.
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// requestID returns the trace id of the request being served on w, or 0
// when w is not the middleware's statusWriter (direct handler tests).
func requestID(w http.ResponseWriter) uint64 {
	if sw, ok := w.(*statusWriter); ok {
		return sw.id
	}
	return 0
}

// counted wraps a handler with the per-endpoint instruments (request and
// error counters, latency and size histograms), admission control, panic
// recovery, the request-size limit, the trace id, and the optional access
// log. The instrumentation is a time.Now and a few uncontended atomic
// adds, and admission is a CAS plus two atomic adds — the handler hot
// path stays within its allocation pin.
func (s *Server) counted(name string, h http.HandlerFunc) http.Handler {
	m := s.endpoints[name]
	cl := s.classes[endpointClass(name)]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Inc()
		if r.ContentLength >= 0 {
			m.reqBytes.Observe(r.ContentLength)
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		sw := statusWriter{ResponseWriter: w, code: http.StatusOK, id: s.reqSeq.Add(1)}
		if s.accessLog != nil {
			// The header costs an allocation, so it rides the logging
			// opt-in: the id is only useful for joining with log lines.
			setRequestID(w, sw.id)
		}
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					// net/http's own abort sentinel: pass it through so the
					// connection is torn down as the handler intended.
					panic(p)
				}
				s.panics.Inc()
				sw.code = http.StatusInternalServerError
				if !sw.wrote {
					writeError(&sw, http.StatusInternalServerError,
						"internal error (recovered from panic)")
				}
			}
			d := time.Since(start)
			m.duration.Observe(int64(d))
			m.respBytes.Observe(sw.bytes)
			if sw.code >= 400 {
				m.errors.Inc()
			}
			if s.accessLog != nil {
				s.logAccess(r, &sw, d)
			}
		}()
		ok, acquired := s.admit(&sw, m, cl)
		if acquired {
			defer cl.release()
		}
		if !ok {
			return
		}
		h(&sw, r)
	})
}

// jsonBuf is a pooled response-encoding buffer with its bound encoder, so
// the steady-state cost of writing a response is one buffer reset and one
// Write — no per-request encoder or buffer allocation.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufs = sync.Pool{New: func() any {
	b := &jsonBuf{}
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// maxPooledJSONBuf caps what returns to the pool: a pathological response
// (say, a document yielding tens of thousands of validation errors) must
// not pin a multi-megabyte buffer behind every future small verdict.
const maxPooledJSONBuf = 64 << 10

func putJSONBuf(jb *jsonBuf) {
	if jb.buf.Cap() <= maxPooledJSONBuf {
		jsonBufs.Put(jb)
	}
}

// jsonContentType is the shared Content-Type header value; assigning the
// same slice per response (the key is already in canonical form) skips the
// per-request []string allocation of Header.Set. Handlers never mutate it.
var jsonContentType = []string{"application/json"}

// writeJSON renders v with the given status. Responses are small (verdicts
// and error lists); encoding into a pooled buffer makes the response a
// single Write, which net/http sizes with an automatic Content-Length.
func writeJSON(w http.ResponseWriter, code int, v any) {
	jb := jsonBufs.Get().(*jsonBuf)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		putJSONBuf(jb)
		// Nothing has been written yet, so a clean 500 is still possible.
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`, "encoding response: "+err.Error())
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(jb.buf.Bytes())
	putJSONBuf(jb)
}

// writeError renders a client.ErrorResponse carrying the request's trace
// id. 413 is detected from MaxBytesReader so oversized bodies report as
// such wherever they surface (JSON decode or mid-document XML read).
//
//dregex:coldalloc
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, client.ErrorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: requestID(w),
	})
}

// errStatus maps a body-read error to a status: 413 for the size limit,
// otherwise the fallback.
func errStatus(err error, fallback int) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return fallback
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

func (s *Server) statsSnapshot() client.StatsResponse {
	cs := s.cache.Stats()
	schemas := *s.schemas.Load()
	resp := client.StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Cache: client.CacheStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			HitRate:   cs.HitRate(),
			Entries:   cs.Entries,
			Negative:  cs.Negative,
			Evictions: cs.Evictions,
		},
		Endpoints:   make(map[string]client.EndpointStats, len(s.endpoints)),
		SchemaCount: len(schemas),
		SchemaSwaps: s.swaps.Load(),
		EngineTiers: dregex.EngineSelections(),
	}
	for name, m := range s.endpoints {
		h := m.duration.Snapshot()
		resp.Endpoints[name] = client.EndpointStats{
			Requests:  int64(m.requests.Value()),
			Errors:    int64(m.errors.Value()),
			P50Millis: h.Quantile(0.5) / 1e6,
			P90Millis: h.Quantile(0.9) / 1e6,
			P99Millis: h.Quantile(0.99) / 1e6,
			Shed: int64(m.shedRate.Value() + m.shedSchemaRate.Value() +
				m.shedInflight.Value() + m.shedTimeout.Value()),
		}
	}
	if len(schemas) > 0 {
		resp.Schemas = make(map[string]client.SchemaTraffic, len(schemas))
		for name, e := range schemas {
			om := e.om
			syms := om.symbols.Value()
			tr := client.SchemaTraffic{
				Kind:      e.info.Kind,
				Version:   e.info.Version,
				Valid:     om.valid.Value(),
				Invalid:   om.invalid.Value(),
				DocErrors: om.docErrors.Value(),
				Symbols:   syms,
				DocBytes:  om.docBytes.Value(),
				Models:    e.tiers,
			}
			if syms > 0 {
				tr.NsPerSymbol = float64(om.duration.Sum64()) / float64(syms)
			}
			resp.Schemas[name] = tr
		}
	}
	return resp
}

// parseSyntax maps a wire syntax name to a dregex.Syntax.
func parseSyntax(name string) (dregex.Syntax, error) {
	switch name {
	case "", client.SyntaxDTD:
		return dregex.DTD, nil
	case client.SyntaxMath:
		return dregex.Math, nil
	case client.SyntaxXSD:
		return dregex.XSD, nil
	}
	return 0, fmt.Errorf("unknown syntax %q (want dtd, math or xsd)", name)
}
