// Package client is the Go client for dregexd, the deterministic-regular-
// expression validation server (cmd/dregexd). It also defines the JSON wire
// types of the /v1 API — the server marshals exactly these structs, so the
// protocol cannot drift between the two sides.
package client

import (
	"fmt"
	"strings"
	"time"
)

// Syntax names accepted by the API ("syntax" fields). An empty string
// selects DTD content-model notation.
const (
	SyntaxDTD  = "dtd"  // XML content-model notation: (a, (b | c)*)
	SyntaxMath = "math" // the paper's notation: (ab+b(b?)a)*
	SyntaxXSD  = "xsd"  // DTD notation with {m,n} counters, XSD cache keyspace
)

// Schema kinds accepted by the registry.
const (
	KindDTD = "dtd"
	KindXSD = "xsd"
)

// CompileRequest is the body of POST /v1/compile.
type CompileRequest struct {
	Expr   string `json:"expr"`
	Syntax string `json:"syntax,omitempty"`
	// Numeric forces the numeric (counter) pipeline; without it the server
	// compiles through the plain pipeline and falls back to the numeric one
	// when the expression carries {m,n} occurrence indicators.
	Numeric bool `json:"numeric,omitempty"`
}

// Ambiguity is a verified nondeterminism counterexample (see
// dregex.Ambiguity): Word's last letter can be consumed by two distinct
// positions of Symbol.
type Ambiguity struct {
	Rule   string   `json:"rule"`
	Symbol string   `json:"symbol,omitempty"`
	Word   []string `json:"word,omitempty"`
}

// ExprStats mirrors dregex.Stats, the structural parameters the paper's
// complexity bounds depend on.
type ExprStats struct {
	Size             int  `json:"size"`
	Positions        int  `json:"positions"`
	Sigma            int  `json:"sigma"`
	K                int  `json:"k"`
	AlternationDepth int  `json:"alternation_depth"`
	StarFree         bool `json:"star_free"`
	Depth            int  `json:"depth"`
}

// CompileResponse is the body of a successful POST /v1/compile.
type CompileResponse struct {
	Deterministic bool `json:"deterministic"`
	// Numeric reports which pipeline compiled the expression.
	Numeric bool   `json:"numeric,omitempty"`
	Rule    string `json:"rule,omitempty"`
	// Ambiguity is the Explain counterexample for nondeterministic
	// expressions.
	Ambiguity *Ambiguity `json:"ambiguity,omitempty"`
	// Stats is present for plain-pipeline expressions.
	Stats *ExprStats `json:"stats,omitempty"`
	// Cached reports whether this compile was served from the server's
	// expression cache.
	Cached bool `json:"cached"`
}

// MatchRequest is the body of POST /v1/match: one expression, a batch of
// words (each a sequence of symbol names).
type MatchRequest struct {
	Expr    string     `json:"expr"`
	Syntax  string     `json:"syntax,omitempty"`
	Numeric bool       `json:"numeric,omitempty"`
	Words   [][]string `json:"words"`
	// Witness asks for per-word parse results: the response then carries
	// Parses alongside Results. Witness recording runs the slower recorded
	// path, so it is opt-in per request.
	Witness bool `json:"witness,omitempty"`
}

// WordParse is the per-word parse outcome of a witness-mode match.
type WordParse struct {
	Accepted bool `json:"accepted"`
	// FailedAt is -1 when accepted; otherwise the index of the symbol the
	// run died on (len(word) when the word ended too early).
	FailedAt int `json:"failed_at"`
	// Expected lists the symbols that could have extended the word at the
	// failure point.
	Expected []string `json:"expected,omitempty"`
	// Tree is the parse tree of an accepted word as an s-expression
	// (leaves are symbol names, inner nodes "(op child …)"); empty for
	// rejected words and for numeric-pipeline expressions, which report
	// trace-level results only.
	Tree string `json:"tree,omitempty"`
}

// MatchResponse is the body of a successful POST /v1/match; Results[i]
// reports whether Words[i] matched.
type MatchResponse struct {
	Results []bool `json:"results"`
	// Parses is present when the request set Witness; Parses[i] describes
	// Words[i].
	Parses []WordParse `json:"parses,omitempty"`
}

// ValidateRequest is the JSON body of POST /v1/validate. The endpoint also
// accepts the XML document as a raw (non-JSON) body with the schema named
// in the ?schema= query parameter — the allocation-lean path, since the
// server then reads the body straight into a pooled buffer.
type ValidateRequest struct {
	Schema string `json:"schema"`
	Doc    string `json:"doc"`
}

// ValidationError is one violation found while validating a document. It
// is both the wire type and the validators' own error type: the DTD and
// XSD validators report exactly this struct.
type ValidationError struct {
	Path    string `json:"path"` // slash-separated element path
	Element string `json:"element"`
	Msg     string `json:"msg"`
	// Line and Col locate the violation in the document (1-based; columns
	// count runes). Zero when no position is available.
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
	// Expected lists the element names that would have been legal at the
	// failure point (content-model violations only).
	Expected []string `json:"expected,omitempty"`
}

func (e ValidationError) Error() string {
	msg := e.Msg
	if len(e.Expected) > 0 {
		msg = fmt.Sprintf("%s (expected one of: %s)", msg, strings.Join(e.Expected, ", "))
	}
	if e.Line > 0 {
		return fmt.Sprintf("%d:%d: %s: <%s>: %s", e.Line, e.Col, e.Path, e.Element, msg)
	}
	return fmt.Sprintf("%s: <%s>: %s", e.Path, e.Element, msg)
}

// ValidateResponse is the body of a successful POST /v1/validate. A
// document-level failure (malformed XML) sets DocError; schema violations
// land in Errors. Valid means neither.
type ValidateResponse struct {
	Schema   string            `json:"schema"`
	Valid    bool              `json:"valid"`
	Errors   []ValidationError `json:"errors,omitempty"`
	DocError string            `json:"doc_error,omitempty"`
	// RequestID is the server's trace id for this request — the same id
	// carried by the X-Request-Id response header and the access-log line
	// when access logging is enabled on the server.
	RequestID uint64 `json:"request_id,omitempty"`
}

// SchemaInfo describes one registered schema (PUT/GET /v1/schemas/{name}).
type SchemaInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "dtd" or "xsd"
	// Version counts hot swaps of this name: 1 on first registration,
	// bumped atomically on each replacement.
	Version   int       `json:"version"`
	Elements  int       `json:"elements"` // declared elements (DTD) or global roots (XSD)
	UpdatedAt time.Time `json:"updated_at"`
	// Warnings lists lint findings that do not block registration —
	// nondeterministic content models (which cannot be validated against),
	// references to undeclared elements.
	Warnings []string `json:"warnings,omitempty"`
}

// SchemaList is the body of GET /v1/schemas.
type SchemaList struct {
	Schemas []SchemaInfo `json:"schemas"`
}

// CacheStats mirrors dregex.CacheStats plus the derived hit rate.
type CacheStats struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
	Entries  int     `json:"entries"`
	Negative int     `json:"negative"`
	// Evictions counts entries displaced by capacity pressure over the
	// cache's lifetime.
	Evictions uint64 `json:"evictions"`
}

// EndpointStats counts requests per endpoint; Errors counts 4xx/5xx
// responses. The latency quantiles come from the same histograms GET
// /metrics exposes, in milliseconds (0 before the first request).
type EndpointStats struct {
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	P50Millis float64 `json:"p50_ms"`
	P90Millis float64 `json:"p90_ms"`
	P99Millis float64 `json:"p99_ms"`
	// Shed counts requests rejected by admission control (rate buckets,
	// in-flight bounds, deadlines) — a subset of Errors.
	Shed int64 `json:"shed,omitempty"`
}

// SchemaTraffic is the per-schema validation traffic summary of GET
// /v1/stats: verdict counts, volume, and the live cost estimate.
type SchemaTraffic struct {
	Kind      string `json:"kind"`
	Version   int    `json:"version"`
	Valid     uint64 `json:"valid"`
	Invalid   uint64 `json:"invalid"`
	DocErrors uint64 `json:"doc_errors"`
	// Symbols counts content-model symbols fed to the streaming engines;
	// DocBytes counts document bytes tokenized.
	Symbols  uint64 `json:"symbols"`
	DocBytes uint64 `json:"doc_bytes"`
	// NsPerSymbol is validation time over symbols fed — the live
	// per-schema cost estimate (0 before any symbols).
	NsPerSymbol float64 `json:"ns_per_symbol,omitempty"`
	// Models counts the schema's content models per engine tier (which
	// rung of the Auto ladder each compiled model landed on).
	Models map[string]int `json:"models,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Cache         CacheStats               `json:"cache"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	SchemaCount   int                      `json:"schema_count"`
	SchemaSwaps   uint64                   `json:"schema_swaps"`
	// EngineTiers counts Auto-ladder tier selections process-wide (every
	// compile through this server's cache, plus batch builds, counter
	// compiles, and table-budget refusals).
	EngineTiers map[string]uint64 `json:"engine_tiers,omitempty"`
	// Schemas maps schema name to its validation-traffic summary.
	Schemas map[string]SchemaTraffic `json:"schemas,omitempty"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RequestID is the server's trace id for the failed request (0 when
	// the error was produced outside the instrumented middleware).
	RequestID uint64 `json:"request_id,omitempty"`
	// RetryAfterMs is set on load-shed responses (429/503 from admission
	// control): the retry hint from the Retry-After header, in
	// milliseconds for clients that want sub-second precision.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}
