// Schema registry: named, hot-reloadable DTD and XSD schemas. The map is
// copy-on-write behind an atomic pointer (see Server.schemas); entries are
// immutable once published, and each owns the pool of validation states
// for its compiled schema — so a swapped-out schema, its engines and its
// pooled states all become garbage together, and pooled frames can never
// pin a schema that outlived its registration.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"dregex"
	"dregex/client"
	"dregex/internal/dtd"
	"dregex/internal/pool"
	"dregex/internal/run"
	"dregex/internal/validate"
	"dregex/internal/xmltok"
	"dregex/internal/xsd"
)

// docValidator is a compiled schema of either kind: *dtd.DTD and
// *xsd.Schema both validate through the shared driver.
type docValidator interface {
	ValidateReusing(r io.Reader, st *validate.DocState) ([]client.ValidationError, error)
}

// schemaEntry is one registered schema. Immutable after construction.
type schemaEntry struct {
	info   client.SchemaInfo
	schema docValidator

	// om holds the per-schema instruments (verdict counters, latency
	// histogram, symbol/byte counters). The underlying instruments are
	// registry-resolved by name+labels, so a hot swap of the same schema
	// name continues the same series.
	om *schemaMetrics
	// tiers counts the schema's compiled content models per engine tier —
	// which rung of the Auto ladder each model landed on.
	tiers map[string]int
	// limiter is this schema's validate-rate bucket (nil when per-schema
	// limiting is off). Resolved by name like om, so hot swaps keep the
	// bucket's fill state.
	limiter *rateLimiter

	// states pools validation states: requests Get one, validate, and Put
	// it back.
	states pool.StatePool[validate.DocState]
}

// validate checks one document against the entry's schema, riding a pooled
// DocState so steady-state traffic reuses frame stacks and stream buffers.
// The document-level error (malformed XML, truncated read) is returned as
// a value so the handler can classify it (e.g. a body-size trip → 413)
// before it is stringified into the response.
//
// Instrumentation rides the same discipline as the hot path itself: the
// per-document symbol and byte tallies accumulate non-atomically inside
// the single-goroutine DocState and land in the shared atomic counters
// once per request, after the state is read and before it returns to the
// pool.
//
//dregex:noalloc
func (e *schemaEntry) validate(r io.Reader, done <-chan struct{}, deadline time.Time) (client.ValidateResponse, error) {
	start := time.Now()
	st := e.states.Get()
	// Arm (or, with zero arguments, disarm) on every checkout: a state
	// must never carry the previous request's deadline.
	st.SetDeadline(done, deadline)
	verrs, err := e.schema.ValidateReusing(r, st)
	symbols, docBytes := st.Symbols(), st.DocBytes()
	e.states.Put(st)
	resp := client.ValidateResponse{Schema: e.info.Name, Errors: verrs}
	if err != nil {
		resp.DocError = err.Error()
	}
	resp.Valid = err == nil && len(verrs) == 0

	e.om.duration.Observe(int64(time.Since(start)))
	e.om.symbols.Add(uint64(symbols))
	e.om.docBytes.Add(uint64(docBytes))
	switch {
	case err != nil && (errors.Is(err, run.ErrDeadlineExceeded) || errors.Is(err, run.ErrCanceled)):
		// Aborted, not adjudicated: the handler sheds it; no verdict series
		// moves (the shed counters carry the accounting).
	case err != nil:
		e.om.docErrors.Inc()
	case len(verrs) > 0:
		e.om.invalid.Inc()
	default:
		e.om.valid.Inc()
	}
	return resp, err
}

// lookupSchema resolves a registered schema by name (nil if absent). The
// returned entry stays valid for the whole request even if the name is
// swapped or deleted concurrently.
func (s *Server) lookupSchema(name string) *schemaEntry {
	return (*s.schemas.Load())[name]
}

// sniffKind guesses dtd vs xsd from schema source, reading it as XML up to
// the first token that decides. A markup declaration other than a DOCTYPE
// (<!ELEMENT, <!ENTITY, …) means a DTD; a first start tag named schema,
// with any prefix, means a schema document. Comments, processing
// instructions, text and a DOCTYPE are read past, so either kind may quote
// the other's markup in a comment, and a schema document's internal subset
// may declare elements. Anything else — another first element, no element,
// or text that is not well-formed XML, as most DTDs are not — means a DTD.
func sniffKind(src []byte) string {
	var tok xmltok.Tokenizer
	tok.Reset(src)
	for {
		k, err := tok.Next()
		if err != nil {
			return client.KindDTD
		}
		switch k {
		case xmltok.Directive:
			if !bytes.HasPrefix(tok.Text(), []byte("DOCTYPE")) {
				return client.KindDTD
			}
		case xmltok.StartElement:
			if string(tok.Local()) == "schema" {
				return client.KindXSD
			}
			return client.KindDTD
		}
	}
}

// compileSchema builds a registry entry from source (outside any lock —
// compilation is pure and may be slow).
func (s *Server) compileSchema(name, kind string, src []byte) (*schemaEntry, error) {
	if kind == "" {
		kind = sniffKind(src)
	}
	e := &schemaEntry{info: client.SchemaInfo{
		Name:      name,
		Kind:      kind,
		UpdatedAt: time.Now().UTC(),
	}}
	// tiers counts the schema's compiled content models per engine tier:
	// the Auto-ladder resolution of each deterministic regular model, plus
	// "counter" for numeric (§3.3) XSD models. Nondeterministic models have
	// no engine and are not counted (they already surface as warnings).
	e.tiers = make(map[string]int)
	switch kind {
	case client.KindDTD:
		d, err := dtd.ParseWithCache(string(src), s.cache)
		if err != nil {
			return nil, err
		}
		e.schema = d
		e.info.Elements = len(d.Elements)
		for _, issue := range d.Check() {
			e.info.Warnings = append(e.info.Warnings,
				fmt.Sprintf("element %s: %s", issue.Element, issue.Msg))
		}
		for _, el := range d.Elements {
			if el.Kind == dtd.Children && el.CM != nil && el.Deterministic {
				e.tiers[el.CM.AutoAlgorithm().String()]++
			}
		}
	case client.KindXSD:
		sch, err := xsd.ParseWithCache(src, s.cache)
		if err != nil {
			return nil, err
		}
		e.schema = sch
		e.info.Elements = len(sch.Roots)
		for _, t := range sch.AllTypes {
			switch {
			case t.Kind != xsd.Children:
			case !t.Deterministic:
				e.info.Warnings = append(e.info.Warnings,
					fmt.Sprintf("type %s: content model %s violates UPA (%s)", t.Name, t.Model, t.Rule))
			case t.Numeric:
				e.tiers[dregex.TierCounter]++
			case t.CM != nil:
				e.tiers[t.CM.AutoAlgorithm().String()]++
			}
		}
	default:
		return nil, fmt.Errorf("unknown schema kind %q (want dtd or xsd)", kind)
	}
	e.om = s.schemaMetricsFor(name)
	e.limiter = s.schemaLimiter(name)
	s.registerTierGauges(name, e.tiers)
	return e, nil
}

// storeSchema publishes entry under its name, atomically replacing any
// previous version; it reports whether the name existed before. In-flight
// requests that resolved the old entry finish against it undisturbed.
func (s *Server) storeSchema(e *schemaEntry) (replaced bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.schemas.Load()
	next := make(map[string]*schemaEntry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	prev, replaced := old[e.info.Name]
	if replaced {
		e.info.Version = prev.info.Version + 1
	} else {
		e.info.Version = 1
	}
	next[e.info.Name] = e
	s.schemas.Store(&next)
	s.swaps.Add(1)
	return replaced
}

// deleteSchema removes name from the registry; it reports whether the name
// was registered. A delete is a registry mutation like any other, so it
// bumps the swap counter /v1/stats and /metrics report.
func (s *Server) deleteSchema(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.schemas.Load()
	if _, ok := old[name]; !ok {
		return false
	}
	next := make(map[string]*schemaEntry, len(old)-1)
	for k, v := range old {
		if k != name {
			next[k] = v
		}
	}
	s.schemas.Store(&next)
	s.swaps.Add(1)
	return true
}
