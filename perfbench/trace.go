package main

// The traced run. It boots and warms the server as the end-to-end run
// does, replays one untraced pass of the workload's traffic for the
// runtime and cache counts, then replays a seeded sample of the requests
// through each layer's public entry point, one level at a time:
//
//	validate request: request (client over TCP) > client, transport, handler
//	                  handler > validate
//	                  validate > tokenize, lookup, step.<tier>, attrs
//	PUT request:      request > handler > schema.<kind> > compile.<phase>
//	compile request:  request > handler > compile.<phase>
//
// Children are measured in their own replays, so a span's parent link is
// logical, not temporal; a layer's self time is its span minus its
// children. Spans are kept in memory and written out at exit.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"dregex"
	"dregex/client"
	"dregex/internal/ast"
	"dregex/internal/determinism"
	"dregex/internal/dtd"
	"dregex/internal/follow"
	"dregex/internal/match"
	"dregex/internal/numeric"
	"dregex/internal/parsetree"
	"dregex/internal/server"
	"dregex/internal/skeleton"
	"dregex/internal/xmltok"
	"dregex/internal/xsd"
)

// span is one timed call at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Req    int    `json:"req"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// level is one layer boundary of the replay: f is called once per sample
// index, and each call is one span whose parent is the call of the parent
// level for the same request in the same repetition.
type level struct {
	name     string
	n        int
	at       func(i int) (int, bool) // this level's index for request i; nil: i itself
	parent   *level
	parentOf func(k int) int  // index in the parent level; nil: the same index
	req      func(k int) int  // request id of index k
	prep     func(rep, k int) // untimed set-up before each call, or nil
	f        func(rep, k int)
	nospan   bool // timed, but recorded as no span (a correction term)
	untimed  bool // no clock read per call: only the batch wall time
	// label names index k's span when the name depends on the request.
	label func(k int) string

	ids   [][]int     // span index per repetition and index (-1: none)
	durs  [][]float64 // call durations per index, one per repetition
	walls []float64   // batch wall time per repetition (batch replays)
}

// group is a set of levels replayed together: interleaved, each request
// goes through all the group's levels back to back, so cache warmth falls
// on every level alike; otherwise each level replays the whole sample back
// to back, as closed-loop traffic does.
type group struct {
	interleave bool
	levels     []*level
}

// run replays the groups reps times over n requests. Every repetition runs
// each group once, and the order of groups and of levels rotates from one
// repetition to the next, so drift in machine speed falls on every level
// alike. Spans are recorded after each repetition, parents first (groups
// and levels are given parents first).
func (t *tracer) run(reps, n int, groups ...group) {
	type call struct{ start, end int64 }
	calls := map[*level][]call{}
	for _, g := range groups {
		for _, lv := range g.levels {
			lv.durs = make([][]float64, lv.n)
		}
	}
	one := func(rep, i int, lv *level) {
		k, ok := i, true
		if lv.at != nil {
			k, ok = lv.at(i)
		}
		if !ok {
			return
		}
		if lv.prep != nil {
			lv.prep(rep, k)
		}
		if lv.untimed {
			lv.f(rep, k)
			return
		}
		s := time.Since(t.t0).Nanoseconds()
		lv.f(rep, k)
		e := time.Since(t.t0).Nanoseconds()
		calls[lv][k] = call{s, e}
		lv.durs[k] = append(lv.durs[k], float64(e-s))
	}
	for rep := 0; rep < reps; rep++ {
		for _, g := range groups {
			for _, lv := range g.levels {
				calls[lv] = make([]call, lv.n)
			}
		}
		for gi := range groups {
			g := groups[(gi+rep)%len(groups)]
			L := len(g.levels)
			if g.interleave {
				for i := 0; i < n; i++ {
					for r := range g.levels {
						one(rep, i, g.levels[(r+rep+i)%L])
					}
				}
				continue
			}
			for r := range g.levels {
				lv := g.levels[(r+rep)%L]
				start := time.Now()
				for i := 0; i < n; i++ {
					one(rep, i, lv)
				}
				lv.walls = append(lv.walls, float64(time.Since(start).Nanoseconds()))
			}
		}
		for _, g := range groups {
			for _, lv := range g.levels {
				row := make([]int, lv.n)
				for k, c := range calls[lv] {
					row[k] = -1
					if lv.nospan || c.end == 0 {
						continue
					}
					parent := -1
					if lv.parent != nil {
						pk := k
						if lv.parentOf != nil {
							pk = lv.parentOf(k)
						}
						parent = lv.parent.ids[rep][pk]
					}
					name := lv.name
					if lv.label != nil {
						name = lv.label(k)
					}
					t.spans = append(t.spans, span{name, c.start, c.end, parent, lv.req(k)})
					row[k] = len(t.spans) - 1
				}
				lv.ids = append(lv.ids, row)
			}
		}
	}
}

// total is the level's time over the sample: the sum over indices of each
// index's median call duration.
func (lv *level) total() float64 {
	s := 0.0
	for _, d := range lv.durs {
		if len(d) > 0 {
			s += median(d)
		}
	}
	return s
}

// allocs counts the heap allocations, process-wide, of one more pass over
// the level's sample (as a repetition of its own, so write requests stay
// fresh). Allocations of the untimed set-up are not counted.
func (lv *level) allocs() float64 {
	var a, b, pa, pb runtime.MemStats
	rep := len(lv.ids)
	var prep uint64
	runtime.ReadMemStats(&a)
	for k := 0; k < lv.n; k++ {
		if lv.prep != nil {
			runtime.ReadMemStats(&pa)
			lv.prep(rep, k)
			runtime.ReadMemStats(&pb)
			prep += pb.Mallocs - pa.Mallocs
		}
		lv.f(rep, k)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs - prep)
}

// Replay sizes: how many requests of each kind the sample holds, and how
// often each level replays it.
const (
	traceReps        = 15
	tracePuts        = 16
	traceCompiles    = 40
	smallBucketNodes = 64   // compile.ns_per_node.small: expressions below this
	largeBucketNodes = 1024 // compile.ns_per_node.large: expressions at or above this
)

// validateSampleSize is how many documents the traced run samples.
func validateSampleSize(name string) int {
	switch name {
	case wlServeSmall:
		return 128
	case wlSchemaChurn:
		return 64
	case wlWideModels:
		return 24 // every document: the tiers interleave by id
	}
	return 16
}

// evenly picks n evenly spaced indices of a list of length total,
// alternating the parity of the picks so that lists whose even and odd
// entries differ in kind (DTD and XSD documents) are sampled alike.
func evenly(total, n int) []int {
	if n > total {
		n = total
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i * total / n
		if total/n >= 2 && out[i]%2 != i%2 {
			out[i]++
		}
	}
	return out
}

// cannedRT answers every request with the recorded response of the
// sampled request, without a network: the client replays through it.
type cannedRT struct {
	body []byte
	hdr  http.Header
}

func (c *cannedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Header: c.hdr, Request: req,
		ContentLength: int64(len(c.body)), Body: io.NopCloser(bytes.NewReader(c.body))}, nil
}

// resetBody is a rewindable request body, so one request value can be
// replayed against the handler.
type resetBody struct{ *bytes.Reader }

func (resetBody) Close() error { return nil }

// recorder is an allocation-free ResponseWriter that keeps the last body.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.h }
func (w *recorder) Write(b []byte) (int, error) {
	return w.body.Write(b)
}
func (w *recorder) WriteHeader(code int) { w.code = code }

// handlerCall prepares a direct call of the server's handler.
type handlerCall struct {
	req *http.Request
	rb  resetBody
	w   recorder
}

func newHandlerCall(method, target, contentType string, body []byte) *handlerCall {
	hc := &handlerCall{req: httptest.NewRequest(method, target, nil), w: recorder{h: http.Header{}}}
	hc.req.Header.Set("Content-Type", contentType)
	hc.req.ContentLength = int64(len(body))
	hc.rb = resetBody{bytes.NewReader(body)}
	return hc
}

func (hc *handlerCall) serve(h http.Handler) int {
	hc.rb.Seek(0, io.SeekStart)
	hc.req.Body = hc.rb
	hc.w.body.Reset()
	hc.w.code = http.StatusOK
	for k := range hc.w.h {
		delete(hc.w.h, k)
	}
	h.ServeHTTP(&hc.w, hc.req)
	return hc.w.code
}

// echoServer serves recorded responses over net/http, for the transport
// layer: the same round trip with no dregexd handler behind it.
type echoServer struct {
	hs    *http.Server
	serve chan error
	url   string
	resps [][]byte
}

func newEchoServer(srv *server.Server, resps [][]byte) (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	es := &echoServer{hs: srv.NewHTTPServer(ln.Addr().String()), serve: make(chan error, 1),
		url: "http://" + ln.Addr().String(), resps: resps}
	es.hs.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		i, _ := strconv.Atoi(r.URL.Query().Get("i"))
		w.Header()["Content-Type"] = []string{"application/json"}
		w.Write(es.resps[i])
	})
	go func() { es.serve <- es.hs.Serve(ln) }()
	return es, nil
}

func (es *echoServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	es.hs.Shutdown(ctx)
	<-es.serve
}

// replayOcc is one content-model occurrence prepared for the lookup and
// step replays.
type replayOcc struct {
	occurrence
	syms []ast.Symbol
}

func (o *replayOcc) intern(dst []ast.Symbol) []ast.Symbol {
	if o.cm != nil {
		return o.cm.InternInto(dst, o.names)
	}
	return o.ncm.InternInto(dst, o.names)
}

// stepper feeds interned words to the occurrence's engine, reusing stream
// values across words as the validators do.
type stepper struct {
	s  match.Stream
	ns numeric.Stream
}

func (st *stepper) feed(o *replayOcc) bool {
	if o.cm != nil {
		m, err := o.cm.Matcher(dregex.Auto)
		if err != nil {
			return false
		}
		m.InitStream(&st.s)
		for _, a := range o.syms {
			st.s.Feed(a)
		}
		return st.s.Accepts()
	}
	o.ncm.Matcher().InitStream(&st.ns)
	for _, a := range o.syms {
		st.ns.Feed(a)
	}
	return st.ns.Accepts()
}

func prepareOccs(occs []occurrence) []replayOcc {
	out := make([]replayOcc, len(occs))
	for i, o := range occs {
		out[i] = replayOcc{occurrence: o}
		out[i].syms = out[i].intern(nil)
	}
	return out
}

// validator validates documents through the library with reused state.
type validator struct {
	dst dtd.DocState
	xst xsd.DocState
}

func (v *validator) validate(c compiled, body []byte) error {
	var err error
	if c.dtd != nil {
		_, err = c.dtd.ValidateBytesReusing(body, &v.dst)
	} else {
		_, err = c.xsd.ValidateBytesReusing(body, &v.xst)
	}
	return err
}

// tokenize scans body the way the validators' tokenizer does.
func tokenize(tok *xmltok.Tokenizer, c compiled, body []byte) {
	tok.Reset(body)
	if c.dtd != nil {
		tok.SetEntities(c.dtd.Entities)
	}
	for {
		if _, err := tok.Next(); err != nil {
			return
		}
	}
}

// validateLedger holds the validate-request measurements, summed over the
// sample (ns), and the sample's exact input counts.
type validateLedger struct {
	n                                 int
	request, untraced, traced, client float64
	rtSelf, transport, handler        float64
	validate, tokenize, lookup, attrs float64
	step                              map[string]float64
	bytes, syms, attrCount            float64
	tierSyms                          map[string]float64
	e2eAllocs, clientAllocs, rtAllocs float64
	handlerAllocs, validateAllocs     float64
	// Layers the sample does not reach, measured on the reference corpus.
	refStep, refTierSyms   map[string]float64
	refAttrs, refAttrCount float64
	// Derived, per request.
	driver, handlerSelf, unattributed float64
	clientSelf, transportAllocs, e2e  float64
}

// derive computes the self times and the unattributed remainder from the
// measured sums; the derived values are per request.
func (l *validateLedger) derive() {
	n := float64(l.n)
	steps := sumMap(l.step)
	l.driver = (l.validate - l.tokenize - l.lookup - steps - l.attrs) / n
	l.handlerSelf = (l.handler - l.validate) / n
	l.clientSelf = (l.client - l.rtSelf) / n
	l.e2e = l.request / n
	l.unattributed = l.e2e - l.clientSelf - l.transport/n - l.handler/n
	l.transportAllocs = (l.e2eAllocs - (l.clientAllocs - l.rtAllocs) - l.handlerAllocs) / n
}

// traceValidates replays the validate sample at every level.
func traceValidates(t *tracer, in *inputs, e *env, schemas map[string]compiled,
	shapes []*docShape, ref *refCorpus) (*validateLedger, error) {
	idx := evenly(len(in.docs), validateSampleSize(in.name))
	n := len(idx)
	docs := make([]*doc, n)
	for i, j := range idx {
		docs[i] = &in.docs[j]
	}
	req := func(i int) int { return idx[i] }
	l := &validateLedger{n: n, step: map[string]float64{}, tierSyms: map[string]float64{}}
	ctx := context.Background()

	// A first direct handler call per document records the responses the
	// client and transport replays serve.
	h := e.srv.Handler()
	calls := make([]*handlerCall, n)
	resps := make([][]byte, n)
	for i, d := range docs {
		calls[i] = newHandlerCall("POST", "/v1/validate?schema="+url.QueryEscape(d.Schema), "application/xml", d.Body)
		if code := calls[i].serve(h); code != http.StatusOK {
			return nil, fmt.Errorf("handler replay of %s: status %d", docID(d), code)
		}
		resps[i] = bytes.Clone(calls[i].w.body.Bytes())
	}
	hdr := http.Header{"Content-Type": {"application/json"}}
	rts := make([]*cannedRT, n)
	clients := make([]*client.Client, n)
	rtReqs := make([]*http.Request, n)
	for i, d := range docs {
		rts[i] = &cannedRT{body: resps[i], hdr: hdr}
		clients[i] = client.New("http://bench.invalid", &http.Client{Transport: rts[i]})
		rtReqs[i], _ = http.NewRequest("POST", "http://bench.invalid/v1/validate?schema="+d.Schema, nil)
	}
	es, err := newEchoServer(e.srv, resps)
	if err != nil {
		return nil, err
	}
	defer es.close()
	echoTr := http.DefaultTransport.(*http.Transport).Clone()
	defer echoTr.CloseIdleConnections()
	echoReqs := make([]*http.Request, n)
	for i, d := range docs {
		echoReqs[i], _ = http.NewRequest("POST", es.url+"/v1/validate?i="+strconv.Itoa(i), nil)
		echoReqs[i].Header.Set("Content-Type", "application/xml")
		echoReqs[i].ContentLength = int64(len(d.Body))
	}
	occs := make([][]replayOcc, n)
	for i, j := range idx {
		occs[i] = prepareOccs(shapes[j].occs)
		l.bytes += float64(shapes[j].bytes)
		for _, o := range occs[i] {
			l.syms += float64(len(o.names))
			l.tierSyms[o.tier] += float64(len(o.names))
		}
	}

	var failed int
	var echoErr error
	var v validator
	var tok xmltok.Tokenizer
	var scratch []ast.Symbol
	var st stepper
	untraced := &level{name: "request.untraced", n: n, req: req, untimed: true, f: func(_, i int) {
		e.cl.Validate(ctx, docs[i].Schema, docs[i].Body)
	}}
	request := &level{name: "request", n: n, req: req, f: func(_, i int) {
		resp, err := e.cl.Validate(ctx, docs[i].Schema, docs[i].Body)
		if checkValidate(docs[i], resp, err) != "" {
			failed++
		}
	}}
	clientLv := &level{name: "client", n: n, req: req, parent: request, f: func(_, i int) {
		clients[i].Validate(ctx, docs[i].Schema, docs[i].Body)
	}}
	rtLv := &level{name: "client.canned-roundtrip", n: n, req: req, nospan: true, f: func(_, i int) {
		resp, _ := rts[i].RoundTrip(rtReqs[i])
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}}
	transport := &level{name: "transport", n: n, req: req, parent: request, f: func(_, i int) {
		r := echoReqs[i]
		r.Body = io.NopCloser(bytes.NewReader(docs[i].Body))
		resp, err := echoTr.RoundTrip(r)
		if err != nil {
			echoErr = err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}}
	handler := &level{name: "handler", n: n, req: req, parent: request, f: func(_, i int) { calls[i].serve(h) }}
	validate := &level{name: "validate", n: n, req: req, parent: handler, f: func(_, i int) {
		v.validate(schemas[docs[i].Schema], docs[i].Body)
	}}
	tokenizeLv := &level{name: "tokenize", n: n, req: req, parent: validate, f: func(_, i int) {
		tokenize(&tok, schemas[docs[i].Schema], docs[i].Body)
	}}
	lookup := &level{name: "lookup", n: n, req: req, parent: validate, f: func(_, i int) {
		for k := range occs[i] {
			scratch = occs[i][k].intern(scratch[:0])
		}
	}}
	levels := []*level{clientLv, rtLv, handler, validate, tokenizeLv, lookup}
	steps := map[string]*level{}
	for _, tier := range tiers {
		if l.tierSyms[tier] == 0 {
			continue
		}
		steps[tier] = &level{name: "step." + tier, n: n, req: req, parent: validate, f: func(_, i int) {
			for k := range occs[i] {
				if occs[i][k].tier == tier {
					st.feed(&occs[i][k])
				}
			}
		}}
		levels = append(levels, steps[tier])
	}
	attrLevels, attrCount := attrsLevels(docs, schemas, validate, req, &v, &tok)
	levels = append(levels, attrLevels...)
	// Requests over TCP replay in batches, back to back like the traffic
	// they sample; the in-process levels replay interleaved.
	t.run(traceReps, n, group{false, []*level{untraced, request, transport}}, group{true, levels})
	if failed > 0 {
		return nil, fmt.Errorf("traced replay: %d wrong verdicts", failed)
	}
	if echoErr != nil {
		return nil, fmt.Errorf("transport replay: %w", echoErr)
	}
	l.untraced, l.traced = median(untraced.walls), median(request.walls)
	l.request, l.client, l.rtSelf = request.total(), clientLv.total(), rtLv.total()
	l.transport, l.handler, l.validate = transport.total(), handler.total(), validate.total()
	l.tokenize, l.lookup = tokenizeLv.total(), lookup.total()
	for tier, lv := range steps {
		l.step[tier] = lv.total()
	}
	l.attrs, l.attrCount = attrsCost(attrLevels), attrCount
	l.e2eAllocs, l.clientAllocs, l.rtAllocs = request.allocs(), clientLv.allocs(), rtLv.allocs()
	l.handlerAllocs, l.validateAllocs = handler.allocs(), validate.allocs()

	// Layers the sample does not reach are measured on the reference
	// corpus, so every per-layer metric is a measurement.
	l.refStep, l.refTierSyms = map[string]float64{}, map[string]float64{}
	var refLevels []*level
	refSteps := map[string]*level{}
	noReq := func(int) int { return -1 }
	for _, tier := range tiers {
		if l.tierSyms[tier] > 0 {
			continue
		}
		var occs []replayOcc
		for _, sh := range ref.shapes {
			for _, o := range prepareOccs(sh.occs) {
				if o.tier == tier {
					occs = append(occs, o)
					l.refTierSyms[tier] += float64(len(o.names))
				}
			}
		}
		refSteps[tier] = &level{name: "ref.step." + tier, n: len(occs), req: noReq, f: func(_, i int) { st.feed(&occs[i]) }}
		refLevels = append(refLevels, refSteps[tier])
	}
	var refAttrs []*level
	if attrCount == 0 {
		refAttrs, l.refAttrCount = attrsLevels(ref.docs, ref.schemas, nil, noReq, &v, &tok)
		t.run(traceReps, len(ref.docs), group{true, refAttrs})
	}
	for _, lv := range refLevels {
		t.run(traceReps, lv.n, group{true, []*level{lv}})
	}
	for tier, lv := range refSteps {
		l.refStep[tier] = lv.total()
	}
	l.refAttrs = attrsCost(refAttrs)
	l.derive()
	return l, nil
}

// attrsLevels builds the levels that measure ATTLIST checking by
// difference: each ledger document with attributes is validated and
// tokenized next to its attribute-free twin under the ATTLIST-free DTD.
// It returns the levels and the attribute count.
func attrsLevels(docs []*doc, schemas map[string]compiled, parent *level,
	req func(int) int, v *validator, tok *xmltok.Tokenizer) ([]*level, float64) {
	var pick []int
	var count float64
	var twins [][]byte
	for i, d := range docs {
		if d.Schema == hotDTD && d.Attrs > 0 && d.twin != nil {
			pick = append(pick, i)
			count += float64(d.Attrs)
			twins = append(twins, d.twin(docSpec{noAttrs: true, defect: d.Defect}))
		}
	}
	if len(pick) == 0 {
		return nil, 0
	}
	bare, err := compileSchema(schema{Kind: client.KindDTD, Src: ledgerBareDTD}, dregex.NewCache(64))
	if err != nil {
		panic(err) // a constant schema
	}
	full := schemas[hotDTD]
	at := map[int]int{}
	for k, i := range pick {
		at[i] = k
	}
	mk := func(name string, f func(k int)) *level {
		lv := &level{name: name, n: len(pick), req: func(k int) int { return req(pick[k]) },
			at: func(i int) (int, bool) { k, ok := at[i]; return k, ok }, f: func(_, k int) { f(k) }}
		if parent != nil {
			lv.parent, lv.parentOf = parent, func(k int) int { return pick[k] }
		}
		return lv
	}
	return []*level{
		mk("attrs.validate", func(k int) { v.validate(full, docs[pick[k]].Body) }),
		mk("attrs.validate-bare", func(k int) { v.validate(bare, twins[k]) }),
		mk("attrs.tokenize", func(k int) { tokenize(tok, full, docs[pick[k]].Body) }),
		mk("attrs.tokenize-bare", func(k int) { tokenize(tok, bare, twins[k]) }),
	}, count
}

// attrsCost is the validate difference minus the tokenize difference of
// the attrsLevels.
func attrsCost(lv []*level) float64 {
	if len(lv) == 0 {
		return 0
	}
	return (lv[0].total() - lv[1].total()) - (lv[2].total() - lv[3].total())
}

// refCorpus is what layers a workload does not reach are measured on:
// sixteen small hot-schema documents (table and counter tiers, ATTLIST
// checks) and one document per base-registry tail model (the §4 tiers).
type refCorpus struct {
	docs    []*doc
	schemas map[string]compiled
	shapes  []*docShape
}

func newRefCorpus(seed int64, base []schema) (*refCorpus, error) {
	ref := &refCorpus{schemas: map[string]compiled{}}
	cache := dregex.NewCache(4096)
	for _, s := range hotSchemas {
		c, err := compileSchema(s, cache)
		if err != nil {
			return nil, err
		}
		ref.schemas[s.Name] = c
	}
	for _, d := range hotDocs(seed, "ref", 16, 512, 8<<10, false) {
		d := d
		ref.docs = append(ref.docs, &d)
	}
	for _, tier := range tailTiers {
		m := wideModel(tier, tailM(tier, tailWidth))
		s := wideSchema("tail-"+tier, "tail", m)
		c, err := compileSchema(s, cache)
		if err != nil {
			return nil, err
		}
		ref.schemas[s.Name] = c
		word := modelWords(rng(seed, "ref/"+tier), m, []int{2000})[0]
		ref.docs = append(ref.docs, &doc{Schema: s.Name, Body: wideDoc("tail", word)})
	}
	for _, d := range ref.docs {
		sh, err := ref.schemas[d.Schema].walk(d.Body)
		if err != nil {
			return nil, err
		}
		ref.shapes = append(ref.shapes, sh)
	}
	return ref, nil
}

// compileLedger holds the write-path measurements, summed (ns), with the
// node and model counts they are normalized by.
type compileLedger struct {
	puts                                    int
	putRequest, putHandler                  float64
	schemaTotal, schemaSelf, schemaCount    map[string]float64
	phase                                   map[string]float64
	phaseNodes                              float64
	numeric, numericNodes                   float64
	engine, engineModels                    float64
	compiles                                int
	compileRequest, compileHandler          float64
	explain, explainModels                  float64
	bucket, bucketNodes                     [2]float64 // small, large
	pipelineAllocs, putAllocs, compileNodes float64
}

var phases = []string{"parse", "normalize", "parsetree", "follow", "skeleta", "determinism"}

// phaseTimes runs the plain compile pipeline on one model text, timing
// each phase; it mirrors dregex.Compile.
func phaseTimes(text string) (ts [7]time.Time, nodes int, err error) {
	alpha := ast.NewAlphabet()
	t0 := time.Now()
	root, err := ast.ParseDTD(text, alpha)
	if err != nil {
		return ts, 0, err
	}
	t1 := time.Now()
	nodes = ast.Size(root)
	root = ast.Normalize(ast.DesugarPlus(ast.Normalize(root)))
	if err := ast.ValidatePlain(root); err != nil {
		return ts, 0, err
	}
	t2 := time.Now()
	tree, err := parsetree.Build(root, alpha)
	if err != nil {
		return ts, 0, err
	}
	t3 := time.Now()
	fol := follow.New(tree)
	t4 := time.Now()
	sks := skeleton.Build(tree, fol, skeleton.Options{})
	t5 := time.Now()
	determinism.CheckSkeletons(tree, sks, false)
	t6 := time.Now()
	return [7]time.Time{t0, t1, t2, t3, t4, t5, t6}, nodes, nil
}

// modelTexts lists the distinct content models a parsed schema compiled,
// with whether each went through the numeric pipeline.
func modelTexts(c compiled) (plain, counted []string) {
	seen := map[string]bool{}
	if c.dtd != nil {
		for _, name := range c.dtd.Order {
			if el := c.dtd.Elements[name]; el.Kind == dtd.Children && !seen[el.Model] {
				seen[el.Model] = true
				plain = append(plain, el.Model)
			}
		}
		return plain, nil
	}
	for _, t := range c.xsd.AllTypes {
		if t.Kind != xsd.Children || seen[t.Model] {
			continue
		}
		seen[t.Model] = true
		if t.Numeric {
			counted = append(counted, t.Model)
		} else {
			plain = append(plain, t.Model)
		}
	}
	return plain, counted
}

// traceWrites replays a sample of PUT and compile requests. Every replay
// of a request carries a fresh tag, and library replays use a fresh
// cache, so each one misses the cache as the original request did.
func traceWrites(t *tracer, in *inputs, e *env) (*compileLedger, error) {
	l := &compileLedger{schemaTotal: map[string]float64{}, schemaSelf: map[string]float64{},
		schemaCount: map[string]float64{}, phase: map[string]float64{}}
	ctx := context.Background()
	h := e.srv.Handler()
	tag := func(level string, rep, i int) string { return fmt.Sprintf("t%s%d_%d_", level, rep, i) }
	const reqBase = 1 << 20 // write request ids, apart from document ids

	// PUTs. Templates alternate DTD and XSD; sample both kinds alike.
	puts := evenly(len(in.writes.puts)/2, tracePuts/2)
	for i := range puts {
		puts[i] *= 2
	}
	for i, n := 0, len(puts); i < n; i++ {
		puts = append(puts, puts[i]+1)
	}
	np := len(puts)
	l.puts = np
	putSchema := func(level string, rep, i int) schema {
		s := in.writes.puts[puts[i]].tagged(tag(level, rep, i))
		s.Name = fmt.Sprintf("trace-%02d", i)
		return s
	}
	putReq := func(i int) int { return reqBase + i }
	var putErr error
	request := &level{name: "request", n: np, req: putReq, f: func(rep, i int) {
		s := putSchema("r", rep, i)
		if _, err := e.cl.PutSchema(ctx, s.Name, s.Kind, []byte(s.Src)); err != nil {
			putErr = err
		}
	}}
	hcs := make([]*handlerCall, np)
	handler := &level{name: "handler", n: np, req: putReq, parent: request,
		prep: func(rep, i int) {
			s := putSchema("h", rep, i)
			hcs[i] = newHandlerCall("PUT", "/v1/schemas/"+s.Name+"?kind="+s.Kind, "application/xml", []byte(s.Src))
		},
		f: func(_, i int) {
			if code := hcs[i].serve(h); code != http.StatusOK && code != http.StatusCreated {
				putErr = fmt.Errorf("status %d: %s", code, hcs[i].w.body.String())
			}
		}}
	caches := make([]*dregex.Cache, np)
	parsed := make([]compiled, np)
	schemaLv := &level{name: "schema", n: np, req: putReq, parent: handler,
		label: func(i int) string { return "schema." + putSchema("", 0, i).Kind },
		prep:  func(_, i int) { caches[i] = dregex.NewCache(4096) },
		f: func(rep, i int) {
			c, err := compileSchema(putSchema("s", rep, i), caches[i])
			if err != nil {
				putErr = err
			}
			parsed[i] = c
		}}
	t.run(traceReps, np, group{true, []*level{request, handler, schemaLv}})
	if putErr != nil {
		return nil, fmt.Errorf("PUT replay: %w", putErr)
	}
	l.putRequest, l.putHandler = request.total(), handler.total()
	l.putAllocs = handler.allocs() / float64(np)
	for i := range puts {
		kind := putSchema("", 0, i).Kind
		total := median(schemaLv.durs[i])
		parent, req := schemaLv.ids[0][i], putReq(i)
		children := 0.0
		plain, counted := modelTexts(parsed[i])
		for _, text := range plain {
			ph, nodes, err := t.compilePhases(text, parent, req)
			if err != nil {
				return nil, err
			}
			for k, name := range phases {
				l.phase[name] += ph[k]
				children += ph[k]
			}
			l.phaseNodes += float64(nodes)
			eng, err := t.timed("compile.engine", parent, req, func() (time.Duration, error) {
				x, err := dregex.Compile(text, syntaxOf(kind))
				if err != nil {
					return 0, err
				}
				start := time.Now()
				_, err = x.Matcher(dregex.Auto)
				return time.Since(start), err
			})
			if err != nil {
				return nil, err
			}
			l.engine += eng
			l.engineModels++
			children += eng
		}
		for _, text := range counted {
			d, err := t.timed("compile.numeric", parent, req, func() (time.Duration, error) {
				start := time.Now()
				_, err := dregex.CompileNumeric(text, dregex.XSD)
				return time.Since(start), err
			})
			if err != nil {
				return nil, err
			}
			root, err := ast.ParseDTD(text, ast.NewAlphabet())
			if err != nil {
				return nil, err
			}
			l.numeric += d
			l.numericNodes += float64(ast.Size(root))
			children += d
		}
		l.schemaTotal[kind] += total
		l.schemaSelf[kind] += total - children
		l.schemaCount[kind]++
	}

	// Compiles.
	comps := evenly(len(in.writes.compiles), traceCompiles)
	nc := len(comps)
	l.compiles = nc
	compReq := func(level string, rep, i int) compileReq {
		return in.writes.compiles[comps[i]].tagged(tag(level, rep, i))
	}
	creq := func(i int) int { return reqBase + np + i }
	var compErr error
	cRequest := &level{name: "request", n: nc, req: creq, f: func(rep, i int) {
		c := compReq("r", rep, i)
		resp, err := e.cl.Compile(ctx, client.CompileRequest{Expr: c.Expr, Syntax: client.SyntaxDTD})
		if why := checkCompile(&c, resp, err); why != "" {
			compErr = errors.New(why)
		}
	}}
	chcs := make([]*handlerCall, nc)
	cHandler := &level{name: "handler", n: nc, req: creq, parent: cRequest,
		prep: func(rep, i int) {
			body, _ := json.Marshal(client.CompileRequest{Expr: compReq("h", rep, i).Expr, Syntax: client.SyntaxDTD})
			chcs[i] = newHandlerCall("POST", "/v1/compile", "application/json", body)
		},
		f: func(_, i int) {
			if code := chcs[i].serve(h); code != http.StatusOK {
				compErr = fmt.Errorf("status %d", code)
			}
		}}
	t.run(traceReps, nc, group{true, []*level{cRequest, cHandler}})
	if compErr != nil {
		return nil, fmt.Errorf("compile replay: %w", compErr)
	}
	l.compileRequest, l.compileHandler = cRequest.total(), cHandler.total()
	for i := range comps {
		c := compReq("p", 0, i)
		parent, req := cHandler.ids[0][i], creq(i)
		ph, nodes, err := t.compilePhases(c.Expr, parent, req)
		if err != nil {
			return nil, err
		}
		for k, name := range phases {
			l.phase[name] += ph[k]
		}
		l.phaseNodes += float64(nodes)
		l.compileNodes += float64(nodes)
		whole, err := t.timed("", -1, req, func() (time.Duration, error) {
			start := time.Now()
			_, err := dregex.Compile(c.Expr, dregex.DTD)
			return time.Since(start), err
		})
		if err != nil {
			return nil, err
		}
		switch {
		case nodes < smallBucketNodes:
			l.bucket[0] += whole
			l.bucketNodes[0] += float64(nodes)
		case nodes >= largeBucketNodes:
			l.bucket[1] += whole
			l.bucketNodes[1] += float64(nodes)
		}
		if !c.Det {
			d, err := t.timed("compile.explain", parent, req, func() (time.Duration, error) {
				x, err := dregex.Compile(c.Expr, dregex.DTD)
				if err != nil {
					return 0, err
				}
				start := time.Now()
				if x.Explain() == nil {
					return 0, errors.New("no ambiguity for a nondeterministic expression")
				}
				return time.Since(start), nil
			})
			if err != nil {
				return nil, err
			}
			l.explain += d
			l.explainModels++
		}
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := range comps {
		dregex.Compile(compReq("m", 0, i).Expr, dregex.DTD)
	}
	runtime.ReadMemStats(&b)
	l.pipelineAllocs = float64(b.Mallocs - a.Mallocs)
	return l, nil
}

func syntaxOf(kind string) dregex.Syntax {
	if kind == client.KindXSD {
		return dregex.XSD
	}
	return dregex.DTD
}

// compilePhases times the pipeline phases of one model traceReps times,
// recording each phase as a span under parent, and returns each phase's
// median and the model's node count.
func (t *tracer) compilePhases(text string, parent, req int) ([6]float64, int, error) {
	var runs [6][]float64
	var nodes int
	for rep := 0; rep < traceReps; rep++ {
		ts, n, err := phaseTimes(text)
		if err != nil {
			return [6]float64{}, 0, fmt.Errorf("pipeline replay of %.40q: %w", text, err)
		}
		nodes = n
		for k := range phases {
			runs[k] = append(runs[k], float64(ts[k+1].Sub(ts[k]).Nanoseconds()))
			t.spans = append(t.spans, span{"compile." + phases[k],
				ts[k].Sub(t.t0).Nanoseconds(), ts[k+1].Sub(t.t0).Nanoseconds(), parent, req})
		}
	}
	var out [6]float64
	for k := range runs {
		out[k] = median(runs[k])
	}
	return out, nodes, nil
}

// timed runs f traceReps times, f timing its own region, and returns the
// median; with a name, each run is also recorded as a span under parent.
func (t *tracer) timed(name string, parent, req int, f func() (time.Duration, error)) (float64, error) {
	var ds []float64
	for rep := 0; rep < traceReps; rep++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if name != "" {
			end := time.Since(t.t0).Nanoseconds()
			t.spans = append(t.spans, span{name, end - d.Nanoseconds(), end, parent, req})
		}
		ds = append(ds, float64(d.Nanoseconds()))
	}
	return median(ds), nil
}

// runtimeWindows is how many untraced windows of the workload's traffic
// the runtime counts are taken around; on the validate workloads the
// cache counts also cover runtimeProbeWindows windows of the write probe
// after its warm-up.
const (
	runtimeWindows      = 4
	runtimeProbeWindows = 64
)

// runtimeCounts are the runtime and cache counts around untraced passes
// of the workload's traffic.
type runtimeCounts struct {
	requests                 int
	gcCycles                 uint32
	allocBytes               uint64
	hits, misses, evictions  uint64
	hitRate, evictionsPerKop float64
}

// runTraced is the traced run; see the file comment.
func runTraced(in *inputs, w io.Writer, spansPath string) (*result, error) {
	c := counts{}
	e, _, err := setup(in, c)
	if err != nil {
		return nil, err
	}
	defer e.close()
	d := newDriver(in, e, c, 0)
	d.warm()

	// Untraced passes of the traffic, inside the runtime counters.
	var rc runtimeCounts
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	before := c.total()
	d.record(runtimeWindows, 0, d.step)
	runtime.ReadMemStats(&b)
	rc.requests = c.total() - before
	rc.gcCycles = b.NumGC - a.NumGC
	rc.allocBytes = b.TotalAlloc - a.TotalAlloc
	if in.name != wlSchemaChurn {
		d.record(probeWarmWindows+runtimeProbeWindows, 0, d.probeWindow)
	}
	cs := e.cache.Stats()
	rc.hits, rc.misses, rc.evictions = cs.Hits, cs.Misses, cs.Evictions
	rc.hitRate = cs.HitRate()
	if ops := cs.Hits + cs.Misses; ops > 0 {
		rc.evictionsPerKop = 1000 * float64(cs.Evictions) / float64(ops)
	}

	shapes, schemas, err := in.shapes(dregex.NewCache(4096))
	if err != nil {
		return nil, err
	}
	ref, err := newRefCorpus(in.seed, in.base)
	if err != nil {
		return nil, err
	}
	t := &tracer{t0: time.Now()}
	vl, err := traceValidates(t, in, e, schemas, shapes, ref)
	if err != nil {
		return nil, err
	}
	cl, err := traceWrites(t, in, e)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(spansPath, t.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
	}
	m := layerMetrics(in, shapes, vl, cl, rc)
	printLedger(w, vl, cl, len(t.spans), spansPath)
	return finish(w, m, c), nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerMetrics names the per-layer metrics.
func layerMetrics(in *inputs, shapes []*docShape, vl *validateLedger, cl *compileLedger, rc runtimeCounts) map[string]metric {
	n := float64(vl.n)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{
		"client.ns_per_req":            {vl.clientSelf, "ns/req"},
		"client.allocs_per_req":        {(vl.clientAllocs - vl.rtAllocs) / n, "allocs/req"},
		"transport.ns_per_req":         {vl.transport / n, "ns/req"},
		"transport.allocs_per_req":     {vl.transportAllocs, "allocs/req"},
		"handler.ns_per_req":           {vl.handlerSelf, "ns/req"},
		"handler.allocs_per_req":       {(vl.handlerAllocs - vl.validateAllocs) / n, "allocs/req"},
		"validate.ns_per_doc":          {vl.validate / n, "ns/doc"},
		"validate.allocs_per_doc":      {vl.validateAllocs / n, "allocs/doc"},
		"driver.ns_per_doc":            {vl.driver, "ns/doc"},
		"tokenize.ns_per_byte":         {vl.tokenize / vl.bytes, "ns/byte"},
		"lookup.ns_per_sym":            {div(vl.lookup, vl.syms), "ns/sym"},
		"e2e.ns_per_req":               {vl.e2e, "ns/req"},
		"e2e.allocs_per_req":           {vl.e2eAllocs / n, "allocs/req"},
		"unattributed.ns_per_req":      {vl.unattributed, "ns/req"},
		"trace.overhead_ns_per_req":    {(vl.traced - vl.untraced) / n, "ns/req"},
		"put.ns_per_schema":            {(cl.putHandler - sumMap(cl.schemaTotal)) / float64(cl.puts), "ns/schema"},
		"put.allocs_per_req":           {cl.putAllocs, "allocs/req"},
		"compile.engine.ns_per_model":  {div(cl.engine, cl.engineModels), "ns/model"},
		"compile.explain.ns_per_model": {div(cl.explain, cl.explainModels), "ns/model"},
		"compile.numeric.ns_per_node":  {div(cl.numeric, cl.numericNodes), "ns/node"},
		"compile.allocs_per_node":      {cl.pipelineAllocs / cl.compileNodes, "allocs/node"},
		"compile.ns_per_node.small":    {div(cl.bucket[0], cl.bucketNodes[0]), "ns/node"},
		"compile.ns_per_node.large":    {div(cl.bucket[1], cl.bucketNodes[1]), "ns/node"},
		"cache.hit_rate":               {rc.hitRate, "ratio"},
		"cache.evictions_per_kop":      {rc.evictionsPerKop, "1/kop"},
		"cache.hits":                   {float64(rc.hits), "count"},
		"cache.misses":                 {float64(rc.misses), "count"},
		"cache.evictions":              {float64(rc.evictions), "count"},
		"gc.cycles":                    {float64(rc.gcCycles), "count"},
		"gc.cycles_per_kreq":           {1000 * float64(rc.gcCycles) / float64(rc.requests), "1/kreq"},
		"alloc.bytes_per_req":          {float64(rc.allocBytes) / float64(rc.requests), "B/req"},
	}
	for kind, total := range map[string]string{client.KindDTD: "schema.dtd", client.KindXSD: "schema.xsd"} {
		m[total+".ns_per_schema"] = metric{div(cl.schemaSelf[kind], cl.schemaCount[kind]), "ns/schema"}
	}
	for _, p := range phases {
		m["compile."+p+".ns_per_node"] = metric{cl.phase[p] / cl.phaseNodes, "ns/node"}
	}
	for _, tier := range tiers {
		v := div(vl.step[tier], vl.tierSyms[tier])
		if vl.tierSyms[tier] == 0 {
			v = div(vl.refStep[tier], vl.refTierSyms[tier])
		}
		m["step."+tier+".ns_per_sym"] = metric{v, "ns/sym"}
	}
	if vl.attrCount > 0 {
		m["attrs.ns_per_attr"] = metric{vl.attrs / vl.attrCount, "ns/attr"}
	} else {
		m["attrs.ns_per_attr"] = metric{div(vl.refAttrs, vl.refAttrCount), "ns/attr"}
	}
	p := in.properties(shapes)
	m["bytes_per_doc"] = metric{p.bytesPerDoc, "B/doc"}
	m["symbols_per_doc"] = metric{p.symbolsPerDoc, "syms/doc"}
	m["attrs_per_doc"] = metric{p.attrsPerDoc, "attrs/doc"}
	for _, tier := range tiers {
		m["step."+tier+".syms_per_doc"] = metric{p.tierSyms[tier], "syms/doc"}
	}
	return m
}

func sumMap(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

// printLedger prints each layer's share of the traced end-to-end time,
// the unattributed remainder and the tracing overhead.
func printLedger(w io.Writer, vl *validateLedger, cl *compileLedger, spans int, path string) {
	n := float64(vl.n)
	e2e := vl.e2e
	fmt.Fprintf(w, "validate ledger over %d sampled requests: traced end to end %.0f ns/req; batch wall time traced %.0f, untraced %.0f, tracing overhead %.0f ns/req\n",
		vl.n, e2e, vl.traced/n, vl.untraced/n, (vl.traced-vl.untraced)/n)
	row := func(name string, ns float64) {
		fmt.Fprintf(w, "  %-22s %12.0f ns/req %7.2f%%\n", name, ns, 100*ns/e2e)
	}
	row("client", vl.clientSelf)
	row("transport", vl.transport/n)
	row("handler (self)", vl.handlerSelf)
	row("validate.driver", vl.driver)
	row("validate.tokenize", vl.tokenize/n)
	row("validate.lookup", vl.lookup/n)
	var ts []string
	for t := range vl.step {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	for _, t := range ts {
		row("validate.step."+t, vl.step[t]/n)
	}
	row("validate.attrs", vl.attrs/n)
	row("unattributed", vl.unattributed)
	fmt.Fprintf(w, "write ledger: PUT request %.0f ns, handler %.0f ns, schema front ends %.0f ns (per PUT); compile request %.0f ns, handler %.0f ns (per expression)\n",
		cl.putRequest/float64(cl.puts), cl.putHandler/float64(cl.puts), sumMap(cl.schemaTotal)/float64(cl.puts),
		cl.compileRequest/float64(cl.compiles), cl.compileHandler/float64(cl.compiles))
	fmt.Fprintf(w, "spans: %d written to %s\n", spans, path)
}
