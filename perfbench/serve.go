package main

// The end-to-end run: dregexd's handler stack in this process, driven over
// keep-alive TCP on 127.0.0.1 through dregex/client.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dregex"
	"dregex/client"
	"dregex/internal/server"
)

// env is one booted server and the client talking to it.
type env struct {
	srv   *server.Server
	cache *dregex.Cache
	hs    *http.Server
	ln    net.Listener
	tr    *http.Transport
	cl    *client.Client
	url   string
	serve chan error
	// idle is the goroutine count with the server up and no connection
	// open; quiesce waits for it.
	idle int
}

// boot builds the server exactly as dregexd does with its default flags
// (a 4096-entry cache, the default body limit, no access log, no
// admission limits) and a client with conns keep-alive connections.
func boot(conns int) (*env, error) {
	cache := dregex.NewCache(4096)
	srv := server.New(server.Config{
		Cache:        cache,
		MaxBodyBytes: server.DefaultMaxBodyBytes,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{srv: srv, cache: cache, hs: srv.NewHTTPServer(ln.Addr().String()), ln: ln,
		url: "http://" + ln.Addr().String(), serve: make(chan error, 1)}
	go func() { e.serve <- e.hs.Serve(ln) }()
	e.idle = runtime.NumGoroutine()
	e.tr = http.DefaultTransport.(*http.Transport).Clone()
	e.tr.MaxIdleConnsPerHost = conns
	e.cl = client.New(e.url, &http.Client{Transport: e.tr})
	return e, nil
}

// close shuts the server down and waits for its serve loop to return.
func (e *env) close() error {
	e.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.serve; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// tally counts attempts and failures of one request kind.
type tally struct {
	attempted, failed int
}

// counts holds the per-kind tallies of a run.
type counts map[string]*tally

func (c counts) add(kind string, ok bool) {
	t := c[kind]
	if t == nil {
		t = &tally{}
		c[kind] = t
	}
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (c counts) total() int {
	n := 0
	for _, t := range c {
		n += t.attempted
	}
	return n
}

func (c counts) merge(o counts) {
	for k, t := range o {
		if c[k] == nil {
			c[k] = &tally{}
		}
		c[k].attempted += t.attempted
		c[k].failed += t.failed
	}
}

// wrong reports a failed check on stderr with the request's identity.
func wrong(kind, id, why string) {
	fmt.Fprintf(os.Stderr, "WRONG %s %s: %s\n", kind, id, why)
}

// checkValidate compares a validate response with the document's verdict
// by construction: a valid document gets valid, no errors and no document
// error; a document with a planted defect gets invalid with some error on
// the defect's element.
func checkValidate(d *doc, resp *client.ValidateResponse, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case resp.DocError != "":
		return "document error: " + resp.DocError
	case d.Defect == "" && (!resp.Valid || len(resp.Errors) > 0):
		return fmt.Sprintf("valid document judged invalid: %+v", resp.Errors)
	case d.Defect == "":
		return ""
	case resp.Valid:
		return "document with " + d.Defect + " judged valid"
	}
	for _, ve := range resp.Errors {
		if ve.Element == d.Elem {
			return ""
		}
	}
	return fmt.Sprintf("%s: no error names <%s>: %+v", d.Defect, d.Elem, resp.Errors)
}

// checkPut compares a PUT answer with the schema's registration by
// construction.
func checkPut(s *schema, version int, info *client.SchemaInfo, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case info.Name != s.Name || info.Kind != s.Kind:
		return fmt.Sprintf("registered as %s/%s", info.Name, info.Kind)
	case info.Version != version:
		return fmt.Sprintf("version %d, want %d", info.Version, version)
	case info.Elements != s.Elements:
		return fmt.Sprintf("%d elements, want %d", info.Elements, s.Elements)
	case len(info.Warnings) > 0:
		return "warnings on a deterministic schema: " + strings.Join(info.Warnings, "; ")
	}
	return ""
}

// checkCompile compares a compile verdict with the expression's
// determinism by construction.
func checkCompile(c *compileReq, resp *client.CompileResponse, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case resp.Deterministic != c.Det:
		return fmt.Sprintf("deterministic=%v, want %v", resp.Deterministic, c.Det)
	case resp.Cached:
		return "fresh expression served from the cache"
	case !c.Det && (resp.Ambiguity == nil || resp.Ambiguity.Symbol != c.Sym):
		return fmt.Sprintf("ambiguity %+v, want symbol %s", resp.Ambiguity, c.Sym)
	}
	return ""
}

// Request kinds, as counted and printed.
const (
	kindValidate = "validate"
	kindPut      = "put"
	kindCompile  = "compile"
)

// setup boots a server and registers the base registry and the
// workload's own schemas, then validates one document per hot schema. The
// returned duration is setup_s: from server construction until the last
// hot validate returned its expected verdict.
func setup(in *inputs, c counts) (*env, time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	e, err := boot(in.conns)
	if err != nil {
		return nil, 0, err
	}
	for _, list := range [][]schema{in.base, in.own} {
		for i := range list {
			s := &list[i]
			info, err := e.cl.PutSchema(ctx, s.Name, s.Kind, []byte(s.Src))
			if why := checkPut(s, 1, info, err); why != "" {
				c.add(kindPut, false)
				wrong(kindPut, s.Name, why)
				e.close()
				return nil, 0, fmt.Errorf("setup: registering %s: %s", s.Name, why)
			}
			c.add(kindPut, true)
		}
	}
	for i := range in.hot {
		d := &in.hot[i]
		resp, err := e.cl.Validate(ctx, d.Schema, d.Body)
		if why := checkValidate(d, resp, err); why != "" {
			c.add(kindValidate, false)
			wrong(kindValidate, docID(d), why)
			e.close()
			return nil, 0, fmt.Errorf("setup: hot validate of %s: %s", docID(d), why)
		}
		c.add(kindValidate, true)
	}
	return e, time.Since(start), nil
}

func docID(d *doc) string { return fmt.Sprintf("%s#%d", d.Schema, d.ID) }

// liveHeap returns the live heap after two forced collections; the second
// clears the sync.Pool victim caches the first one demoted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quiesce closes the client's idle connections and waits until the
// server's connection goroutines have exited, so no per-connection buffer
// is counted as live heap.
func (e *env) quiesce() {
	e.tr.CloseIdleConnections()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if runtime.NumGoroutine() <= e.idle {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Request kinds index a driver's latencies and a window's sample ranges.
const (
	kValidate = iota
	kPut
	kCompile
	nKinds
)

// window is one equal-work stretch of a phase: a pass over the documents
// on the validate workloads, one turn of churnNames write cycles on
// schema-churn and in the write probe. Its samples of kind k are
// lat[k][from[k]:to[k]]; steal is the machine's steal time while it ran,
// in ticks.
type window struct {
	dur      time.Duration
	steal    int64
	from, to [nKinds]int
}

// driver runs the traffic of one env and records the latency of every
// right answer.
type driver struct {
	in  *inputs
	e   *env
	c   counts
	lat [nKinds][]time.Duration
	// Per connection: the documents it sends in a pass, and its latencies
	// and tallies until the pass ends.
	share   [][]int
	connLat [][]time.Duration
	connC   []counts
	windows []window
	// next counts write cycles and nextCompile compiles: cycle k sends
	// writes.put(k), then compilesPerCycle compiles in sequence.
	next, nextCompile int
	compilesPerCycle  int
	// versions tracks how many versions each PUT name holds.
	versions map[string]int
}

// newDriver reserves room for the samples of a phase of seconds, so
// recording them does not allocate once the heap baseline is taken.
func newDriver(in *inputs, e *env, c counts, seconds float64) *driver {
	d := &driver{in: in, e: e, c: c, versions: map[string]int{}, compilesPerCycle: 1,
		windows: make([]window, 0, maxWindows)}
	if in.name == wlSchemaChurn {
		d.compilesPerCycle = compilesPerCycle
	}
	validates := sampleCap(in, seconds)
	writes := int(1000*seconds) + (probeWarmWindows+probeMinWindows)*churnNames
	if in.name == wlSchemaChurn {
		writes = validates / validatesPerCycle
	}
	d.lat = [nKinds][]time.Duration{make([]time.Duration, 0, validates),
		make([]time.Duration, 0, writes), make([]time.Duration, 0, d.compilesPerCycle*writes)}
	// Connection g takes the pairs of documents whose index halved is g
	// modulo the connection count, so each carries both schemas' share.
	d.share = make([][]int, in.conns)
	for i := range in.docs {
		g := (i / 2) % in.conns
		d.share[g] = append(d.share[g], i)
	}
	for g := range d.share {
		d.connLat = append(d.connLat, make([]time.Duration, 0, len(d.share[g])))
		d.connC = append(d.connC, counts{})
	}
	for _, s := range in.own {
		d.versions[s.Name] = 1
	}
	return d
}

// validateOne sends one document, checks the verdict, and records the
// latency of a right verdict in lat.
func (d *driver) validateOne(doc *doc, lat *[]time.Duration, c counts) {
	t0 := time.Now()
	resp, err := d.e.cl.Validate(context.Background(), doc.Schema, doc.Body)
	took := time.Since(t0)
	why := checkValidate(doc, resp, err)
	c.add(kindValidate, why == "")
	if why != "" {
		wrong(kindValidate, docID(doc), why)
		return
	}
	*lat = append(*lat, took)
}

// pass validates every document once, each connection sending its share
// in a closed loop; the pass ends when every connection has finished.
func (d *driver) pass() {
	if d.in.conns == 1 {
		for i := range d.in.docs {
			d.validateOne(&d.in.docs[i], &d.lat[kValidate], d.c)
		}
		return
	}
	var wg sync.WaitGroup
	for g := range d.share {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, i := range d.share[g] {
				d.validateOne(&d.in.docs[i], &d.connLat[g], d.connC[g])
			}
		}(g)
	}
	wg.Wait()
	for g := range d.share {
		d.lat[kValidate] = append(d.lat[kValidate], d.connLat[g]...)
		d.connLat[g] = d.connLat[g][:0]
		d.c.merge(d.connC[g])
		for _, t := range d.connC[g] {
			*t = tally{}
		}
	}
}

// writeCycle sends the next write cycle: one PUT and the compiles.
func (d *driver) writeCycle() {
	ctx := context.Background()
	k := d.next
	d.next++
	s := d.in.writes.put(k)
	d.versions[s.Name]++
	t0 := time.Now()
	info, err := d.e.cl.PutSchema(ctx, s.Name, s.Kind, []byte(s.Src))
	took := time.Since(t0)
	if why := checkPut(&s, d.versions[s.Name], info, err); why != "" {
		d.c.add(kindPut, false)
		wrong(kindPut, fmt.Sprintf("%s@%d", s.Name, k), why)
	} else {
		d.c.add(kindPut, true)
		d.lat[kPut] = append(d.lat[kPut], took)
	}
	for j := 0; j < d.compilesPerCycle; j++ {
		n := d.nextCompile
		d.nextCompile++
		cr := d.in.writes.compile(n)
		t0 := time.Now()
		resp, err := d.e.cl.Compile(ctx, client.CompileRequest{Expr: cr.Expr, Syntax: client.SyntaxDTD})
		took := time.Since(t0)
		if why := checkCompile(&cr, resp, err); why != "" {
			d.c.add(kindCompile, false)
			wrong(kindCompile, fmt.Sprintf("expr#%d", n), why)
			continue
		}
		d.c.add(kindCompile, true)
		d.lat[kCompile] = append(d.lat[kCompile], took)
	}
}

// churnWindow is one schema-churn window: churnNames cycles, each a PUT,
// compilesPerCycle compiles and validatesPerCycle validates. A window
// swaps every PUT name once, sends an aligned block of the compile
// templates and two passes over the documents.
func (d *driver) churnWindow() {
	for i := 0; i < churnNames; i++ {
		k := d.next
		d.writeCycle()
		for j := 0; j < validatesPerCycle; j++ {
			d.validateOne(&d.in.docs[(validatesPerCycle*k+j)%len(d.in.docs)], &d.lat[kValidate], d.c)
		}
	}
}

// probeWindow is one window of the write probe: churnNames cycles of a
// PUT and a compile.
func (d *driver) probeWindow() {
	for i := 0; i < churnNames; i++ {
		d.writeCycle()
	}
}

// step is the workload's window of traffic.
func (d *driver) step() {
	if d.in.name == wlSchemaChurn {
		d.churnWindow()
	} else {
		d.pass()
	}
}

// record runs step window by window until at least min windows are done
// and seconds have passed. The samples of earlier phases are dropped.
func (d *driver) record(min int, seconds float64, step func()) []window {
	for k := range d.lat {
		d.lat[k] = d.lat[k][:0]
	}
	d.windows = d.windows[:0]
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(d.windows) < min || time.Now().Before(deadline) {
		w := window{from: d.lens()}
		s0 := stealTicks()
		t0 := time.Now()
		step()
		w.dur = time.Since(t0)
		w.steal = stealTicks() - s0
		w.to = d.lens()
		d.windows = append(d.windows, w)
	}
	return d.windows
}

func (d *driver) lens() (n [nKinds]int) {
	for k := range d.lat {
		n[k] = len(d.lat[k])
	}
	return n
}

// warm sends the untimed warm-up after setup: a few passes over the
// documents on the validate workloads, and on schema-churn enough cycles
// to fill the expression cache, so the timed phase starts in the steady
// state it ends in.
func (d *driver) warm() {
	if d.in.name == wlSchemaChurn {
		d.record(churnWarmWindows, 0, d.churnWindow)
		return
	}
	d.record(warmPasses, 0, d.pass)
}

// Window counts. A schema-churn cycle inserts about 13 fresh models and a
// probe cycle about 9, so the warm-ups fill the 4096-entry cache before
// the samples are taken.
const (
	warmPasses       = 2
	churnWarmWindows = 10
	probeWarmWindows = 14
	probeMinWindows  = 2
	maxWindows       = 1 << 14
)

// probeShare is the share of --seconds the write probe takes on the
// validate workloads; the validate traffic takes the rest. minKept is the
// fewest samples of a kind the statistics rest on, so that ten lie beyond
// the p99.
const (
	probeShare = 0.5
	minKept    = 1000
)

// e2eResult is what an end-to-end run measured.
type e2eResult struct {
	setup                  []float64 // seconds, one per setup
	phases                 string    // wall time of each phase, for the log
	host                   string    // CPU and steal time of the timed phase, for the log
	validate, put, compile latencyStats
	heapMiB                float64
	c                      counts
}

// latencyStats summarizes one request kind over the kept windows of a
// phase: every window that ran free of steal, and when those hold fewer
// than minKept samples of the kind, the least stolen of the others until
// they do. Windows are dropped only for what the host took, never for
// being slow, so the program's own slow requests (a collection during a
// request, say) stay in the sample; and as every window holds the same
// work, dropping one does not skew the work mix.
type latencyStats struct {
	windows, stolen, kept, samples int
	perSec                         float64 // completions per second of the kept windows' wall time
	p50Ms, p90Ms, p99Ms            float64 // over the kept windows' pooled samples
}

// stats summarizes kind k over the kept windows of ws.
func (d *driver) stats(ws []window, k int) latencyStats {
	kept := append([]window(nil), ws...)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].steal < kept[j].steal })
	stolen := 0
	for _, w := range ws {
		if w.steal > 0 {
			stolen++
		}
	}
	n, samples := 0, 0
	for n < len(kept) && (kept[n].steal == 0 || samples < minKept) {
		samples += kept[n].to[k] - kept[n].from[k]
		n++
	}
	kept = kept[:n]
	var ms []float64
	var dur time.Duration
	for _, w := range kept {
		for _, l := range d.lat[k][w.from[k]:w.to[k]] {
			ms = append(ms, float64(l)/1e6)
		}
		dur += w.dur
	}
	st := latencyStats{windows: len(ws), stolen: stolen, kept: len(kept), samples: len(ms)}
	st.perSec = float64(len(ms)) / dur.Seconds()
	st.p50Ms, st.p90Ms, st.p99Ms = quantile(ms, 0.5), quantile(ms, 0.9), quantile(ms, 0.99)
	return st
}

// runE2E is the end-to-end run: setups repeated setupRuns times (the last
// server is kept), the untimed warm-up, the timed phase, the heap
// measurement, and — on the validate workloads — the write probe. The
// timed phase and the probe share the seconds.
func runE2E(in *inputs, seconds float64, setupRuns int) (*e2eResult, error) {
	res := &e2eResult{c: counts{}}
	var e *env
	var heapBase uint64
	var d *driver
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		// Reserve sample space before the baseline so it cancels out.
		d = newDriver(in, nil, res.c, seconds)
		heapBase = liveHeap()
		var took time.Duration
		var err error
		if e, took, err = setup(in, res.c); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, took.Seconds())
	}
	d.e = e
	t0 := time.Now()
	d.warm()
	t1 := time.Now()
	hc := readHostClock()
	timed := seconds
	if in.name != wlSchemaChurn {
		timed = seconds * (1 - probeShare)
	}
	ws := d.record(1, timed, d.step)
	t2 := time.Now()
	res.host = hc.since(t2.Sub(t1))
	res.validate = d.stats(ws, kValidate)
	if in.name == wlSchemaChurn {
		res.put, res.compile = d.stats(ws, kPut), d.stats(ws, kCompile)
	}
	e.quiesce()
	heap := liveHeap()
	res.heapMiB = (float64(heap) - float64(heapBase)) / (1 << 20)
	t3 := time.Now()
	if in.name != wlSchemaChurn {
		d.record(probeWarmWindows, 0, d.probeWindow)
		ws = d.record(probeMinWindows, seconds-timed, d.probeWindow)
		res.put, res.compile = d.stats(ws, kPut), d.stats(ws, kCompile)
	}
	res.phases = fmt.Sprintf("warm-up %.2fs, timed %.2fs, heap %.2fs, write probe %.2fs",
		t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), time.Since(t3).Seconds())
	return res, e.close()
}

// sampleCap bounds the validate samples of a timed phase: twice the
// fastest rate seen on a 2-vCPU machine, for the whole phase.
func sampleCap(in *inputs, seconds float64) int {
	rate := map[string]float64{wlServeSmall: 40000, wlValidateLarge: 2000,
		wlWideModels: 2000, wlSchemaChurn: 8000}[in.name]
	return int(rate*seconds) + 2*len(in.docs)
}
