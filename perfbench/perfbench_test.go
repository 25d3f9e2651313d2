package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fingerprint renders every input of a workload, so two generations can
// be compared byte for byte.
func fingerprint(in *inputs) []byte {
	var b bytes.Buffer
	for _, list := range [][]schema{in.base, in.own, in.writes.puts} {
		for _, s := range list {
			b.WriteString(s.Name + "\x00" + s.Kind + "\x00" + s.Src + "\x00")
		}
	}
	for _, d := range in.docs {
		b.WriteString(d.Schema + "\x00" + d.Defect + "\x00" + d.Elem + "\x00")
		b.Write(d.Body)
	}
	for _, c := range in.writes.compiles {
		b.WriteString(c.Expr + "\x00" + c.Sym + "\x00")
	}
	return b.Bytes()
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := genInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genInputs(w, 7)
		c, _ := genInputs(w, 8)
		fa, fb, fc := fingerprint(a), fingerprint(b), fingerprint(c)
		if !bytes.Equal(fa, fb) {
			t.Errorf("%s: two generations with seed 7 differ", w)
		}
		if bytes.Equal(fa, fc) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w)
		}
	}
}

// replaced reports whether defect is twin with one match of old replaced
// by repl.
func replaced(twin, defect []byte, old *regexp.Regexp, repl string) bool {
	for _, loc := range old.FindAllIndex(twin, -1) {
		var b bytes.Buffer
		b.Write(twin[:loc[0]])
		b.WriteString(repl)
		b.Write(twin[loc[1]:])
		if bytes.Equal(b.Bytes(), defect) {
			return true
		}
	}
	return false
}

// inserted reports whether defect is twin with snippet inserted at offset
// bytes into one match of anchor.
func inserted(twin, defect []byte, anchor string, offset int, snippet string) bool {
	for _, loc := range regexp.MustCompile(anchor).FindAllIndex(twin, -1) {
		at := loc[0] + offset
		b := append(append(append([]byte(nil), twin[:at]...), snippet...), twin[at:]...)
		if bytes.Equal(b, defect) {
			return true
		}
	}
	return false
}

func TestDefectsDifferFromTwinOnlyByTheDefect(t *testing.T) {
	in, err := genInputs(wlServeSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := range in.docs {
		d := &in.docs[i]
		twin := d.twin(docSpec{})
		if d.Defect == "" {
			if !bytes.Equal(d.Body, twin) {
				t.Fatalf("%s: valid document differs from its regeneration", docID(d))
			}
			continue
		}
		seen[d.Defect]++
		var ok bool
		switch d.Defect {
		case defectMissingRequired:
			ok = replaced(twin, d.Body, regexp.MustCompile(` status="(open|paid|shipped|void)"`), "")
		case defectDanglingIDREF:
			ok = replaced(twin, d.Body, regexp.MustCompile(`buyer="p\d+"`), `buyer="nobody"`)
		case defectUndeclared:
			ok = inserted(twin, d.Body, `</line>(<ship|<pickup|<memo|</order)`, len("</line>"), "<gift>wrapped</gift>") ||
				inserted(twin, d.Body, `</series>`, 0, "<extra>stray</extra>")
		case defectCounterBound:
			extra := (len(d.Body) - len(twin)) / len("<point>0.000</point>")
			ok = extra > 0 && inserted(twin, d.Body, `</point>(<flag|<comment|<unit|</series)`, len("</point>"),
				strings.Repeat("<point>0.000</point>", extra))
		}
		if !ok {
			t.Errorf("%s (%s) is not its valid twin plus the defect", docID(d), d.Defect)
		}
	}
	for _, kind := range append(dtdDefects, xsdDefects...) {
		if seen[kind] == 0 {
			t.Errorf("no document carries a %s defect", kind)
		}
	}
	n := 0
	for _, k := range seen {
		n += k
	}
	if n != len(in.docs)/8 {
		t.Errorf("%d defects in %d documents, want one in eight", n, len(in.docs))
	}
}

// benchmarkFile is the benchmark's definition at the root of the repo.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runJSON runs the command and decodes its last output line.
func runJSON(t *testing.T, args ...string) (*result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return &res, out.String()
}

func checkMetrics(t *testing.T, w string, res *result, want []struct{ Name, Unit string }, positive bool) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", w, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s in %s, want %s", w, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || positive && got.Value <= 0:
			t.Errorf("%s: metric %s = %v", w, m.Name, got.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(want))
	}
}

func TestShortRunEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmark(t)
	for _, w := range workloadNames {
		res, _ := runJSON(t, "--workload", w, "--seed", "2", "--seconds", "0.3")
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, w, res, bf.EndToEnd, true)
		res, _ = runJSON(t, "--workload", w, "--seed", "2", "--trace", "1",
			"--spans", filepath.Join(t.TempDir(), "spans.jsonl"))
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
		checkMetrics(t, w, res, bf.PerLayer, false)
	}
}

func TestTracedLayersSumToEndToEnd(t *testing.T) {
	in, err := genInputs(wlServeSmall, 4)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := runTraced(in, &out, spans)
	if err != nil {
		t.Fatal(err)
	}
	m := func(name string) float64 {
		v, ok := res.Metrics[name]
		if !ok {
			t.Fatalf("metric %s missing", name)
		}
		return v.Value
	}
	near := func(what string, got, want float64) {
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("%s: layers sum to %v, want %v", what, got, want)
		}
	}
	// A request is its client, transport and handler (self plus the
	// validator) plus the reported remainder.
	near("request", m("client.ns_per_req")+m("transport.ns_per_req")+m("handler.ns_per_req")+
		m("validate.ns_per_doc")+m("unattributed.ns_per_req"), m("e2e.ns_per_req"))
	// The validator is its driver plus its children.
	syms, bytesPer, attrs := m("symbols_per_doc"), m("bytes_per_doc"), m("attrs_per_doc")
	if syms <= 0 || bytesPer <= 0 || attrs <= 0 {
		t.Fatalf("input counts %v %v %v", syms, bytesPer, attrs)
	}
	if !strings.Contains(out.String(), "unattributed") {
		t.Errorf("ledger does not report the unattributed remainder:\n%s", out.String())
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var roots, children int
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent < 0 {
			roots++
		} else {
			children++
		}
	}
	if roots == 0 || children == 0 {
		t.Errorf("spans: %d roots, %d children", roots, children)
	}
}

func TestLedgerIdentity(t *testing.T) {
	l := &validateLedger{n: 4, request: 400, client: 30, rtSelf: 10, transport: 100, handler: 200,
		validate: 150, tokenize: 60, lookup: 10, attrs: 20, step: map[string]float64{"table": 25, "counter": 15}}
	l.derive()
	sumLayers := l.clientSelf + l.transport/4 + l.handlerSelf + l.validate/4 + l.unattributed
	if math.Abs(sumLayers-l.e2e) > 1e-9 {
		t.Errorf("layers %v, end to end %v", sumLayers, l.e2e)
	}
	if got := l.driver*4 + l.tokenize + l.lookup + l.attrs + 40; math.Abs(got-l.validate) > 1e-9 {
		t.Errorf("validator children sum to %v, want %v", got, l.validate)
	}
}
