package main

import (
	"fmt"
	"strconv"
)

// The workloads. Each registers the base registry plus its own schemas in
// setup, then drives one traffic mix; see README.md for why each exists.
const (
	wlServeSmall    = "serve-small"
	wlValidateLarge = "validate-large"
	wlWideModels    = "wide-models"
	wlSchemaChurn   = "schema-churn"
)

var workloadNames = []string{wlServeSmall, wlValidateLarge, wlWideModels, wlSchemaChurn}

// Write-traffic shape: a schema-churn cycle is one PUT hot-swapping one of
// churnNames names, then compilesPerCycle fresh /v1/compile expressions,
// then validatesPerCycle small validates. The write probe of the other
// workloads sends one PUT and one compile per cycle.
const (
	churnNames        = 32
	compilesPerCycle  = 4
	validatesPerCycle = 16
	nondetEvery       = 20 // one compile expression in 20 is nondeterministic
	// Templates are cycled; enough of them that the tail of the schema and
	// expression size distributions is well sampled on every seed. Compile
	// sizes are in van der Corput order, so every window of write cycles
	// (an aligned block of compiles) gets the same share of large ones.
	putTemplates     = 1024
	compileTemplates = 1024
)

// inputs is everything one workload sends, generated from the seed before
// any clock starts.
type inputs struct {
	name  string
	seed  int64
	conns int
	base  []schema // the shared base registry
	own   []schema // the workload's own schemas, registered after base
	hot   []doc    // setup's one validate per hot schema
	docs  []doc    // the validate sequence of the timed phase
	// Write traffic: templates whose '@' is replaced by a fresh tag per
	// request. schema-churn interleaves it with docs in the timed phase;
	// the other workloads replay it as a write probe after the heap
	// measurement, so every run reports the write-path metrics.
	writes writeSet
}

type writeSet struct {
	prefix   string // PUT names are prefix-00 … prefix-31
	puts     []schema
	compiles []compileReq
}

// put returns cycle k's PUT: template k under a fresh tag, to name
// k mod 32 (a name always gets templates of one kind).
func (w *writeSet) put(k int) schema {
	s := w.puts[k%len(w.puts)].tagged("v" + strconv.FormatInt(int64(k), 36) + "_")
	s.Name = fmt.Sprintf("%s-%02d", w.prefix, k%churnNames)
	return s
}

// compile returns the k-th compile expression under a fresh tag.
func (w *writeSet) compile(k int) compileReq {
	return w.compiles[k%len(w.compiles)].tagged("c" + strconv.FormatInt(int64(k), 36) + "_")
}

func genWrites(seed int64, set string) writeSet {
	w := writeSet{prefix: set}
	r := rng(seed, set+"/puts")
	for k := 0; k < putTemplates; k++ {
		if k%2 == 0 {
			w.puts = append(w.puts, smallDTD(r, "", "@", nil))
		} else {
			w.puts = append(w.puts, smallXSD(r, "", "@", nil))
		}
	}
	r = rng(seed, set+"/compiles")
	for k, size := range spread(r, compileTemplates, 8, 4096) {
		w.compiles = append(w.compiles, genCompile(r, size, k%nondetEvery == nondetEvery-1))
	}
	return w
}

// Base registry: 30 DTDs and 31 XSDs of small models, plus the long tail —
// three DTDs with one large model each on the kore, pathdecomp and colored
// tiers.
const (
	baseDTDs  = 30
	baseXSDs  = 31
	tailWidth = 360 // KOccurrence width m: tail models have about 1100 positions
	wideWidth = 700 // wide-models: about 2100 positions
)

var tailTiers = []string{tierKORE, tierPathDecomp, tierColored}

// tailM returns the KOccurrence width giving a model of about 3·m
// positions on the tier (KORE blocks are 2-occurrence, so they get 1.5×
// the width).
func tailM(tier string, m int) int {
	if tier == tierKORE {
		return m * 3 / 2
	}
	return m
}

func baseRegistry(seed int64) []schema {
	r := rng(seed, "base")
	dtdPool, xsdPool := modelPool(r, 24, false), modelPool(r, 24, true)
	var out []schema
	for i := 0; i < baseDTDs; i++ {
		out = append(out, smallDTD(r, fmt.Sprintf("base-d%02d", i), fmt.Sprintf("d%d_", i), dtdPool))
	}
	for i := 0; i < baseXSDs; i++ {
		out = append(out, smallXSD(r, fmt.Sprintf("base-x%02d", i), fmt.Sprintf("x%d_", i), xsdPool))
	}
	for _, t := range tailTiers {
		out = append(out, wideSchema("tail-"+t, "tail", wideModel(t, tailM(t, tailWidth))))
	}
	return out
}

// genInputs builds one workload's inputs. Document counts are sized so a
// pass over them is short against the run, and the hot documents are
// the first valid one of each hot schema.
func genInputs(name string, seed int64) (*inputs, error) {
	in := &inputs{name: name, seed: seed, conns: 1, base: baseRegistry(seed)}
	switch name {
	case wlServeSmall:
		in.conns = 2
		in.own = hotSchemas
		in.docs = hotDocs(seed, "small", 512, 512, 8<<10, false)
		in.writes = genWrites(seed, "probe")
	case wlValidateLarge:
		in.own = hotSchemas
		in.docs = hotDocs(seed, "large", 48, 64<<10, 512<<10, true)
		in.writes = genWrites(seed, "probe")
	case wlWideModels:
		for i, t := range tailTiers {
			m := wideModel(t, tailM(t, wideWidth))
			s := wideSchema("wide-"+t, "w"+t, m)
			in.own = append(in.own, s)
			r := rng(seed, "wide/"+t)
			for j, word := range modelWords(r, m, stratified(r, 8, 2000, 8000)) {
				in.docs = append(in.docs, doc{ID: 3*j + i, Schema: s.Name, Body: wideDoc("w"+t, word)})
			}
		}
		// Interleave the tiers so every pass mixes them.
		docs := make([]doc, len(in.docs))
		for _, d := range in.docs {
			docs[d.ID] = d
		}
		in.docs = docs
		in.writes = genWrites(seed, "probe")
	case wlSchemaChurn:
		in.own = append(in.own, hotSchemas...)
		in.writes = genWrites(seed, "churn")
		for k := 0; k < churnNames; k++ {
			s := in.writes.puts[k%len(in.writes.puts)].tagged("i" + strconv.Itoa(k) + "_")
			s.Name = fmt.Sprintf("%s-%02d", in.writes.prefix, k)
			in.own = append(in.own, s)
		}
		in.docs = hotDocs(seed, "churn", 256, 512, 8<<10, false)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	// The hot set: the first valid document of each schema the traffic
	// validates against.
	seen := map[string]bool{}
	for _, d := range in.docs {
		if d.Defect == "" && !seen[d.Schema] {
			seen[d.Schema] = true
			in.hot = append(in.hot, d)
		}
	}
	return in, nil
}
