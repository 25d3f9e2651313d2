// Command perfbench is dregex's benchmark. It boots the dregexd handler
// stack in its own process, drives it over keep-alive TCP through
// dregex/client with one of four seeded traffic mixes, checks every
// response against an answer known by construction, and prints the
// end-to-end metrics; with --trace 1 it instead replays a sample of the
// same inputs through each layer's entry point and prints per-layer
// metrics. See README.md.
//
// Usage:
//
//	perfbench --workload serve-small --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRuns is how many times a run performs setup; setup_s is the median.
const setupRuns = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "traffic mix: serve-small, validate-large, wide-models or schema-churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 replays a sample through every layer and prints per-layer metrics")
	spans := fs.String("spans", "", "where the traced run writes its spans (default .bench_build/spans-WORKLOAD-SEED.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	start := time.Now()
	in, err := genInputs(*workload, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "generated inputs for seed %d in %.2fs\n", *seed, time.Since(start).Seconds())
	if err := printProperties(stdout, in); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var res *result
	if *spans == "" {
		*spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
	}
	if *trace == 1 {
		res, err = runTraced(in, stdout, *spans)
	} else {
		res, err = e2eMetrics(in, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// e2eMetrics runs the end-to-end measurement and names its metrics.
func e2eMetrics(in *inputs, seconds float64, w io.Writer) (*result, error) {
	r, err := runE2E(in, seconds, setupRuns)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"validate_docs_per_s": {r.validate.perSec, "docs/s"},
		"validate_p50_ms":     {r.validate.p50Ms, "ms"},
		"validate_p99_ms":     {r.validate.p99Ms, "ms"},
		"schema_put_p50_ms":   {r.put.p50Ms, "ms"},
		"schema_put_p90_ms":   {r.put.p90Ms, "ms"},
		"compile_p50_ms":      {r.compile.p50Ms, "ms"},
		"compile_p90_ms":      {r.compile.p90Ms, "ms"},
		"setup_s":             {median(r.setup), "s"},
		"heap_live_mb":        {r.heapMiB, "MiB"},
	}
	fmt.Fprintf(w, "phases: %s\n", r.phases)
	fmt.Fprintf(w, "timed phase: %s\n", r.host)
	for _, k := range []struct {
		name string
		st   latencyStats
	}{{kindValidate, r.validate}, {kindPut, r.put}, {kindCompile, r.compile}} {
		fmt.Fprintf(w, "samples: %-8s %6d from %d kept of %d windows (%d with steal), %d beyond the p99; p50 %.4g, p90 %.4g, p99 %.4g ms\n",
			k.name, k.st.samples, k.st.kept, k.st.windows, k.st.stolen, k.st.samples/100, k.st.p50Ms, k.st.p90Ms, k.st.p99Ms)
	}
	fmt.Fprintf(w, "setups: %v s\n", r.setup)
	return finish(w, m, r.c), nil
}

// finish prints the per-kind tallies and assembles the result.
func finish(w io.Writer, m map[string]metric, c counts) *result {
	res := &result{Metrics: m}
	kinds := make([]string, 0, len(c))
	for k := range c {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t := c[k]
		fmt.Fprintf(w, "requests: %-8s attempted=%d failed=%d\n", k, t.attempted, t.failed)
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// JSON has no NaN; a metric without samples fails the run.
			fmt.Fprintf(w, "metric %s has no samples\n", n)
			v.Value = 0
			m[n] = v
			res.Correct = false
		}
		fmt.Fprintf(w, "metric: %-34s %14.6g %s\n", n, v.Value, v.Unit)
	}
	return res
}
