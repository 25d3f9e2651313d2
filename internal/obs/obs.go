// Package obs is the dependency-free observability core of the pipeline:
// lock-free log-bucketed latency/size histograms with quantile extraction,
// atomic counters, callback gauges, and a registry that renders everything
// as Prometheus text exposition (for a live /metrics endpoint) or as a
// compact one-shot summary (for CLI -stats reports).
//
// The package is built for instrumented hot paths: recording into a
// Counter or Histogram is a handful of uncontended atomic adds — no locks,
// no allocation, no map lookups — so instruments can sit on paths pinned
// at zero allocations per operation. All coordination happens at the
// edges: instruments are created (or re-resolved, get-or-create) under the
// registry mutex at startup or configuration time, and scrapes take
// consistent-enough snapshots by reading the atomics once per metric.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {Name: "endpoint", Value:
// "validate"}). Label order is significant for identity: the same label
// set in a different order names a different series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing atomic counter. The zero value is
// ready; standalone use (outside a Registry) is fine.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Kind distinguishes the metric families a Registry holds.
type Kind uint8

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one labeled series within a family. Exactly one of the value
// fields is set, matching the family kind.
type metric struct {
	labels string // rendered {k="v",...}, "" for the unlabeled series
	c      *Counter
	cf     func() uint64  // counter read from an external atomic
	gf     func() float64 // callback gauge
	h      *Histogram
}

// family is one metric name: a help string, a kind, and its labeled
// series in registration order.
type family struct {
	name, help string
	kind       Kind
	// scale multiplies histogram bucket bounds and sums at exposition
	// time (e.g. Seconds = 1e-9 for histograms recorded in nanoseconds);
	// 1 for everything else.
	scale   float64
	series  []*metric
	byLabel map[string]*metric
}

// Registry is an ordered collection of metric families. Instruments are
// get-or-create: asking twice for the same (name, labels) returns the same
// instrument, which is what keeps a hot-swapped schema's counters
// continuous across re-registration. A Registry is safe for concurrent
// use; the instruments it hands out are lock-free.
type Registry struct {
	mu    sync.RWMutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Seconds is the exposition scale for histograms recorded in nanoseconds
// (time.Duration values): bucket bounds and sums render as seconds, the
// Prometheus base unit.
const Seconds = 1e-9

// family returns (creating if needed) the family for name, enforcing kind
// agreement — registering one name under two kinds is a programming error.
func (r *Registry) family(name, help string, kind Kind, scale float64) *family {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, scale: scale,
			byLabel: make(map[string]*metric)}
		r.fams[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %v and %v", name, f.kind, kind))
	}
	return f
}

// series returns (creating if needed) the labeled series within f.
func (f *family) seriesFor(labels []Label) (*metric, bool) {
	key := renderLabels(labels)
	if m, ok := f.byLabel[key]; ok {
		return m, false
	}
	m := &metric{labels: key}
	f.byLabel[key] = m
	f.series = append(f.series, m)
	return m, true
}

// Counter returns the counter series (name, labels), creating both the
// family and the series on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, fresh := r.family(name, help, KindCounter, 1).seriesFor(labels)
	if fresh {
		m.c = &Counter{}
	}
	if m.c == nil {
		panic(fmt.Sprintf("obs: counter series %s%s already registered as a CounterFunc", name, m.labels))
	}
	return m.c
}

// CounterFunc registers a counter series whose value is read from f at
// scrape time — for counters that live elsewhere (package-level atomics,
// cache internals). Re-registering replaces the callback.
func (r *Registry) CounterFunc(name, help string, f func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.family(name, help, KindCounter, 1).seriesFor(labels)
	m.cf = f
}

// GaugeFunc registers a gauge series computed by f at scrape time.
// Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.family(name, help, KindGauge, 1).seriesFor(labels)
	m.gf = f
}

// Histogram returns the histogram series (name, labels), creating it on
// first use. scale converts recorded values to the exposition unit (use
// Seconds for nanosecond durations, 1 for byte sizes and counts); it must
// agree across calls for one name.
func (r *Registry) Histogram(name, help string, scale float64, labels ...Label) *Histogram {
	if scale == 0 {
		scale = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, fresh := r.family(name, help, KindHistogram, scale).seriesFor(labels)
	if fresh {
		m.h = &Histogram{}
	}
	return m.h
}

// renderLabels renders a label set as its exposition form ({k="v",...}),
// which doubles as the series identity key. Values are escaped per the
// text format (backslash, quote, newline).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		escapeLabelValue(&b, l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
}

// snapshotFams returns the family list in registration order with every
// series copied, so encoders can walk them outside the lock: a hot swap
// re-registering a CounterFunc or GaugeFunc rewrites the callback in place.
func (r *Registry) snapshotFams() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		f := r.fams[name]
		c := &family{name: f.name, help: f.help, kind: f.kind, scale: f.scale}
		c.series = make([]*metric, len(f.series))
		for i, m := range f.series {
			cp := *m
			c.series[i] = &cp
		}
		out = append(out, c)
	}
	return out
}

// sortedSeries returns f's series sorted by label string for deterministic
// exposition (registration order of dynamic series — schemas — varies).
func (f *family) sortedSeries() []*metric {
	s := append([]*metric(nil), f.series...)
	sort.Slice(s, func(i, j int) bool { return s[i].labels < s[j].labels })
	return s
}
