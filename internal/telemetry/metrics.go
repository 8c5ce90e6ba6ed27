// Package telemetry is the SDX observability layer: a zero-dependency
// metrics registry (atomic counters, gauges, fixed-bucket histograms,
// labeled families, scrape-time collector functions), exposed over HTTP in
// Prometheus text-exposition format at /metrics.
//
// The design has two properties the SDX hot paths depend on:
//
//   - Instruments are plain atomics. Counter.Add, Gauge.Set, and
//     Histogram.Observe never take a lock and never allocate, so the
//     data-plane Inject path and the BGP receive loop can count
//     unconditionally.
//
//   - Every operation is nil-safe. A nil *Registry hands out nil
//     instruments, and every method on a nil instrument is a no-op, so
//     un-instrumented construction (tests, benchmarks, library embedding)
//     pays nothing and needs no conditionals at the call sites.
//
// Metric names follow the convention sdx_<pkg>_<name>_<unit>; counters end
// in _total, durations are histograms in seconds.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero value is ready to use;
// a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the value by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefDurationBuckets covers the SDX's interesting latency range: from the
// sub-100-µs fast path up to multi-second full compilations.
var DefDurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with a lock-free Observe. Buckets
// are cumulative at exposition time, Prometheus-style; observations land in
// the first bucket whose upper bound is >= the value, or the implicit +Inf
// bucket. A nil *Histogram is a no-op.
type Histogram struct {
	bounds []float64       // sorted upper bounds; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (<= ~16) and the scan is
	// branch-predictable, beating sort.SearchFloat64s' allocationless but
	// branchy binary search at these sizes.
	i := len(h.bounds)
	for j, b := range h.bounds {
		if v <= b {
			i = j
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// kind discriminates what a family's series hold.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance within a family: exactly one of c, g, h,
// or fn is set.
type series struct {
	labels []string // values aligned with the family's labelNames
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is one named metric with all its labeled series.
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string
	buckets    []float64

	mu     sync.Mutex
	series map[string]*series
	// collect, when set, produces the family's series at scrape time
	// instead of (in addition to) the registered ones.
	collect func(emit func(labelValues []string, v float64))
}

func (f *family) get(values []string, make func() *series) *series {
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	s.labels = append([]string(nil), values...)
	f.series[key] = s
	return s
}

// Registry is a namespace of metric families. A nil *Registry hands out nil
// instruments, making every downstream operation a no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register returns the family for name, creating it on first use. Kind and
// label-name mismatches across registrations of the same name panic: they
// are programming errors that would corrupt the exposition.
func (r *Registry) register(name, help string, k kind, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("telemetry: %q re-registered as %v(%d labels), was %v(%d labels)",
				name, k, len(labelNames), f.kind, len(f.labelNames)))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       k,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		series:     make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.CounterVec(name, help).With()
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.GaugeVec(name, help).With()
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// bucket upper bounds (nil means DefDurationBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramVec(name, help, buckets).With()
}

// CounterVec is a family of counters sharing a name and label names.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labelNames, nil)}
}

// With returns the counter for the given label values, creating it on first
// use. Callers on hot paths should resolve once and retain the *Counter.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(labelValues, func() *series { return &series{c: &Counter{}} }).c
}

// GaugeVec is a family of gauges sharing a name and label names.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, labelNames, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(labelValues, func() *series { return &series{g: &Gauge{}} }).g
}

// HistogramVec is a family of histograms sharing a name, buckets, and label
// names.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family (nil buckets means
// DefDurationBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefDurationBuckets
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labelNames, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	f := v.f
	return f.get(labelValues, func() *series { return &series{h: newHistogram(f.buckets)} }).h
}

// CounterFunc registers a counter whose value is produced at scrape time —
// the bridge for externally owned atomics (e.g. the data plane's intrusive
// per-switch counters).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindCounter, nil, nil)
	f.mu.Lock()
	f.series[""] = &series{fn: fn}
	f.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is produced at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.series[""] = &series{fn: fn}
	f.mu.Unlock()
}

// CounterVecFunc registers a labeled counter family whose series are
// enumerated at scrape time by collect calling emit once per series.
func (r *Registry) CounterVecFunc(name, help string, labelNames []string, collect func(emit func(labelValues []string, v float64))) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindCounter, labelNames, nil)
	f.mu.Lock()
	f.collect = collect
	f.mu.Unlock()
}

// GaugeVecFunc registers a labeled gauge family whose series are enumerated
// at scrape time.
func (r *Registry) GaugeVecFunc(name, help string, labelNames []string, collect func(emit func(labelValues []string, v float64))) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindGauge, labelNames, nil)
	f.mu.Lock()
	f.collect = collect
	f.mu.Unlock()
}

// sample is one exposed series value, resolved at scrape time.
type sample struct {
	labels []string
	value  float64
	hist   *histSnapshot
}

type histSnapshot struct {
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64
}

// snapshotFamily resolves a family's series into sorted samples.
func (f *family) snapshot() []sample {
	f.mu.Lock()
	collect := f.collect
	out := make([]sample, 0, len(f.series))
	for _, s := range f.series {
		smp := sample{labels: s.labels}
		switch {
		case s.fn != nil:
			smp.value = s.fn()
		case s.c != nil:
			smp.value = float64(s.c.Value())
		case s.g != nil:
			smp.value = float64(s.g.Value())
		case s.h != nil:
			hs := &histSnapshot{bounds: s.h.bounds, count: s.h.Count(), sum: s.h.Sum()}
			hs.counts = make([]uint64, len(s.h.counts))
			for i := range s.h.counts {
				hs.counts[i] = s.h.counts[i].Load()
			}
			smp.hist = hs
		}
		out = append(out, smp)
	}
	f.mu.Unlock()
	if collect != nil {
		collect(func(labelValues []string, v float64) {
			out = append(out, sample{labels: append([]string(nil), labelValues...), value: v})
		})
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].labels, "\x00") < strings.Join(out[j].labels, "\x00")
	})
	return out
}

// sortedFamilies returns the families in name order.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by label
// values, label values escaped.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		samples := f.snapshot()
		if len(samples) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range samples {
			if err := writeSample(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, f *family, s sample) error {
	if s.hist == nil {
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labelNames, s.labels, "", ""), formatValue(s.value))
		return err
	}
	cum := uint64(0)
	for i, b := range s.hist.bounds {
		cum += s.hist.counts[i]
		le := formatValue(b)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, s.labels, "le", le), cum); err != nil {
			return err
		}
	}
	cum += s.hist.counts[len(s.hist.bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, s.labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labelNames, s.labels, "", ""), formatValue(s.hist.sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labelNames, s.labels, "", ""), s.hist.count)
	return err
}

// labelString renders {a="x",b="y"} with an optional extra pair appended
// (the histogram "le" bound); empty when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a float the way Prometheus clients expect: integers
// without a decimal point, everything else in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
