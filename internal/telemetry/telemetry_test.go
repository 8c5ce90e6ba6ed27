package telemetry

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers one counter, gauge, histogram, and a
// vec child from many goroutines and asserts exact totals. Run under -race
// this is the tier-1b gate for the lock-free hot paths.
func TestConcurrentInstruments(t *testing.T) {
	const (
		goroutines = 16
		perG       = 10000
	)
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h_seconds", "", []float64{0.5, 1, 2})
	vec := reg.CounterVec("v_total", "", "who")

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			child := vec.With("w") // resolve concurrently on purpose
			for j := 0; j < perG; j++ {
				c.Add(1)
				g.Add(1)
				h.Observe(1.0)
				child.Inc()
			}
		}()
	}
	wg.Wait()

	const want = goroutines * perG
	if got := c.Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := g.Value(); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	if got := h.Count(); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	// Every observation is exactly 1.0, so the CAS-accumulated float sum is
	// exact: integers this small have no rounding error in float64.
	if got := h.Sum(); got != float64(want) {
		t.Errorf("histogram sum = %v, want %v", got, float64(want))
	}
	if got := vec.With("w").Value(); got != want {
		t.Errorf("vec child = %d, want %d", got, want)
	}
}

// TestPrometheusExposition is the golden test: stable family and series
// ordering, label-value escaping, histogram expansion.
func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sdx_b_total", "b counter").Add(42)
	v := reg.CounterVec("sdx_a_total", "a counter", "name")
	v.With("z").Add(1)
	v.With("a\"quote").Add(2)
	v.With("b\\slash\nnewline").Add(3)
	reg.Gauge("sdx_c", "c gauge\nwith newline").Set(-7)
	h := reg.Histogram("sdx_d_seconds", "d histogram", []float64{0.25, 0.5})
	// Binary-exact observations, so the golden sum has no rounding noise.
	h.Observe(0.125)
	h.Observe(0.375)
	h.Observe(9)
	reg.GaugeFunc("sdx_e", "e func", func() float64 { return 1.5 })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sdx_a_total a counter
# TYPE sdx_a_total counter
sdx_a_total{name="a\"quote"} 2
sdx_a_total{name="b\\slash\nnewline"} 3
sdx_a_total{name="z"} 1
# HELP sdx_b_total b counter
# TYPE sdx_b_total counter
sdx_b_total 42
# HELP sdx_c c gauge\nwith newline
# TYPE sdx_c gauge
sdx_c -7
# HELP sdx_d_seconds d histogram
# TYPE sdx_d_seconds histogram
sdx_d_seconds_bucket{le="0.25"} 1
sdx_d_seconds_bucket{le="0.5"} 2
sdx_d_seconds_bucket{le="+Inf"} 3
sdx_d_seconds_sum 9.5
sdx_d_seconds_count 3
# HELP sdx_e e func
# TYPE sdx_e gauge
sdx_e 1.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestVecFuncCollector checks scrape-time series enumeration.
func TestVecFuncCollector(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVecFunc("sdx_ports_total", "per-port", []string{"port", "dir"},
		func(emit func([]string, float64)) {
			emit([]string{"2", "rx"}, 5)
			emit([]string{"1", "tx"}, 7)
		})
	var b strings.Builder
	reg.WritePrometheus(&b)
	want := `# HELP sdx_ports_total per-port
# TYPE sdx_ports_total counter
sdx_ports_total{port="1",dir="tx"} 7
sdx_ports_total{port="2",dir="rx"} 5
`
	if got := b.String(); got != want {
		t.Errorf("collector exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestNilSafety drives every operation through nil receivers: nothing may
// panic, and instrument methods must not allocate.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "")
	g := reg.Gauge("x", "")
	h := reg.Histogram("x_seconds", "", nil)
	cv := reg.CounterVec("xv_total", "", "l")
	gv := reg.GaugeVec("xv", "", "l")
	hv := reg.HistogramVec("xv_seconds", "", nil, "l")
	reg.CounterFunc("xf_total", "", func() float64 { return 0 })
	reg.GaugeFunc("xf", "", func() float64 { return 0 })
	reg.CounterVecFunc("xvf_total", "", nil, nil)
	reg.GaugeVecFunc("xvf", "", nil, nil)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry wrote %q, err %v", b.String(), err)
	}

	ops := map[string]func(){
		"counter.Inc":       func() { c.Inc() },
		"counter.Add":       func() { c.Add(3) },
		"gauge.Set":         func() { g.Set(1) },
		"gauge.Add":         func() { g.Add(-1) },
		"histogram.Observe": func() { h.Observe(0.5) },
		"vec.With(c)":       func() { cv.With("a").Inc() },
		"vec.With(g)":       func() { gv.With("a").Set(2) },
		"vec.With(h)":       func() { hv.With("a").Observe(1) },
	}
	for name, op := range ops {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("nil-mode %s allocates %v times per op, want 0", name, allocs)
		}
	}

	// Live instruments must be allocation-free on the hot paths too.
	live := NewRegistry()
	lc := live.Counter("live_total", "")
	lh := live.Histogram("live_seconds", "", nil)
	if allocs := testing.AllocsPerRun(100, func() { lc.Inc(); lh.Observe(0.001) }); allocs != 0 {
		t.Errorf("live counter+histogram allocate %v times per op, want 0", allocs)
	}
}

// TestRegistryReuse checks same-name registration returns the same series
// and mismatched kinds panic.
func TestRegistryReuse(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup_total", "")
	b := reg.Counter("dup_total", "")
	if a != b {
		t.Error("re-registration returned a distinct counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Gauge("dup_total", "")
}

func TestHTTPHandlers(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sdx_demo_total", "demo").Add(9)
	reg.Histogram("sdx_demo_seconds", "", []float64{1}).Observe(0.5)

	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "sdx_demo_total 9") {
		t.Errorf("metrics output missing counter:\n%s", body)
	}
}
