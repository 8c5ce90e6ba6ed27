package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if v[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.inner", Start: 20, End: 30, Parent: 1},
		{Name: "b", Start: 50, End: 90, Parent: 0},
	}
	want := []int64{30, 20, 10, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// Spans of one operation recorded on different goroutines overlap; each
// instant must still be billed once, so the bill adds up to end-to-end.
func TestSelfTimesOverlapPartition(t *testing.T) {
	spans := []span{
		{Name: "burst", Start: 0, End: 100, Parent: -1},
		{Name: "glue", Start: 10, End: 50, Parent: 0},
		{Name: "wait", Start: 30, End: 80, Parent: 0},  // starts while glue still runs
		{Name: "late", Start: 90, End: 130, Parent: 0}, // outlives the root: clipped
		{Name: "other", Start: 0, End: 1000, Parent: -1},
		{Name: "open", Start: 5, End: -1, Parent: 0},
	}
	self := selfTimes(spans)
	if sum := self[0] + self[1] + self[2] + self[3]; sum != 100 {
		t.Errorf("self times of the tree sum to %d, want the root's 100", sum)
	}
	if self[1] != 20 || self[2] != 50 || self[3] != 10 || self[0] != 20 {
		t.Errorf("self = %v, want root 20, glue 20, wait 50, late 10", self[:4])
	}
	if self[5] != 0 {
		t.Errorf("open span got self time %d", self[5])
	}
	entries, total := bill(spans, "burst")
	sum := 0.0
	for _, ms := range entries {
		sum += ms
	}
	if math.Abs(sum-total) > 1e-9 || total != 100/1e6 {
		t.Errorf("bill sums to %v of total %v", sum, total)
	}
	if entries["unattributed"] != 20/1e6 {
		t.Errorf("unattributed = %v, want the root's self time", entries["unattributed"])
	}
}

func TestTracerOffIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, -1)
	tr.end(id)
	tr.endAt(id, time.Now())
	tr.timed("y", 3, func() {})
	if spans, open := tr.snapshot(); spans != nil || open != 0 {
		t.Error("nil tracer recorded something")
	}
	on := newTracer()
	if id := on.begin("setup", -1, -1); id != -1 {
		t.Error("span recorded while off the clock")
	}
	on.timed("replay", 7, func() {})
	spans, open := on.snapshot()
	if len(spans) != 1 || open != 0 || spans[0].Ops != 7 {
		t.Errorf("spans = %+v, open = %d", spans, open)
	}
}

func TestOFFramerAnyChunking(t *testing.T) {
	msg := func(typ byte, body int) []byte {
		b := make([]byte, 8+body)
		b[0], b[1] = 1, typ
		binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
		return b
	}
	stream := bytes.Join([][]byte{msg(14, 72), msg(18, 0), msg(14, 200), msg(19, 0), msg(18, 0)}, nil)
	for _, chunk := range []int{1, 3, 8, 64, len(stream)} {
		var f ofFramer
		var types []byte
		var sizes []int
		for off := 0; off < len(stream); off += chunk {
			f.feed(stream[off:min(off+chunk, len(stream))], func(p []byte, size int) {
				types = append(types, p[1])
				sizes = append(sizes, size)
			})
		}
		if !bytes.Equal(types, []byte{14, 18, 14, 19, 18}) || sizes[0] != 80 || sizes[2] != 208 {
			t.Errorf("chunk %d: types %v sizes %v", chunk, types, sizes)
		}
	}
}

// Every workload runs end to end at tiny sizes: oracles pass, the same seed
// generates byte-identical inputs (traced or not), and another seed changes
// them. This is the -smoke pass that keeps tier-1 honest about the harness.
func TestSmokeEveryWorkload(t *testing.T) {
	env := stampEnvironment()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func(seed int64, traced bool) *document {
				t.Helper()
				doc, err := runWorkload(w, seed, 0.25, smokeSizes, traced, env)
				if err != nil {
					t.Fatal(err)
				}
				if doc.Failed != 0 {
					t.Fatalf("seed %d traced %v: %d of %d failed: %s", seed, traced, doc.Failed, doc.Attempted, doc.Failure)
				}
				return doc
			}
			plain := run(1, false)
			traced := run(1, true)
			other := run(2, false)
			if plain.Inputs == "" || plain.Inputs != traced.Inputs {
				t.Errorf("seed 1 inputs differ between runs: %q vs %q", plain.Inputs, traced.Inputs)
			}
			if other.Inputs == plain.Inputs {
				t.Errorf("seed 2 generated the same inputs as seed 1 (%s)", plain.Inputs)
			}
			for _, m := range endToEnd {
				if v := plain.metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			for _, m := range perLayer() {
				if v, ok := traced.metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("traced run lacks %s in %s (have %+v)", m.Name, m.Unit, v)
				}
			}
			if len(plain.metrics) != len(endToEnd) || len(traced.metrics) != len(perLayer()) {
				t.Errorf("metric counts: %d end-to-end, %d per-layer", len(plain.metrics), len(traced.metrics))
			}
		})
	}
}

// The spans the issue's table names must fire on the workload it names them
// for.
func TestSpansFireWhereNamed(t *testing.T) {
	want := map[string][]string{
		"rib_ingest":       {"bgp.decode", "bgp.pack", "routeserver.apply"},
		"burst_converge":   {"core.fastreact", "core.push", "openflow.barrier_wait", "core.flowmods", "openflow.encode", "openflow.decode", "dataplane.install"},
		"policy_recompile": {"core.compile", "policy.compile", "core.flowmods", "openflow.encode", "openflow.decode", "core.push", "openflow.barrier_wait"},
		"forward_churn":    {"dataplane.install", "dataplane.inject"},
		"forward_hot":      {"packet.decode", "dataplane.lookup", "dataplane.inject"},
	}
	env := stampEnvironment()
	for name, spans := range want {
		w, _ := findWorkload(name)
		doc, err := runWorkload(w, 1, 0.25, smokeSizes, true, env)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range spans {
			if doc.metrics[s+"_ops"].Value == 0 {
				t.Errorf("%s: span %s never fired", name, s)
			}
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in main.go are what
// the program prints. They must say the same thing, within the contract.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var have, want any
	if err := json.Unmarshal(onDisk, &have); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(benchmarkSpec(), &want); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(have)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -spec`:\n have %s\n want %s", a, b)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	largest := 0.0
	for _, m := range endToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	if s := endToEnd[len(endToEnd)-1]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != largest {
		t.Errorf("setup_s must exist, in s, lower is better, with the largest bound: %+v", s)
	}
	for _, m := range perLayer() {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	// The driver makes 4 + 22*workloads runs inside 3420 s.
	if runs := 4 + 22*len(workloads); float64(runs)*(runSeconds+8) > 3420-120 {
		t.Errorf("%d runs of %d s plus set-up do not fit the driver's budget", runs, runSeconds)
	}
}
