package flowexport

import (
	"math"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"sdx/internal/telemetry"
)

// sample decides one candidate frame: a window of one.
func sample(e *Exporter) bool { return e.SampledAt(e.SampleBatch(1), 0) }

func TestSampleOneInN(t *testing.T) {
	e := New(8, 4)
	hits := 0
	for i := 0; i < 800; i++ {
		if sample(e) {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-8 over 800 candidates: %d hits, want 100", hits)
	}
	if got := e.Stats().Seen; got != 800 {
		t.Fatalf("Seen = %d, want 800", got)
	}
}

func TestSampleRateOneAlways(t *testing.T) {
	e := New(1, 1)
	for i := 0; i < 5; i++ {
		if !sample(e) {
			t.Fatalf("rate 1 must sample every candidate (call %d)", i)
		}
	}
	// New clamps nonsense rates to 1.
	if New(0, 1).Rate() != 1 || New(-3, 1).Rate() != 1 {
		t.Fatal("rate < 1 must clamp to 1")
	}
}

func TestNilExporterInert(t *testing.T) {
	var e *Exporter
	if sample(e) {
		t.Fatal("nil exporter must not sample")
	}
	e.Export(Record{}) // must not panic
	if s := e.Stats(); s != (Stats{}) {
		t.Fatalf("nil exporter stats = %+v, want zero", s)
	}
}

func TestExportBackpressureDropsNotBlocks(t *testing.T) {
	e := New(1, 2)
	r := Record{SrcIP: netip.MustParseAddr("10.0.0.1"), Bytes: 64}
	for i := 0; i < 5; i++ {
		e.Export(r) // no consumer: must never block
	}
	s := e.Stats()
	if s.Exported != 2 || s.Dropped != 3 {
		t.Fatalf("exported/dropped = %d/%d, want 2/3", s.Exported, s.Dropped)
	}
	got := <-e.Records()
	if got != r {
		t.Fatalf("record round-trip mismatch: %+v", got)
	}
}

// The 1-in-rate property is global across goroutines: total hits converge to
// candidates/rate regardless of interleaving.
func TestSampleConcurrent(t *testing.T) {
	const workers, per = 8, 4000
	e := New(16, 1)
	var wg sync.WaitGroup
	var mu sync.Mutex
	hits := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < per; i++ {
				if sample(e) {
					n++
				}
			}
			mu.Lock()
			hits += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if want := workers * per / 16; hits != want {
		t.Fatalf("concurrent 1-in-16: %d hits, want %d", hits, want)
	}
}

// Random mode: same seed ⇒ the same decision sequence, different seeds ⇒
// (with overwhelming probability) different sequences. Determinism is what
// makes seeded-random sampling replayable in experiments.
func TestSampleRandomDeterministicBySeed(t *testing.T) {
	decisions := func(seed uint64) []bool {
		e := NewRandom(4, 1, seed)
		out := make([]bool, 256)
		for i := range out {
			out[i] = sample(e)
		}
		return out
	}
	a, b := decisions(42), decisions(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at candidate %d", i)
		}
	}
	c := decisions(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 256-decision sequences")
	}
}

// Random mode converges to 1-in-rate in the mean but is not exact per
// window — that immunity to periodic traffic is the point of the mode.
func TestSampleRandomMeanRate(t *testing.T) {
	const rate, n = 16, 200_000
	e := NewRandom(rate, 1, 7)
	hits := 0
	for i := 0; i < n; i++ {
		if sample(e) {
			hits++
		}
	}
	want := float64(n) / rate
	// ±5σ for a binomial(n, 1/rate): far looser than the observed error,
	// tight enough to catch a broken threshold or a stuck generator.
	sigma := 5 * math.Sqrt(want*(1-1.0/rate))
	if d := float64(hits) - want; d < -sigma || d > sigma {
		t.Fatalf("1-in-%d over %d candidates: %d hits, want %.0f±%.0f", rate, n, hits, want, sigma)
	}
	if got := e.Stats().Seen; got != n {
		t.Fatalf("Seen = %d, want %d", got, n)
	}
}

// SampleBatch must make exactly the decisions one-frame windows would: batch
// reservation changes the locking, never the sampled set.
func TestSampleBatchMatchesSequential(t *testing.T) {
	for _, random := range []bool{false, true} {
		seq := New(8, 1)
		bat := New(8, 1)
		if random {
			seq = NewRandom(8, 1, 99)
			bat = NewRandom(8, 1, 99)
		}
		var want, got []int
		idx := 0
		for round := 0; round < 64; round++ {
			n := 1 + round%7
			for i := 0; i < n; i++ {
				if sample(seq) {
					want = append(want, idx+i)
				}
			}
			base := bat.SampleBatch(n)
			for i := 0; i < n; i++ {
				if bat.SampledAt(base, i) {
					got = append(got, idx+i)
				}
			}
			idx += n
		}
		if len(want) != len(got) {
			t.Fatalf("random=%v: sequential sampled %d, batch sampled %d", random, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("random=%v: decision %d at candidate %d, batch chose %d",
					random, i, want[i], got[i])
			}
		}
	}
}

func TestDropReasonStrings(t *testing.T) {
	want := map[DropReason]string{
		DropNone: "none", DropNoMatch: "no_match",
		DropNoPort: "no_port", DropCtrlDown: "ctrl_down",
		DropReason(99): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("DropReason(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}

func TestExporterTelemetry(t *testing.T) {
	e := New(2, 1)
	reg := telemetry.NewRegistry()
	e.EnableTelemetry(reg)
	sample(e)
	sample(e)
	e.Export(Record{})
	e.Export(Record{}) // buffer full: dropped

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"sdx_flowexport_candidates_total 2",
		"sdx_flowexport_exported_total 1",
		"sdx_flowexport_dropped_total 1",
		"sdx_flowexport_sample_rate 2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q\n%s", want, got)
		}
	}
}
