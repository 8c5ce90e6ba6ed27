// Package flowexport is the SDX's sFlow-style sampled flow export: the
// dataplane samples one in N frames on the match path and emits a flow
// record — 5-tuple, in/out port, matched-rule cookie, byte count, drop
// reason — over a bounded channel toward an analytics consumer.
//
// The design is built around what the Inject hot path can afford:
//
//   - Sampling is a single atomic counter increment and a modulo; the
//     1-in-N decision is count-based (deterministic), not random, so it
//     costs no RNG state and is exactly reproducible in tests.
//   - Record is a plain value struct. Building one and sending it over the
//     channel copies it — no heap allocation, nothing retained from the
//     frame buffer, so the switch can reuse its buffers freely.
//   - Export never blocks. When the channel is full the record is counted
//     as dropped and discarded; the exchange's traffic does not wait for
//     its observer. Drop accounting is explicit (Stats.Dropped) so a
//     saturated consumer is visible, never silent.
//
// With export disabled the switch carries a nil *Exporter and the match
// path pays one atomic pointer load — no counter, no branch beyond the nil
// check. The zero-allocation property of both paths is pinned by
// TestInjectSamplingAllocs in internal/dataplane.
package flowexport

import (
	"net/netip"
	"sync/atomic"

	"sdx/internal/telemetry"
)

// DropReason attributes a dropped frame. The zero value marks a forwarded
// (not dropped) record.
type DropReason uint8

// Drop reasons, in the order the dataplane can hit them.
const (
	DropNone     DropReason = iota // forwarded, not a drop
	DropNoMatch                    // table miss with no controller ever attached
	DropNoPort                     // matched rule output to a detached port
	DropCtrlDown                   // table miss while fail-open (controller channel down)

	// NumDropReasons bounds per-reason counter arrays.
	NumDropReasons = 4
)

func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropNoMatch:
		return "no_match"
	case DropNoPort:
		return "no_port"
	case DropCtrlDown:
		return "ctrl_down"
	}
	return "unknown"
}

// Record is one sampled flow observation. Forwarded frames carry
// Drop == DropNone and the matched rule's cookie; drop records carry the
// reason and whatever attribution survives (a no_port drop still knows its
// rule cookie, a no_match drop has none). Bytes is the sampled frame's wire
// length — consumers scale by the sampling rate to estimate traffic volume.
type Record struct {
	SrcIP, DstIP     netip.Addr
	Proto            uint8
	Drop             DropReason
	SrcPort, DstPort uint16
	InPort, OutPort  uint16
	Cookie           uint64
	Bytes            uint32
}

// Stats reports an exporter's lifetime counters.
type Stats struct {
	// Seen is the number of sampling decisions taken (candidate frames).
	Seen uint64
	// Exported is the number of records delivered into the channel.
	Exported uint64
	// Dropped is the number of sampled records discarded because the
	// channel was full (consumer backpressure).
	Dropped uint64
}

// Exporter samples 1-in-rate candidates and forwards records over a bounded
// channel. All methods are safe for concurrent use; Sample and Export are
// lock-free. A nil *Exporter is inert: Sample reports false.
//
// Two sampling modes share the candidate counter:
//
//   - Count mode (New): exactly every rate-th candidate is sampled.
//     Deterministic and exactly reproducible — the analytics accuracy gates
//     depend on it — but biased under traffic periodic in the rate.
//   - Random mode (NewRandom): each candidate is sampled independently with
//     probability 1/rate, decided by hashing the candidate's global index
//     with a seeded mixer (sFlow-style: inter-sample gaps are geometric
//     with mean rate, immune to periodicity). Because the decision is a
//     pure function of the candidate index, it needs no extra shared state,
//     stays lock-free, and a batch can reserve its whole candidate window
//     with one atomic and still make the identical per-frame decisions a
//     frame-at-a-time path would.
type Exporter struct {
	rate uint64
	// mask is rate-1 when rate is a power of two (the common case), letting
	// Sample test the counter with an AND instead of a 64-bit divide — the
	// divide is most of the per-frame cost on the forwarding path.
	mask uint64
	// random selects the seeded-hash mode; threshold is the 64-bit scaled
	// acceptance probability (2^64 / rate).
	random    bool
	seed      uint64
	threshold uint64
	tick      atomic.Uint64
	exported  atomic.Uint64
	dropped   atomic.Uint64
	ch        chan Record
}

// New returns an exporter sampling exactly one in rate frames (rate <= 1
// samples everything) with a record channel buffering buffer entries
// (minimum 1).
func New(rate, buffer int) *Exporter {
	if rate < 1 {
		rate = 1
	}
	if buffer < 1 {
		buffer = 1
	}
	e := &Exporter{rate: uint64(rate), ch: make(chan Record, buffer)}
	if e.rate > 1 && e.rate&(e.rate-1) == 0 {
		e.mask = e.rate - 1
	}
	return e
}

// NewRandom returns an exporter sampling each frame independently with
// probability 1/rate, driven by the seed (same seed, same traffic → same
// decisions). Use it when traffic may be periodic in the sampling rate;
// use New when tests or gates need exact 1-in-N determinism.
func NewRandom(rate, buffer int, seed uint64) *Exporter {
	e := New(rate, buffer)
	e.random = true
	e.seed = seed
	if e.rate > 1 {
		e.threshold = ^uint64(0)/e.rate + 1
	}
	return e
}

// Rate returns the sampling rate N (one in N).
func (e *Exporter) Rate() uint64 { return e.rate }

// Random reports whether the exporter is in seeded-random mode.
func (e *Exporter) Random() bool { return e != nil && e.random }

// mix64 is the splitmix64 finalizer: a strong 64-bit mixer, the same one
// loadgen uses for stateless client synthesis.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sampledIndex decides candidate index v (1-based) in either mode.
func (e *Exporter) sampledIndex(v uint64) bool {
	if e.random {
		if e.rate <= 1 {
			return true
		}
		return mix64(e.seed^v) < e.threshold
	}
	if e.mask != 0 {
		return v&e.mask == 0
	}
	return v%e.rate == 0
}

// SampleBatch counts n candidate frames by reserving a window of n candidate
// indices with one atomic, and returns its base; SampledAt answers whether
// each position should be exported: exactly one true per rate candidates in
// count mode, one in rate on average in random mode. The decisions do not
// depend on how the candidates are split into windows. Safe to call from
// many goroutines.
func (e *Exporter) SampleBatch(n int) uint64 {
	if e == nil || n <= 0 {
		return 0
	}
	return e.tick.Add(uint64(n)) - uint64(n)
}

// SampledAt reports the sampling decision for position i (0-based) of a
// window reserved by SampleBatch(base).
func (e *Exporter) SampledAt(base uint64, i int) bool {
	if e == nil {
		return false
	}
	return e.sampledIndex(base + uint64(i) + 1)
}

// Export delivers a sampled record without blocking: if the channel is
// full the record is dropped and counted. A nil receiver discards.
func (e *Exporter) Export(r Record) {
	if e == nil {
		return
	}
	select {
	case e.ch <- r:
		e.exported.Add(1)
	default:
		e.dropped.Add(1)
	}
}

// Records returns the receive side of the export channel. The channel is
// never closed; consumers stop via their own signal (analytics.Store.Run).
func (e *Exporter) Records() <-chan Record { return e.ch }

// Stats snapshots the exporter counters.
func (e *Exporter) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	return Stats{
		Seen:     e.tick.Load(),
		Exported: e.exported.Load(),
		Dropped:  e.dropped.Load(),
	}
}

// EnableTelemetry exposes the exporter's counters through reg, resolved at
// scrape time so the sampling path is untouched. A nil registry is a no-op.
func (e *Exporter) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil || e == nil {
		return
	}
	reg.CounterFunc("sdx_flowexport_candidates_total",
		"Frames considered by the flow sampler.",
		func() float64 { return float64(e.tick.Load()) })
	reg.CounterFunc("sdx_flowexport_exported_total",
		"Sampled flow records delivered to the export channel.",
		func() float64 { return float64(e.exported.Load()) })
	reg.CounterFunc("sdx_flowexport_dropped_total",
		"Sampled flow records discarded because the export channel was full.",
		func() float64 { return float64(e.dropped.Load()) })
	reg.GaugeFunc("sdx_flowexport_sample_rate",
		"Configured sampling rate N (one record per N frames).",
		func() float64 { return float64(e.rate) })
	reg.GaugeFunc("sdx_flowexport_sample_random",
		"Sampling mode: 1 = seeded-random (sFlow-style), 0 = count-based.",
		func() float64 {
			if e.random {
				return 1
			}
			return 0
		})
}
