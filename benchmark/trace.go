package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around the calls into each layer; nothing inside
// the program under test is instrumented. Parent links a span to the one that
// caused it (-1 for a root); spans of one burst share Burst (-1 outside one).
// Ops is how many layer operations the span covers (a replay span times many
// calls at once), so mean-per-op stays meaningful.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Burst  int32  `json:"burst_id"`
	Ops    int32  `json:"ops"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off mode: every method is a no-op, so the timed paths of an
// untraced run pay one nil check per boundary and nothing else.
type tracer struct {
	epoch time.Time
	// on gates begin: spans are recorded only while the workload is on its
	// clock (or replaying), so set-up, oracles and off-clock housekeeping do
	// not leak into the per-layer bill.
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent, burst int32) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Burst: burst, Ops: 1})
	t.mu.Unlock()
	return id
}

// clock switches recording on or off.
func (t *tracer) clock(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// end closes a span opened by begin. Safe from any goroutine.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endAt closes a span at an instant observed elsewhere (a BARRIER_REPLY's
// arrival time, not the moment the driver woke up to read it).
func (t *tracer) endAt(id int32, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(at.Sub(t.epoch))
	t.mu.Unlock()
}

// timed records one root span around fn covering ops layer operations — the
// layer-replay form.
func (t *tracer) timed(name string, ops int, fn func()) {
	t.clock(true)
	id := t.begin(name, -1, -1)
	fn()
	t.end(id)
	t.setOps(id, ops)
}

// setOps records how many layer operations a span covered.
func (t *tracer) setOps(id int32, ops int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Ops = int32(ops)
	t.mu.Unlock()
}

// snapshot returns the closed spans (an open span at exit is a harness bug
// the caller reports, not data).
func (t *tracer) snapshot() (closed []span, open int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End < 0 {
			open++
		}
	}
	return append([]span(nil), t.spans...), open
}

// writeSpans dumps the raw spans as JSON for offline inspection.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes computes each span's self time: the part of its interval during
// which it is the innermost open span of its tree. For properly nested spans
// that is duration minus children. Spans of one tree recorded on different
// goroutines may overlap (the controller pushes one UPDATE's rules while the
// switch still acknowledges the previous one); then every instant is
// attributed to exactly one span — the most recently started one open at that
// instant — so the self times of a tree always sum to its root's duration.
// Open spans (End < 0) get zero.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	root := rootsOf(spans)
	byRoot := make(map[int32][]int32)
	for i, s := range spans {
		if s.End >= 0 {
			byRoot[root[i]] = append(byRoot[root[i]], int32(i))
		}
	}
	type event struct {
		at    int64
		id    int32
		start bool
	}
	for r, ids := range byRoot {
		lo, hi := spans[r].Start, spans[r].End
		if hi < 0 {
			continue
		}
		evs := make([]event, 0, 2*len(ids))
		for _, id := range ids {
			s := spans[id]
			evs = append(evs, event{max(s.Start, lo), id, true}, event{min(s.End, hi), id, false})
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].at != evs[j].at {
				return evs[i].at < evs[j].at
			}
			// Close before open at the same instant; then by id for determinism.
			if evs[i].start != evs[j].start {
				return !evs[i].start
			}
			return evs[i].id < evs[j].id
		})
		var open []int32
		prev := lo
		for _, e := range evs {
			if len(open) > 0 && e.at > prev {
				top := open[0]
				for _, id := range open[1:] {
					if spans[id].Start > spans[top].Start || (spans[id].Start == spans[top].Start && id > top) {
						top = id
					}
				}
				self[top] += e.at - prev
			}
			prev = e.at
			if e.start {
				open = append(open, e.id)
			} else {
				for k, id := range open {
					if id == e.id {
						open = append(open[:k], open[k+1:]...)
						break
					}
				}
			}
		}
	}
	return self
}

// rootsOf maps every span to the root of its tree. Parents are always
// recorded before their children.
func rootsOf(spans []span) []int32 {
	root := make([]int32, len(spans))
	for i, s := range spans {
		if s.Parent < 0 || int(s.Parent) >= i {
			root[i] = int32(i)
		} else {
			root[i] = root[s.Parent]
		}
	}
	return root
}

// layerStat is one span name's aggregate: how often the layer was entered,
// how long it was busy, and how much of that was its own (not its callees').
type layerStat struct {
	Count   int     `json:"count"`
	Ops     int     `json:"ops"`
	BusyMS  float64 `json:"busy_ms"`
	SelfMS  float64 `json:"self_ms"`
	MeanUS  float64 `json:"mean_us_per_op"`
	BusyPct float64 `json:"busy_pct_of_window"`
}

// aggregate folds spans by name. windowNS is the on-clock time of the run;
// busy_pct relates each layer's busy time to it.
func aggregate(spans []span, windowNS int64) map[string]*layerStat {
	self := selfTimes(spans)
	out := make(map[string]*layerStat)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Count++
		st.Ops += int(s.Ops)
		st.BusyMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(self[i]) / 1e6
	}
	for _, st := range out {
		if st.Ops > 0 {
			st.MeanUS = st.BusyMS * 1e3 / float64(st.Ops)
		}
		if windowNS > 0 {
			st.BusyPct = st.BusyMS * 1e6 / float64(windowNS) * 100
		}
	}
	return out
}

// bill splits the time of the named operation roots over the spans beneath
// them: per span name the summed self time, and "unattributed" for what no
// child covers (the root's own self time). By selfTimes' partition the
// entries sum to the operations' end-to-end time exactly.
func bill(spans []span, rootName string) (entries map[string]float64, totalMS float64) {
	self := selfTimes(spans)
	root := rootsOf(spans)
	entries = make(map[string]float64)
	for i, s := range spans {
		r := spans[root[i]]
		if r.Name != rootName || r.End < 0 || s.End < 0 {
			continue
		}
		name := s.Name
		if int(root[i]) == i {
			name = "unattributed"
			totalMS += float64(s.End-s.Start) / 1e6
		}
		entries[name] += float64(self[i]) / 1e6
	}
	return entries, totalMS
}
