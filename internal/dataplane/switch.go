package dataplane

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"sdx/internal/flowexport"
	"sdx/internal/openflow"
	"sdx/internal/packet"
	"sdx/internal/policy"
	"sdx/internal/telemetry"
)

// PortStats counts traffic through one switch port; the deployment
// experiments read these to plot traffic-rate curves.
type PortStats struct {
	RxPackets uint64
	RxBytes   uint64
	TxPackets uint64
	TxBytes   uint64
}

type port struct {
	out     func(frame []byte)
	rxPkts  atomic.Uint64
	rxBytes atomic.Uint64
	txPkts  atomic.Uint64
	txBytes atomic.Uint64
	// drops attributes dropped frames to the ingress port they arrived on,
	// indexed by flowexport.DropReason (slot DropNone unused).
	drops [flowexport.NumDropReasons]atomic.Uint64
}

// Switch is the software fabric switch. Frames enter through Inject or
// InjectBatch (or a daemon's socket front end), are matched against the
// flow table, rewritten, and emitted on attached ports. Unmatched frames go
// to the controller as PACKET_INs when one is attached, otherwise they are
// dropped.
type Switch struct {
	DatapathID uint64
	Table      *FlowTable

	mu sync.RWMutex
	// ports is copy-on-write: AttachPort/DetachPort clone the table under mu
	// and swap the pointer, so the per-frame paths (Inject, emit, flood)
	// read it with one atomic load and no lock. The table carries both the
	// lookup map and the ascending port-number order flood/replication use.
	ports atomic.Pointer[portTable]

	// controller delivery; nil when no controller is attached. ctrlGen is
	// bumped on every attach and acts as a token: a detaching connection
	// only clears toController if no newer controller has replaced it in
	// the meantime. ctrlClose, when set, severs the attached connection's
	// transport so a replacement can deliberately displace it.
	toController func(*openflow.PacketIn)
	ctrlGen      uint64
	ctrlClose    func()
	// onCtrlAttach, when set by RunController, observes each successful
	// attach so the reconnect instruments count establishment in real time
	// rather than at session teardown.
	onCtrlAttach func()

	// ofMetrics, when set by EnableTelemetry, is attached to controller
	// connections served by ServeController.
	ofMetrics *openflow.Metrics

	// exporter, when set, receives sampled flow records from the match and
	// drop paths. Atomic so SetFlowExporter is safe against concurrent
	// Inject; when unset the hot path pays one pointer load per frame.
	exporter atomic.Pointer[flowexport.Exporter]

	// failOpen is set once RunController owns the controller channel: from
	// then on a table miss with no attached controller means the channel is
	// down and the switch is running fail-open on its installed table
	// (DropCtrlDown), not that a controller was never configured
	// (DropNoMatch).
	failOpen atomic.Bool

	// Intrusive counters: always live (an atomic add each), surfaced to a
	// telemetry registry only when EnableTelemetry adopts them, so the
	// Inject hot path is identical with and without a registry. The dropped
	// pair is what Dropped() has always reported.
	droppedNoMatch  telemetry.Counter
	droppedNoPort   telemetry.Counter
	droppedCtrlDown telemetry.Counter
	matched         telemetry.Counter
	missed          telemetry.Counter
	packetIns       telemetry.Counter
	packetOuts      telemetry.Counter

	// Reconnect-loop instruments (RunController).
	reconnectAttempts telemetry.Counter
	reconnects        telemetry.Counter
	backoffNanos      telemetry.Gauge
	ctrlConnected     telemetry.Gauge
}

// portTable is one immutable snapshot of the attached ports: the number →
// port map plus the numbers in ascending order, kept together so flood and
// group replication emit in a deterministic order without sorting per frame.
type portTable struct {
	byNum  map[uint16]*port
	sorted []uint16
}

func newPortTable(byNum map[uint16]*port) *portTable {
	t := &portTable{byNum: byNum, sorted: make([]uint16, 0, len(byNum))}
	for n := range byNum {
		t.sorted = append(t.sorted, n)
	}
	sort.Slice(t.sorted, func(i, j int) bool { return t.sorted[i] < t.sorted[j] })
	return t
}

// NewSwitch returns an empty switch.
func NewSwitch(datapathID uint64) *Switch {
	s := &Switch{
		DatapathID: datapathID,
		Table:      NewFlowTable(),
	}
	s.ports.Store(newPortTable(make(map[uint16]*port)))
	return s
}

// portMap returns the current port map snapshot. The map is never mutated
// after publication; treat it as read-only.
func (s *Switch) portMap() map[uint16]*port {
	return s.ports.Load().byNum
}

// AttachPort connects a port: frames the switch emits on portNo are passed
// to out. Attaching an existing port number replaces its sink (and resets
// its counters).
func (s *Switch) AttachPort(portNo uint16, out func(frame []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.portMap()
	next := make(map[uint16]*port, len(old)+1)
	for n, p := range old {
		next[n] = p
	}
	next[portNo] = &port{out: out}
	s.ports.Store(newPortTable(next))
}

// DetachPort removes a port.
func (s *Switch) DetachPort(portNo uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.portMap()
	next := make(map[uint16]*port, len(old))
	for n, p := range old {
		if n != portNo {
			next[n] = p
		}
	}
	s.ports.Store(newPortTable(next))
}

// NumPorts returns the number of attached ports.
func (s *Switch) NumPorts() int {
	return len(s.portMap())
}

// Stats returns counters for portNo.
func (s *Switch) Stats(portNo uint16) (PortStats, bool) {
	p, ok := s.portMap()[portNo]
	if !ok {
		return PortStats{}, false
	}
	return PortStats{
		RxPackets: p.rxPkts.Load(), RxBytes: p.rxBytes.Load(),
		TxPackets: p.txPkts.Load(), TxBytes: p.txBytes.Load(),
	}, true
}

// Dropped returns the counts of frames dropped for want of a matching rule
// and for output to a missing port. It reads the same telemetry counters
// EnableTelemetry exposes as sdx_dataplane_dropped_total. Fail-open drops
// (table miss while the controller channel is down) are a third bucket,
// reported by DroppedByReason, not folded into noMatch.
func (s *Switch) Dropped() (noMatch, noPort uint64) {
	return s.droppedNoMatch.Value(), s.droppedNoPort.Value()
}

// DroppedByReason returns the switch-wide drop totals indexed by
// flowexport.DropReason (slot DropNone is always zero).
func (s *Switch) DroppedByReason() [flowexport.NumDropReasons]uint64 {
	var out [flowexport.NumDropReasons]uint64
	out[flowexport.DropNoMatch] = s.droppedNoMatch.Value()
	out[flowexport.DropNoPort] = s.droppedNoPort.Value()
	out[flowexport.DropCtrlDown] = s.droppedCtrlDown.Value()
	return out
}

// PortDrops returns the per-reason counts of drops attributed to frames
// that entered on portNo (indexed by flowexport.DropReason), and whether
// the port is attached.
func (s *Switch) PortDrops(portNo uint16) ([flowexport.NumDropReasons]uint64, bool) {
	var out [flowexport.NumDropReasons]uint64
	p, ok := s.portMap()[portNo]
	if !ok {
		return out, false
	}
	for r := range p.drops {
		out[r] = p.drops[r].Load()
	}
	return out, true
}

// SetFlowExporter installs (or, with nil, removes) the sampled flow
// exporter. Safe to call while traffic is flowing; frames being processed
// concurrently use whichever exporter they loaded at match time.
func (s *Switch) SetFlowExporter(e *flowexport.Exporter) {
	s.exporter.Store(e)
}

// FlowExporter returns the installed exporter, or nil.
func (s *Switch) FlowExporter() *flowexport.Exporter {
	return s.exporter.Load()
}

// PortNumbers returns the attached port numbers in ascending order.
func (s *Switch) PortNumbers() []uint16 {
	t := s.ports.Load()
	return append([]uint16(nil), t.sorted...)
}

// PortStatsEntries snapshots every port's counters in port order — the
// source for both the telemetry collectors and the OpenFlow port-stats
// reply.
func (s *Switch) PortStatsEntries() []openflow.PortStatsEntry {
	t := s.ports.Load()
	out := make([]openflow.PortStatsEntry, 0, len(t.sorted))
	for _, n := range t.sorted {
		p := t.byNum[n]
		out = append(out, openflow.PortStatsEntry{
			PortNo:    n,
			RxPackets: p.rxPkts.Load(),
			TxPackets: p.txPkts.Load(),
			RxBytes:   p.rxBytes.Load(),
			TxBytes:   p.txBytes.Load(),
		})
	}
	return out
}

// EnableTelemetry exposes the switch's intrusive counters through reg: the
// table hit/miss and PACKET_IN/OUT paths, both drop reasons, per-port RX/TX
// frame and byte counters, and the flow-table size. All series are resolved
// at scrape time, so the Inject hot path is untouched — the overhead
// benchmark (BenchmarkInjectTelemetryOverhead) guards that property. It
// also attaches OpenFlow message metrics to future ServeController
// sessions. Call it before serving traffic; a nil registry is a no-op.
func (s *Switch) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("sdx_dataplane_table_hits_total",
		"Frames matched by a flow-table entry.",
		func() float64 { return float64(s.matched.Value()) })
	reg.CounterFunc("sdx_dataplane_table_misses_total",
		"Frames that missed the flow table (punted or dropped).",
		func() float64 { return float64(s.missed.Value()) })
	reg.CounterFunc("sdx_dataplane_packet_in_total",
		"Table-miss frames forwarded to the controller as PACKET_INs.",
		func() float64 { return float64(s.packetIns.Value()) })
	reg.CounterFunc("sdx_dataplane_packet_out_total",
		"Controller-injected PACKET_OUT frames executed.",
		func() float64 { return float64(s.packetOuts.Value()) })
	reg.CounterVecFunc("sdx_dataplane_dropped_total",
		"Frames dropped, by reason.", []string{"reason"},
		func(emit func([]string, float64)) {
			counts := s.DroppedByReason()
			emit([]string{"no_match"}, float64(counts[flowexport.DropNoMatch]))
			emit([]string{"no_port"}, float64(counts[flowexport.DropNoPort]))
			emit([]string{"ctrl_down"}, float64(counts[flowexport.DropCtrlDown]))
		})
	reg.CounterVecFunc("sdx_dataplane_port_dropped_total",
		"Frames dropped, by ingress port and reason.", []string{"port", "reason"},
		func(emit func([]string, float64)) {
			for _, n := range s.PortNumbers() {
				drops, ok := s.PortDrops(n)
				if !ok {
					continue
				}
				p := strconv.Itoa(int(n))
				for r := flowexport.DropNoMatch; r < flowexport.NumDropReasons; r++ {
					if v := drops[r]; v > 0 {
						emit([]string{p, r.String()}, float64(v))
					}
				}
			}
		})
	reg.GaugeFunc("sdx_dataplane_flow_entries",
		"Installed flow-table rules.",
		func() float64 { return float64(s.Table.Len()) })
	reg.CounterFunc("sdx_dataplane_cache_hits_total",
		"Lookups answered lock-free by the microflow cache.",
		func() float64 { return float64(s.Table.CacheStats().Hits) })
	reg.CounterFunc("sdx_dataplane_cache_misses_total",
		"Lookups that fell through to the indexed slow path.",
		func() float64 { return float64(s.Table.CacheStats().Misses) })
	reg.CounterFunc("sdx_dataplane_cache_invalidations_total",
		"Wholesale microflow-cache invalidations (table mutations).",
		func() float64 { return float64(s.Table.CacheStats().Invalidations) })
	reg.GaugeFunc("sdx_dataplane_cache_entries",
		"Microflow-cache slots valid at the current table generation.",
		func() float64 { return float64(s.Table.CacheStats().Entries) })
	reg.CounterFunc("sdx_dataplane_megaflow_hits_total",
		"Lookups answered lock-free by the wildcard megaflow cache.",
		func() float64 { return float64(s.Table.CacheStats().MegaflowHits) })
	reg.GaugeFunc("sdx_dataplane_megaflow_masks",
		"Distinct wildcard masks tracked by the megaflow cache.",
		func() float64 { return float64(s.Table.CacheStats().MegaflowMasks) })
	reg.GaugeFunc("sdx_dataplane_megaflow_entries",
		"Megaflow-cache slots valid at the current table generation.",
		func() float64 { return float64(s.Table.CacheStats().MegaflowEntries) })
	reg.CounterFunc("sdx_dataplane_reconnect_attempts_total",
		"Controller dial attempts by the reconnect loop.",
		func() float64 { return float64(s.reconnectAttempts.Value()) })
	reg.CounterFunc("sdx_dataplane_reconnects_total",
		"Controller sessions established by the reconnect loop.",
		func() float64 { return float64(s.reconnects.Value()) })
	reg.GaugeFunc("sdx_dataplane_reconnect_backoff_seconds",
		"Current controller-redial backoff (0 while connected).",
		func() float64 { return float64(s.backoffNanos.Value()) / 1e9 })
	reg.GaugeFunc("sdx_dataplane_controller_connected",
		"Whether a controller is attached (1) or the switch is running on its installed table (0).",
		func() float64 { return float64(s.ctrlConnected.Value()) })
	reg.CounterVecFunc("sdx_dataplane_port_frames_total",
		"Frames through each switch port, by direction.", []string{"port", "dir"},
		func(emit func([]string, float64)) {
			for _, e := range s.PortStatsEntries() {
				p := strconv.Itoa(int(e.PortNo))
				emit([]string{p, "rx"}, float64(e.RxPackets))
				emit([]string{p, "tx"}, float64(e.TxPackets))
			}
		})
	reg.CounterVecFunc("sdx_dataplane_port_bytes_total",
		"Bytes through each switch port, by direction.", []string{"port", "dir"},
		func(emit func([]string, float64)) {
			for _, e := range s.PortStatsEntries() {
				p := strconv.Itoa(int(e.PortNo))
				emit([]string{p, "rx"}, float64(e.RxBytes))
				emit([]string{p, "tx"}, float64(e.TxBytes))
			}
		})
	s.mu.Lock()
	s.ofMetrics = openflow.NewMetrics(reg)
	s.mu.Unlock()
}

// injectScratch is the reusable per-goroutine working state of the packet
// path: the decode arenas and the lookup arrays of one chunk. Pooled so
// steady-state forwarding allocates nothing; a scratch is held for the whole
// of one InjectBatch call (including nested re-entry through trunk ports,
// which draws its own scratch).
type injectScratch struct {
	decs    []packet.Scratch
	keys    []policy.Packet
	sizes   []int
	entries []*FlowEntry
	// first backs the four slices until a chunk outgrows it, so a scratch
	// the pool had to rebuild costs a single-frame Inject one allocation.
	first struct {
		dec   [1]packet.Scratch
		key   [1]policy.Packet
		size  [1]int
		entry [1]*FlowEntry
	}
}

var scratchPool = sync.Pool{New: func() any {
	sc := new(injectScratch)
	sc.decs, sc.keys = sc.first.dec[:], sc.first.key[:]
	sc.sizes, sc.entries = sc.first.size[:], sc.first.entry[:]
	return sc
}}

// batchChunk bounds how many frames one processBatch pass handles, keeping
// the scratch arrays cache-resident regardless of caller batch size.
const batchChunk = 256

// Inject delivers one frame into the switch on the given ingress port, as
// if received from the wire: an InjectBatch of one. It returns an error only
// for undecodable frames; policy drops are not errors.
func (s *Switch) Inject(inPort uint16, frame []byte) error {
	one := [1][]byte{frame}
	return s.InjectBatch(inPort, one[:])
}

// InjectBatch delivers a batch of frames into the switch on the given
// ingress port. Matching, counters, sampling and drops are per frame, but
// the batch amortizes the fixed costs: ingress counters bump once per chunk,
// the table resolves all lookups with at most one lock acquisition, and the
// sampler reserves the whole chunk's candidate window in one atomic.
// Undecodable frames are skipped (the rest of the batch still forwards); the
// first decode error is returned after the batch completes.
func (s *Switch) InjectBatch(inPort uint16, frames [][]byte) error {
	p, ok := s.portMap()[inPort]
	if !ok {
		return fmt.Errorf("dataplane: inject on unattached port %d", inPort)
	}
	sc := scratchPool.Get().(*injectScratch)
	var firstErr error
	for len(frames) > 0 {
		n := len(frames)
		if n > batchChunk {
			n = batchChunk
		}
		if err := s.processBatch(sc, p, inPort, frames[:n]); err != nil && firstErr == nil {
			firstErr = err
		}
		frames = frames[n:]
	}
	scratchPool.Put(sc)
	return firstErr
}

// frameCtx carries one frame's attribution through the action pipeline so
// the emit/punt leaves can account drops per ingress port and build flow
// records without re-deriving the 5-tuple. It lives on processBatch's stack
// — nothing below may retain the pointer.
type frameCtx struct {
	ingress *port // nil for controller PACKET_OUTs on unattached ports
	key     policy.Packet
	cookie  uint64
	ex      *flowexport.Exporter
	sampled bool
}

// record builds the flow record for one outcome of this frame. A flooded
// or multi-output frame yields one record per emission, mirroring sFlow's
// per-copy sampling semantics.
func (c *frameCtx) record(outPort uint16, size int, drop flowexport.DropReason) flowexport.Record {
	return flowexport.Record{
		SrcIP:   c.key.SrcIP,
		DstIP:   c.key.DstIP,
		Proto:   c.key.Proto,
		Drop:    drop,
		SrcPort: c.key.SrcPort,
		DstPort: c.key.DstPort,
		InPort:  c.key.Port,
		OutPort: outPort,
		Cookie:  c.cookie,
		Bytes:   uint32(size),
	}
}

// processBatch runs one chunk of InjectBatch: decode every frame into the
// scratch arenas, resolve all lookups in one LookupBatch call, reserve the
// chunk's sampling window in one atomic, then walk the frames applying
// actions. Aggregate counters (rx, matched, missed) bump once per chunk.
func (s *Switch) processBatch(sc *injectScratch, ingress *port, inPort uint16, frames [][]byte) error {
	n := len(frames)
	if cap(sc.decs) < n {
		sc.decs = make([]packet.Scratch, n)
		sc.keys = make([]policy.Packet, n)
		sc.sizes = make([]int, n)
		sc.entries = make([]*FlowEntry, n)
	}
	decs, keys := sc.decs[:n], sc.keys[:n]
	sizes, entries := sc.sizes[:n], sc.entries[:n]

	var firstErr error
	var rxBytes uint64
	nValid := 0
	for i, frame := range frames {
		rxBytes += uint64(len(frame))
		pkt, err := decs[i].Decode(frame)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("dataplane: undecodable frame on port %d: %w", inPort, err)
			}
			sizes[i] = -1 // skip slot: no lookup, no counters, no sampling
			continue
		}
		keys[i] = toPolicyPacket(inPort, pkt)
		sizes[i] = len(frame)
		nValid++
	}
	ingress.rxPkts.Add(uint64(n))
	ingress.rxBytes.Add(rxBytes)

	s.Table.LookupBatch(keys, sizes, entries)

	// One atomic reserves the whole chunk's sampling candidate window;
	// SampledAt answers per decoded frame.
	ex := s.exporter.Load()
	var base uint64
	if ex != nil {
		base = ex.SampleBatch(nValid)
	}

	var matched, missed uint64
	cand := 0
	for i, frame := range frames {
		if sizes[i] < 0 {
			continue
		}
		ctx := frameCtx{ingress: ingress, key: keys[i], ex: ex}
		if ex != nil {
			ctx.sampled = ex.SampledAt(base, cand)
		}
		cand++
		e := entries[i]
		if e == nil {
			missed++
			s.punt(frame, &ctx)
			continue
		}
		matched++
		ctx.cookie = e.Cookie
		if len(e.Actions) == 0 {
			if ctx.sampled {
				ex.Export(ctx.record(0, len(frame), flowexport.DropNone))
			}
			continue
		}
		s.applyActions(e.Actions, decs[i].Packet(), frame, &ctx)
	}
	if matched > 0 {
		s.matched.Add(matched)
	}
	if missed > 0 {
		s.missed.Add(missed)
	}
	return firstErr
}

// applyActions executes an OpenFlow action list: set-field actions mutate
// the working packet; each output emits the current state.
func (s *Switch) applyActions(actions []openflow.Action, pkt *packet.Packet, frame []byte, ctx *frameCtx) {
	work := *pkt // shallow copy; layer pointers cloned on first write below
	cloned := false
	clone := func() {
		if cloned {
			return
		}
		cloned = true
		if pkt.IPv4 != nil {
			ip := *pkt.IPv4
			work.IPv4 = &ip
		}
		if pkt.TCP != nil {
			tcp := *pkt.TCP
			work.TCP = &tcp
		}
		if pkt.UDP != nil {
			udp := *pkt.UDP
			work.UDP = &udp
		}
	}
	// render memoizes the serialized working packet: once a set-field has
	// fired, the first output serializes and every later output (including
	// every port of a flood) reuses the same bytes until the next set-field.
	dirty := false
	var rendered []byte
	render := func() []byte {
		if !dirty {
			return frame
		}
		if rendered == nil {
			rendered = work.Serialize()
		}
		return rendered
	}
	for _, a := range actions {
		switch a.Type {
		case openflow.ActionTypeOutput:
			switch a.Port {
			case openflow.PortController:
				s.punt(render(), ctx)
			case openflow.PortFlood:
				s.flood(render(), ctx)
			default:
				s.emit(a.Port, render(), ctx)
			}
		case openflow.ActionTypeGroup:
			s.replicate(a.Ports, render(), ctx)
		case openflow.ActionTypeSetDLSrc:
			clone()
			work.Eth.SrcMAC = a.MAC
			dirty, rendered = true, nil
		case openflow.ActionTypeSetDLDst:
			clone()
			work.Eth.DstMAC = a.MAC
			dirty, rendered = true, nil
		case openflow.ActionTypeSetNWSrc:
			clone()
			if work.IPv4 != nil {
				work.IPv4.SrcIP = a.IP
			}
			dirty, rendered = true, nil
		case openflow.ActionTypeSetNWDst:
			clone()
			if work.IPv4 != nil {
				work.IPv4.DstIP = a.IP
			}
			dirty, rendered = true, nil
		case openflow.ActionTypeSetTPSrc:
			clone()
			if work.TCP != nil {
				work.TCP.SrcPort = a.TP
			}
			if work.UDP != nil {
				work.UDP.SrcPort = a.TP
			}
			dirty, rendered = true, nil
		case openflow.ActionTypeSetTPDst:
			clone()
			if work.TCP != nil {
				work.TCP.DstPort = a.TP
			}
			if work.UDP != nil {
				work.UDP.DstPort = a.TP
			}
			dirty, rendered = true, nil
		}
	}
}

func (s *Switch) emit(portNo uint16, frame []byte, ctx *frameCtx) {
	p, ok := s.portMap()[portNo]
	if !ok {
		s.dropFrame(flowexport.DropNoPort, portNo, len(frame), ctx)
		return
	}
	s.emitPort(p, portNo, frame, ctx)
}

func (s *Switch) emitPort(p *port, portNo uint16, frame []byte, ctx *frameCtx) {
	p.txPkts.Add(1)
	p.txBytes.Add(uint64(len(frame)))
	if ctx.sampled {
		ctx.ex.Export(ctx.record(portNo, len(frame), flowexport.DropNone))
	}
	p.out(frame)
}

// flood emits the (already rendered) frame on every attached port except
// the ingress, in ascending port order — run-to-run deterministic so e2e
// packet captures and sampled flow-record sequences are comparable. The
// port-table snapshot is lock-free; its sorted slice is iterated directly.
func (s *Switch) flood(frame []byte, ctx *frameCtx) {
	inPort := ctx.key.Port
	t := s.ports.Load()
	for _, n := range t.sorted {
		if n != inPort {
			s.emitPort(t.byNum[n], n, frame, ctx)
		}
	}
}

// replicate emits the (already rendered) frame to every port of a group
// action, in the action's ascending member order. Unlike flood it does not
// exclude the ingress — a group action is exactly equivalent to that many
// consecutive outputs; source exclusion is the compiler's business.
func (s *Switch) replicate(ports []uint16, frame []byte, ctx *frameCtx) {
	for _, n := range ports {
		s.emit(n, frame, ctx)
	}
}

// dropFrame is the single drop sink: it bumps the switch-wide reason
// counter, attributes the drop to the frame's ingress port, and — when this
// frame was sampled — exports a drop record carrying whatever attribution
// survives (a no_port drop still knows its rule cookie and intended egress;
// a no_match drop has neither).
func (s *Switch) dropFrame(reason flowexport.DropReason, outPort uint16, size int, ctx *frameCtx) {
	switch reason {
	case flowexport.DropNoMatch:
		s.droppedNoMatch.Inc()
	case flowexport.DropNoPort:
		s.droppedNoPort.Inc()
	case flowexport.DropCtrlDown:
		s.droppedCtrlDown.Inc()
	}
	if ctx.ingress != nil {
		ctx.ingress.drops[reason].Add(1)
	}
	if ctx.sampled {
		ctx.ex.Export(ctx.record(outPort, size, reason))
	}
}

// punt sends a frame to the controller, or counts a drop without one. The
// drop reason distinguishes a switch that never had a controller configured
// (no_match) from one whose RunController-managed channel is currently down
// and forwarding fail-open (ctrl_down).
func (s *Switch) punt(frame []byte, ctx *frameCtx) {
	s.mu.RLock()
	send := s.toController
	s.mu.RUnlock()
	if send == nil {
		reason := flowexport.DropNoMatch
		if s.failOpen.Load() {
			reason = flowexport.DropCtrlDown
		}
		s.dropFrame(reason, 0, len(frame), ctx)
		return
	}
	s.packetIns.Inc()
	send(&openflow.PacketIn{
		BufferID: 0xffffffff,
		InPort:   ctx.key.Port,
		Reason:   openflow.ReasonNoMatch,
		Data:     frame,
	})
}

// EntryFromFlowMod lowers an add/modify flow modification to the table
// entry it installs.
func EntryFromFlowMod(fm *openflow.FlowMod) *FlowEntry {
	return &FlowEntry{
		Match:    fm.Match.ToPolicy(),
		Priority: fm.Priority,
		Actions:  fm.Actions,
		Cookie:   fm.Cookie,
	}
}

// InstallFlowMod applies a controller flow modification to the table.
func (s *Switch) InstallFlowMod(fm *openflow.FlowMod) error {
	switch fm.Command {
	case openflow.FlowModAdd, openflow.FlowModModify:
		s.Table.Add(EntryFromFlowMod(fm))
	case openflow.FlowModDelete:
		s.Table.Delete(fm.Match.ToPolicy(), fm.Priority, false)
	case openflow.FlowModDeleteStrict:
		s.Table.Delete(fm.Match.ToPolicy(), fm.Priority, true)
	default:
		return fmt.Errorf("dataplane: unsupported flow-mod command %d", fm.Command)
	}
	return nil
}

// InstallFlowMods applies a sequence of flow modifications, coalescing runs
// of consecutive adds/modifies into single AddBatch table operations so a
// run takes the table lock and invalidates the caches once instead of per
// rule. Deletes apply one at a time; a strict delete touches one entry.
func (s *Switch) InstallFlowMods(fms []*openflow.FlowMod) error {
	var batch []*FlowEntry
	flush := func() {
		if len(batch) > 0 {
			s.Table.AddBatch(batch)
			batch = nil
		}
	}
	for _, fm := range fms {
		switch fm.Command {
		case openflow.FlowModAdd, openflow.FlowModModify:
			batch = append(batch, EntryFromFlowMod(fm))
		case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
			flush()
			if err := s.InstallFlowMod(fm); err != nil {
				return err
			}
		default:
			flush()
			return fmt.Errorf("dataplane: unsupported flow-mod command %d", fm.Command)
		}
	}
	flush()
	return nil
}

// ExecutePacketOut injects a controller-originated frame through the given
// action list.
func (s *Switch) ExecutePacketOut(po *openflow.PacketOut) error {
	sc := scratchPool.Get().(*injectScratch)
	defer scratchPool.Put(sc)
	pkt, err := sc.decs[0].Decode(po.Data)
	if err != nil {
		return fmt.Errorf("dataplane: undecodable packet-out: %w", err)
	}
	s.packetOuts.Inc()
	ingress := s.portMap()[po.InPort] // may be nil: controller-synthesized port
	// Controller-originated frames are not flow-sampled (they are not the
	// exchange's traffic), but their drops still count.
	ctx := frameCtx{ingress: ingress, key: toPolicyPacket(po.InPort, pkt)}
	s.applyActions(po.Actions, pkt, po.Data, &ctx)
	return nil
}

// toPolicyPacket flattens a decoded frame into the located-packet view the
// flow table matches on.
func toPolicyPacket(inPort uint16, pkt *packet.Packet) policy.Packet {
	p := policy.Packet{
		Port:    inPort,
		SrcMAC:  pkt.Eth.SrcMAC,
		DstMAC:  pkt.Eth.DstMAC,
		EthType: pkt.Eth.EtherType,
	}
	if pkt.IPv4 != nil {
		p.SrcIP = pkt.IPv4.SrcIP
		p.DstIP = pkt.IPv4.DstIP
		p.Proto = pkt.IPv4.Protocol
	}
	p.SrcPort = pkt.SrcPort()
	p.DstPort = pkt.DstPort()
	return p
}
