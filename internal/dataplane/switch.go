package dataplane

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

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

// DropReason says why the switch dropped a frame. A matched rule with no
// actions is a policy decision, not a drop, and is counted by its rule.
type DropReason uint8

// Drop reasons, in the order the dataplane can hit them.
const (
	DropNoMatch  DropReason = iota // table miss with no controller ever attached
	DropNoPort                     // matched rule output to a detached port
	DropCtrlDown                   // table miss while fail-open (controller channel down)

	// NumDropReasons bounds per-reason counter arrays.
	NumDropReasons = 3
)

// String is the reason's metric label.
func (r DropReason) String() string {
	switch r {
	case DropNoMatch:
		return "no_match"
	case DropNoPort:
		return "no_port"
	case DropCtrlDown:
		return "ctrl_down"
	}
	return "unknown"
}

type port struct {
	out     func(frame []byte)
	rxPkts  atomic.Uint64
	rxBytes atomic.Uint64
	txPkts  atomic.Uint64
	txBytes atomic.Uint64
	// drops attributes dropped frames to the ingress port they arrived on,
	// indexed by DropReason.
	drops [NumDropReasons]atomic.Uint64
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

	// failOpen is set once RunController owns the controller channel: from
	// then on a table miss with no attached controller means the channel is
	// down and the switch is running fail-open on its installed table
	// (DropCtrlDown), not that a controller was never configured
	// (DropNoMatch).
	failOpen atomic.Bool

	// Intrusive counters: always live (an atomic add each), surfaced to a
	// telemetry registry only when EnableTelemetry adopts them, so the
	// Inject hot path is identical with and without a registry.
	dropped    [NumDropReasons]telemetry.Counter // indexed by DropReason
	matched    telemetry.Counter
	missed     telemetry.Counter
	packetIns  telemetry.Counter
	packetOuts telemetry.Counter

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

// DroppedByReason returns the switch-wide drop totals indexed by
// DropReason: the counters EnableTelemetry exposes as
// sdx_dataplane_dropped_total.
func (s *Switch) DroppedByReason() [NumDropReasons]uint64 {
	var out [NumDropReasons]uint64
	for r := range s.dropped {
		out[r] = s.dropped[r].Value()
	}
	return out
}

// PortDrops returns the per-reason counts of drops attributed to frames
// that entered on portNo (indexed by DropReason), and whether the port is
// attached.
func (s *Switch) PortDrops(portNo uint16) ([NumDropReasons]uint64, bool) {
	var out [NumDropReasons]uint64
	p, ok := s.portMap()[portNo]
	if !ok {
		return out, false
	}
	for r := range p.drops {
		out[r] = p.drops[r].Load()
	}
	return out, true
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
			for r := DropReason(0); r < NumDropReasons; r++ {
				emit([]string{r.String()}, float64(counts[r]))
			}
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
				for r := DropReason(0); r < NumDropReasons; r++ {
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
		"Table writes that invalidated every cached slot: a rule without a dst MAC, a wildcard delete, or a clear (writes naming only dst MACs invalidate just those MACs' flows).",
		func() float64 { return float64(s.Table.CacheStats().Invalidations) })
	reg.GaugeFunc("sdx_dataplane_cache_entries",
		"Microflow-cache slots currently valid.",
		func() float64 { micro, _ := s.Table.CacheOccupancy(); return float64(micro) })
	reg.CounterFunc("sdx_dataplane_megaflow_hits_total",
		"Lookups answered lock-free by the wildcard megaflow cache.",
		func() float64 { return float64(s.Table.CacheStats().MegaflowHits) })
	reg.GaugeFunc("sdx_dataplane_megaflow_masks",
		"Distinct wildcard masks tracked by the megaflow cache.",
		func() float64 { return float64(s.Table.CacheStats().MegaflowMasks) })
	reg.GaugeFunc("sdx_dataplane_megaflow_entries",
		"Megaflow-cache slots currently valid.",
		func() float64 { _, mega := s.Table.CacheOccupancy(); return float64(mega) })
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
// ingress port. Matching, counters and drops are per frame, but the batch
// amortizes the fixed costs: ingress counters bump once per chunk and the
// table resolves all lookups with at most one lock acquisition.
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

// frameCtx carries one frame's ingress through the action pipeline: punt
// and flood need the port number, and the drop sink charges the port. It
// lives on processBatch's stack — nothing below may retain the pointer.
type frameCtx struct {
	ingress *port // nil for controller PACKET_OUTs on unattached ports
	inPort  uint16
}

// processBatch runs one chunk of InjectBatch: decode every frame into the
// scratch arenas, resolve all lookups in one LookupBatch call, then walk the
// frames applying actions. Aggregate counters (rx, matched, missed) bump
// once per chunk.
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
	for i, frame := range frames {
		rxBytes += uint64(len(frame))
		pkt, err := decs[i].Decode(frame)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("dataplane: undecodable frame on port %d: %w", inPort, err)
			}
			sizes[i] = -1 // skip slot: no lookup, no counters
			continue
		}
		keys[i] = toPolicyPacket(inPort, pkt)
		sizes[i] = len(frame)
	}
	ingress.rxPkts.Add(uint64(n))
	ingress.rxBytes.Add(rxBytes)

	s.Table.LookupBatch(keys, sizes, entries)

	ctx := frameCtx{ingress: ingress, inPort: inPort}
	var matched, missed uint64
	for i, frame := range frames {
		if sizes[i] < 0 {
			continue
		}
		e := entries[i]
		if e == nil {
			missed++
			s.punt(frame, &ctx)
			continue
		}
		matched++
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

// applyActions executes an OpenFlow action list on a frame pkt was decoded
// from. A set-field patches the field's bytes (and the checksums covering
// it) in a private copy of the frame, so every byte no action names leaves
// as it arrived. An output emits the current bytes; the next set-field
// copies them again, so a buffer once handed to a sink is never written —
// and an output-only list (or every port of a flood) emits without copying.
func (s *Switch) applyActions(actions []openflow.Action, pkt *packet.Packet, frame []byte, ctx *frameCtx) {
	owned := false // frame is a private copy no sink has seen
	for _, a := range actions {
		switch a.Type {
		case openflow.ActionTypeOutput:
			owned = false
			switch a.Port {
			case openflow.PortController:
				s.punt(frame, ctx)
			case openflow.PortFlood:
				s.flood(frame, ctx)
			default:
				s.emit(a.Port, frame, ctx)
			}
			continue
		case openflow.ActionTypeGroup:
			owned = false
			s.replicate(a.Ports, frame, ctx)
			continue
		}
		if !owned {
			frame, owned = append([]byte(nil), frame...), true
		}
		switch a.Type {
		case openflow.ActionTypeSetDLSrc:
			packet.PatchEthSrc(frame, a.MAC)
		case openflow.ActionTypeSetDLDst:
			packet.PatchEthDst(frame, a.MAC)
		case openflow.ActionTypeSetNWSrc, openflow.ActionTypeSetNWDst:
			pkt.PatchIPv4Addr(frame, a.Type == openflow.ActionTypeSetNWDst, a.IP.Addr())
		case openflow.ActionTypeSetTPSrc, openflow.ActionTypeSetTPDst:
			pkt.PatchL4Port(frame, a.Type == openflow.ActionTypeSetTPDst, a.TP)
		}
	}
}

func (s *Switch) emit(portNo uint16, frame []byte, ctx *frameCtx) {
	p, ok := s.portMap()[portNo]
	if !ok {
		s.dropFrame(DropNoPort, ctx)
		return
	}
	s.emitPort(p, frame)
}

func (s *Switch) emitPort(p *port, frame []byte) {
	p.txPkts.Add(1)
	p.txBytes.Add(uint64(len(frame)))
	p.out(frame)
}

// flood emits the frame on every attached port except the ingress, in
// ascending port order — run-to-run deterministic so e2e packet captures
// are comparable. The port-table snapshot is lock-free; its sorted slice is
// iterated directly.
func (s *Switch) flood(frame []byte, ctx *frameCtx) {
	t := s.ports.Load()
	for _, n := range t.sorted {
		if n != ctx.inPort {
			s.emitPort(t.byNum[n], frame)
		}
	}
}

// replicate emits the frame to every port of a group action, in the
// action's ascending member order. Unlike flood it does not exclude the
// ingress — a group action is exactly equivalent to that many consecutive
// outputs; source exclusion is the compiler's business.
func (s *Switch) replicate(ports []uint16, frame []byte, ctx *frameCtx) {
	for _, n := range ports {
		s.emit(n, frame, ctx)
	}
}

// dropFrame is the single drop sink: it bumps the switch-wide reason
// counter and attributes the drop to the frame's ingress port.
func (s *Switch) dropFrame(reason DropReason, ctx *frameCtx) {
	s.dropped[reason].Inc()
	if ctx.ingress != nil {
		ctx.ingress.drops[reason].Add(1)
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
		reason := DropNoMatch
		if s.failOpen.Load() {
			reason = DropCtrlDown
		}
		s.dropFrame(reason, ctx)
		return
	}
	s.packetIns.Inc()
	send(&openflow.PacketIn{
		BufferID: 0xffffffff,
		InPort:   ctx.inPort,
		Reason:   openflow.ReasonNoMatch,
		Data:     frame,
	})
}

// InstallFlowMods applies a sequence of flow modifications in order. It is
// the switch's one FLOW_MOD applier: ServeController, Fabric.InstallGlobal
// and in-process installers all write the table through it. Runs of
// consecutive adds/modifies coalesce into single AddBatch table operations,
// so a run takes the table lock and invalidates the caches once instead of
// per rule. Deletes apply one at a time; a strict delete touches one entry.
// Neither fms nor the batch slice outlives the call: AddBatch keeps the
// entries, not the slice, so the batch is reused across runs.
func (s *Switch) InstallFlowMods(fms []*openflow.FlowMod) error {
	var batch []*FlowEntry
	flush := func() {
		s.Table.AddBatch(batch)
		clear(batch)
		batch = batch[:0]
	}
	defer flush()
	for _, fm := range fms {
		switch fm.Command {
		case openflow.FlowModAdd, openflow.FlowModModify:
			batch = append(batch, &FlowEntry{
				Match:    fm.Match.ToPolicy(),
				Priority: fm.Priority,
				Actions:  fm.Actions,
				Cookie:   fm.Cookie,
			})
		case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
			flush()
			s.Table.Delete(fm.Match.ToPolicy(), fm.Priority, fm.Command == openflow.FlowModDeleteStrict)
		default:
			return fmt.Errorf("dataplane: unsupported flow-mod command %d", fm.Command)
		}
	}
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
	// The ingress may be nil (a controller-synthesized port); drops still
	// count switch-wide.
	ctx := frameCtx{ingress: s.portMap()[po.InPort], inPort: po.InPort}
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
