package core

import (
	"fmt"
	"net"
	"sync"
	"time"

	"sdx/internal/openflow"
	"sdx/internal/policy"
	"sdx/internal/telemetry"
)

// flowKey identifies one flow-table entry the way the switch does: by exact
// match and priority. policy.Match is comparable, so the key doubles as a
// map key for the reconciliation diffs.
type flowKey struct {
	match    policy.Match
	priority uint16
}

func keyOf(fm *openflow.FlowMod) flowKey {
	return flowKey{match: fm.Match.ToPolicy(), priority: fm.Priority}
}

// SwitchServer owns the controller's fabric-facing side: the set of live
// switch channels and the one desired table they are converged to. It is
// what makes controller restarts and switch reconnects survivable — a
// (re)attaching switch is reconciled against the desired table instead of
// wiped, so traffic matched by still-correct rules never sees a window with
// an empty table (the paper's §5.1 degradation contract: the fabric keeps
// forwarding on the last-computed rules while the control plane catches up).
type SwitchServer struct {
	// HandlePacketIn services table-miss punts (typically
	// Controller.HandlePacketIn, the ARP responder). Nil drops them.
	HandlePacketIn func(*openflow.PacketIn) (*openflow.PacketOut, bool)
	// Metrics, when set, is attached to every switch connection.
	Metrics *openflow.Metrics
	// Logf, when set, receives connection-lifecycle and push-error lines.
	Logf func(format string, args ...any)

	// mu guards the switch set and the desired table, and serializes
	// pushes: a resync holds it across its stats round trip so a
	// concurrent SetBase cannot interleave adds with a stale delete set.
	mu       sync.Mutex
	switches map[*openflow.Conn]bool
	// desired is the last committed base band plus the quick-stage mods
	// pushed since, keyed by (match, priority): the table a reconnecting
	// switch must converge to, and the stale set a recompilation clears.
	desired map[flowKey]*openflow.FlowMod
	// committed records that a SetBase has happened; the first one wipes.
	committed bool

	// Intrusive instruments (always live; exported by NewSwitchServer when
	// a registry is supplied). The histogram is registry-owned, so Observe
	// is guarded by a nil check in the no-op mode.
	mResyncs       telemetry.Counter
	mResyncReplay  telemetry.Counter
	mResyncStale   telemetry.Counter
	mResyncDur     *telemetry.Histogram
	connectedGauge telemetry.Gauge
}

// NewSwitchServer returns an empty server and registers its reconciliation
// metrics with reg (nil for the no-op mode).
func NewSwitchServer(reg *telemetry.Registry) *SwitchServer {
	s := &SwitchServer{
		switches: make(map[*openflow.Conn]bool),
		desired:  make(map[flowKey]*openflow.FlowMod),
	}
	if reg != nil {
		reg.CounterFunc("sdx_core_resyncs_total",
			"Flow-table reconciliations performed on switch (re)attach.",
			func() float64 { return float64(s.mResyncs.Value()) })
		reg.CounterFunc("sdx_core_resync_replayed_rules_total",
			"Desired rules replayed to reattaching switches.",
			func() float64 { return float64(s.mResyncReplay.Value()) })
		reg.CounterFunc("sdx_core_resync_stale_rules_total",
			"Stale rules strict-deleted from reattaching switches.",
			func() float64 { return float64(s.mResyncStale.Value()) })
		s.mResyncDur = reg.Histogram("sdx_core_resync_duration_seconds",
			"Reconciliation round-trip time: stats dump to barrier reply.", nil)
		reg.GaugeFunc("sdx_core_switches_connected",
			"Fabric switches with a live OpenFlow channel.",
			func() float64 { return float64(s.connectedGauge.Value()) })
	}
	return s
}

func (s *SwitchServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Switches returns the number of live switch channels.
func (s *SwitchServer) Switches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.switches)
}

// SetBase commits a full compilation and pushes it to every live switch as
// a make-before-break diff: the new band's adds first (same-key entries are
// overwritten in place), then strict deletes for entries of the previous
// base and fast bands that the new table does not contain, then a barrier.
// Rules shared between the old and new tables are never absent from the
// switch, so established traffic keeps flowing through a recompilation. A
// full compilation subsumes the quick-stage band, so the new base band
// becomes the whole desired table.
func (s *SwitchServer) SetBase(res *CompileResult) error {
	fms, err := FlowModsForRules(res.Rules, fastPriority-1)
	if err != nil {
		return err
	}
	next := make(map[flowKey]*openflow.FlowMod, len(fms))
	for _, fm := range fms {
		next[keyOf(fm)] = fm
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Nothing committed before, so nothing worth preserving: the first push
	// is the wildcard delete (it clears rules installed by parties this
	// server never knew about) plus a diff against an empty table.
	wipe := !s.committed
	var stale []*openflow.FlowMod
	if !wipe {
		for k, fm := range s.desired {
			if _, ok := next[k]; !ok {
				stale = append(stale, fm)
			}
		}
	}
	s.desired, s.committed = next, true
	for conn := range s.switches {
		if _, err := pushDiff(conn, wipe, fms, stale); err != nil {
			// The connection's Serve loop owns teardown; the next attach
			// reconciles whatever state the switch was left with.
			s.logf("core: pushing base table: %v", err)
		}
	}
	return nil
}

// PushFastAll pushes a quick-stage result to every live switch and records
// its rules as part of the desired table.
func (s *SwitchServer) PushFastAll(res *FastPathResult) error {
	fms, err := FlowModsForRules(res.Rules, fastTop)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, fm := range fms {
		s.desired[keyOf(fm)] = fm
	}
	for conn := range s.switches {
		if _, err := pushDiff(conn, false, fms, nil); err != nil {
			s.logf("core: pushing fast rules: %v", err)
		}
	}
	return nil
}

// pushDiff is the only writer of FLOW_MODs to a switch. It sends the
// wildcard wipe (when asked), the adds, a strict delete for each stale
// entry's wire match and priority, and then one barrier, whose xid it
// returns.
func pushDiff(conn *openflow.Conn, wipe bool, adds, stale []*openflow.FlowMod) (uint32, error) {
	if wipe {
		if err := conn.SendFlowMod(&openflow.FlowMod{
			Match:   openflow.MatchFromPolicy(policy.MatchAll),
			Command: openflow.FlowModDelete,
		}); err != nil {
			return 0, err
		}
	}
	for _, fm := range adds {
		if err := conn.SendFlowMod(fm); err != nil {
			return 0, err
		}
	}
	for _, fm := range stale {
		if err := conn.SendFlowMod(&openflow.FlowMod{
			Match:    fm.Match,
			Priority: fm.Priority,
			Command:  openflow.FlowModDeleteStrict,
		}); err != nil {
			return 0, err
		}
	}
	return conn.SendBarrier()
}

// Serve owns one switch connection for its lifetime: handshake, flow-table
// reconciliation, then the PACKET_IN loop. It blocks; run it on its own
// goroutine. The connection is closed on return.
func (s *SwitchServer) Serve(raw net.Conn) error {
	return s.serveConn(openflow.NewConn(raw))
}

func (s *SwitchServer) serveConn(conn *openflow.Conn) error {
	conn.SetMetrics(s.Metrics)
	features, err := conn.HandshakeController()
	if err != nil {
		conn.Close()
		return fmt.Errorf("core: switch handshake: %w", err)
	}
	s.logf("core: switch connected: dpid %#x, %d ports", features.DatapathID, features.NumPorts)

	// Reconcile, then register — both under mu, so there is no window where
	// a SetBase could commit without reaching this switch: a commit racing
	// the resync waits on mu and then diff-pushes to the registered channel.
	s.mu.Lock()
	err = s.resyncLocked(conn)
	if err == nil {
		s.switches[conn] = true
	}
	s.mu.Unlock()
	if err != nil {
		conn.Close()
		return fmt.Errorf("core: resyncing dpid %#x: %w", features.DatapathID, err)
	}
	s.connectedGauge.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.switches, conn)
		s.mu.Unlock()
		s.connectedGauge.Add(-1)
		conn.Close()
		s.logf("core: switch %#x disconnected", features.DatapathID)
	}()

	for {
		msg, err := conn.Recv()
		if err != nil {
			return nil
		}
		if err := s.dispatch(conn, msg); err != nil {
			return err
		}
	}
}

// dispatch services one steady-state message from a switch.
func (s *SwitchServer) dispatch(conn *openflow.Conn, msg *openflow.Message) error {
	switch msg.Type {
	case openflow.TypePacketIn:
		pi, err := msg.DecodePacketIn()
		if err != nil {
			s.logf("core: bad packet-in: %v", err)
			return nil
		}
		if s.HandlePacketIn == nil {
			return nil
		}
		if po, ok := s.HandlePacketIn(pi); ok {
			if err := conn.SendPacketOut(po); err != nil {
				return err
			}
		}
	case openflow.TypeEchoRequest:
		if err := conn.Send(openflow.Encode(openflow.TypeEchoReply, msg.XID, msg.Body)); err != nil {
			return err
		}
	case openflow.TypeBarrierReply, openflow.TypeEchoReply, openflow.TypeStatsReply:
		// fences, liveness acknowledgements, and late stats parts
	default:
		s.logf("core: unexpected %v from switch", msg.Type)
	}
	return nil
}

// resyncLocked reconciles a (re)attaching switch's flow table with the
// desired table: dump the table via a flow-stats request, then one pushDiff
// that replays every desired rule (adds overwrite same-key entries, so
// divergent actions heal too) and strict-deletes the dumped entries the
// desired table does not contain. The add-before-delete order means a rule
// that is correct on both sides is never absent — forwarding on it
// continues throughout. The push's barrier is awaited, so the observed
// duration covers the switch actually applying the table.
func (s *SwitchServer) resyncLocked(conn *openflow.Conn) error {
	if !s.committed && len(s.desired) == 0 {
		return nil // nothing committed yet; the first SetBase seeds the switch
	}
	s.mResyncs.Inc()
	start := time.Now()

	xid, err := conn.RequestFlowStats(openflow.MatchFromPolicy(policy.MatchAll))
	if err != nil {
		return err
	}
	var have []openflow.FlowStatsEntry
	for {
		msg, err := conn.Recv()
		if err != nil {
			return err
		}
		if msg.Type == openflow.TypeStatsReply && msg.XID == xid {
			if have, err = msg.DecodeFlowStatsReply(); err != nil {
				return err
			}
			break
		}
		// The switch may punt table-miss frames mid-resync; service them so
		// ARP resolution is not starved by the reconciliation.
		if err := s.dispatch(conn, msg); err != nil {
			return err
		}
	}

	adds := make([]*openflow.FlowMod, 0, len(s.desired))
	for _, fm := range s.desired {
		adds = append(adds, fm)
	}
	// Stale entries are deleted by their dumped wire match, so a foreign
	// entry whose fields policy.Match cannot express is still removed
	// exactly.
	var stale []*openflow.FlowMod
	for _, e := range have {
		if _, ok := s.desired[flowKey{match: e.Match.ToPolicy(), priority: e.Priority}]; !ok {
			stale = append(stale, &openflow.FlowMod{Match: e.Match, Priority: e.Priority})
		}
	}
	bxid, err := pushDiff(conn, false, adds, stale)
	if err != nil {
		return err
	}
	s.mResyncReplay.Add(uint64(len(adds)))
	s.mResyncStale.Add(uint64(len(stale)))

	for {
		msg, err := conn.Recv()
		if err != nil {
			return err
		}
		if msg.Type == openflow.TypeBarrierReply && msg.XID == bxid {
			break
		}
		if err := s.dispatch(conn, msg); err != nil {
			return err
		}
	}
	if s.mResyncDur != nil {
		s.mResyncDur.Observe(time.Since(start).Seconds())
	}
	s.logf("core: resync complete: %d desired, %d stale deleted in %v",
		len(adds), len(stale), time.Since(start).Round(time.Millisecond))
	return nil
}
