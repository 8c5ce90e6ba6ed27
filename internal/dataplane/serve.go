package dataplane

import (
	"fmt"
	"net"
	"sync"

	"sdx/internal/openflow"
)

// ServeController attaches the switch to a controller over an established
// transport connection: it performs the OpenFlow handshake, forwards
// table-miss frames as PACKET_INs, and applies FLOW_MODs and PACKET_OUTs
// until the connection fails or the switch is detached. It blocks; run it
// on its own goroutine.
func (s *Switch) ServeController(conn net.Conn) error {
	oc := openflow.NewConn(conn)
	s.mu.RLock()
	oc.SetMetrics(s.ofMetrics)
	s.mu.RUnlock()
	if err := oc.HandshakeSwitch(openflow.FeaturesReply{
		DatapathID: s.DatapathID,
		NumPorts:   uint16(s.NumPorts()),
	}); err != nil {
		return err
	}

	var sendMu sync.Mutex
	gen := s.attachController(func(pi *openflow.PacketIn) {
		sendMu.Lock()
		defer sendMu.Unlock()
		b, err := openflow.EncodePacketIn(pi, oc.NextXID())
		if err != nil {
			return // a frame too long for one PACKET_IN is not punted
		}
		if err := oc.Send(b); err != nil {
			// The control channel is dead: the failed write was counted by
			// the connection's send-error metric, and closing the transport
			// makes the Recv loop below unwind so a reconnect loop can dial
			// a fresh controller instead of punting into a black hole.
			oc.Close()
		}
	}, func() { oc.Close() })
	defer func() {
		// Clear the delivery function only if this connection still owns it:
		// a newer controller may have attached while this one was dying, and
		// clobbering its registration would silently re-enter headless mode.
		s.detachController(gen)
		oc.Close()
	}()

	// Every FLOW_MOD goes through InstallFlowMods. Consecutive adds and
	// modifies are held and applied as one batch; a delete, and any other
	// message (a barrier above all — the fence every installer in this repo
	// sends after a table push), applies the held ones first, so a
	// BARRIER_REQUEST or STATS_REQUEST is answered only after every earlier
	// FLOW_MOD is in the table.
	var pending []*openflow.FlowMod
	flush := func() error {
		err := s.InstallFlowMods(pending)
		clear(pending)
		pending = pending[:0]
		return err
	}
	// Only adds and modifies are held, and applying them cannot fail.
	defer func() { _ = flush() }()

	for {
		msg, err := oc.Recv()
		if err != nil {
			return err
		}
		if msg.Type == openflow.TypeFlowMod {
			fm, err := msg.DecodeFlowMod()
			if err != nil {
				return err
			}
			pending = append(pending, fm)
			if fm.Command == openflow.FlowModAdd || fm.Command == openflow.FlowModModify {
				continue
			}
		}
		if err := flush(); err != nil {
			return err
		}
		switch msg.Type {
		case openflow.TypeFlowMod:
			// applied by the flush above
		case openflow.TypePacketOut:
			po, err := msg.DecodePacketOut()
			if err != nil {
				return err
			}
			if err := s.ExecutePacketOut(po); err != nil {
				// A malformed injected frame is the controller's bug, not a
				// reason to kill the channel.
				continue
			}
		case openflow.TypeStatsRequest:
			reply, err := s.statsReply(msg)
			if err != nil {
				return err
			}
			sendMu.Lock()
			err = oc.Send(reply)
			sendMu.Unlock()
			if err != nil {
				return err
			}
		case openflow.TypeBarrierRequest:
			// The switch applies messages synchronously, so the barrier is
			// trivially satisfied.
			sendMu.Lock()
			err := oc.SendMessage(openflow.TypeBarrierReply, msg.XID, nil)
			sendMu.Unlock()
			if err != nil {
				return err
			}
		case openflow.TypeEchoRequest:
			sendMu.Lock()
			err := oc.SendMessage(openflow.TypeEchoReply, msg.XID, msg.Body)
			sendMu.Unlock()
			if err != nil {
				return err
			}
		case openflow.TypeHello, openflow.TypeEchoReply, openflow.TypeBarrierReply:
			// ignorable in steady state
		default:
			return fmt.Errorf("dataplane: unexpected %v from controller", msg.Type)
		}
	}
}

// statsReply answers a STATS_REQUEST, dispatching on the stats subtype:
// flow stats dump the table counters, port stats dump the per-port RX/TX
// counters the telemetry layer also exports.
func (s *Switch) statsReply(msg *openflow.Message) ([]byte, error) {
	st, err := msg.StatsType()
	if err != nil {
		return nil, err
	}
	switch st {
	case openflow.StatsTypePort:
		req, err := msg.DecodePortStatsRequest()
		if err != nil {
			return nil, err
		}
		entries := s.PortStatsEntries()
		if req.PortNo != openflow.PortNone {
			filtered := entries[:0]
			for _, e := range entries {
				if e.PortNo == req.PortNo {
					filtered = append(filtered, e)
				}
			}
			entries = filtered
		}
		return openflow.EncodePortStatsReply(entries, msg.XID), nil
	default:
		req, err := msg.DecodeFlowStatsRequest()
		if err != nil {
			return nil, err
		}
		var entries []openflow.FlowStatsEntry
		for _, e := range s.Table.Entries() {
			if !req.Match.ToPolicy().Subsumes(e.Match) {
				continue
			}
			entries = append(entries, openflow.FlowStatsEntry{
				Match:    openflow.MatchFromPolicy(e.Match),
				Priority: e.Priority,
				Packets:  e.Packets,
				Bytes:    e.Bytes,
				Actions:  e.Actions,
			})
		}
		return openflow.EncodeFlowStatsReply(entries, msg.XID)
	}
}

// AttachController wires the switch's table-miss path to an in-process
// callback instead of an OpenFlow connection. The controller embedding the
// switch in the same process (as the benchmarks and examples do) uses this
// to avoid the socket round trip while exercising identical table logic.
func (s *Switch) AttachController(handler func(*openflow.PacketIn)) {
	s.attachController(handler, nil)
}

// attachController installs the controller delivery function, returning the
// generation token detachController requires. A previously attached
// connection is deliberately displaced: its closer is invoked so its serve
// loop unwinds — the fresh connection wins, mirroring how the BGP speaker
// resolves a reconnect from the same identifier.
func (s *Switch) attachController(send func(*openflow.PacketIn), closer func()) uint64 {
	s.mu.Lock()
	displaced := s.ctrlClose
	attached := s.onCtrlAttach
	s.ctrlGen++
	gen := s.ctrlGen
	s.toController = send
	s.ctrlClose = closer
	s.mu.Unlock()
	if send != nil {
		s.ctrlConnected.Set(1)
		if attached != nil {
			attached()
		}
	} else {
		s.ctrlConnected.Set(0)
	}
	if displaced != nil {
		displaced()
	}
	return gen
}

// detachController clears the delivery function, but only if gen still names
// the attached controller — a stale connection must not tear down its
// replacement.
func (s *Switch) detachController(gen uint64) {
	s.mu.Lock()
	if s.ctrlGen != gen {
		s.mu.Unlock()
		return
	}
	s.toController = nil
	s.ctrlClose = nil
	s.mu.Unlock()
	s.ctrlConnected.Set(0)
}

// controllerGen reports the current attach generation; the reconnect loop
// compares it across a ServeController call to learn whether the handshake
// completed.
func (s *Switch) controllerGen() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ctrlGen
}
