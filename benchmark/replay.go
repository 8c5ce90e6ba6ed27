package main

// Layer replay. Some layers sit behind Frontend and ServeController where
// the harness cannot put a span around them without editing the program. A
// traced run therefore records the inputs that crossed those layers during
// the measured phase — the UPDATEs the sender wrote, the rules the controller
// pushed, the bytes that went down the OpenFlow channel — and, after the
// clock has stopped, runs the same inputs through the layers' public
// functions with one span per layer. Replay spans are roots: they are not on
// any burst's blocking path, they say what each buried layer costs per
// operation on exactly this run's inputs.

import (
	"bytes"
	"net/netip"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/openflow"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
)

// replayBGP replays the sender's UPDATEs through the codec and a shadow
// route server loaded like the live one was before the measured phase:
// bgp.decode (DecodeAS4), routeserver.apply (ApplyUpdateTouched) and bgp.pack
// (PackUpdates + MarshalAS4 of the monitor's re-advertisements). Returns the
// mean number of touched prefixes per update.
func replayBGP(tr *tracer, sent []*bgp.Update, shadow *routeserver.Server, from, monitor routeserver.ID, peerAS uint32, peerID netip.Addr) float64 {
	if len(sent) == 0 {
		return 0
	}
	wire := make([][]byte, 0, len(sent))
	for _, u := range sent {
		if b, err := bgp.MarshalAS4(u); err == nil {
			wire = append(wire, b)
		}
	}
	decoded := make([]*bgp.Update, 0, len(wire))
	tr.timed("bgp.decode", len(wire), func() {
		for _, b := range wire {
			if m, err := bgp.DecodeAS4(b); err == nil {
				if u, ok := m.(*bgp.Update); ok {
					decoded = append(decoded, u)
				}
			}
		}
	})
	touched := make([][]netip.Prefix, len(decoded))
	total := 0
	tr.timed("routeserver.apply", len(decoded), func() {
		for i, u := range decoded {
			routes := make([]bgp.Route, len(u.NLRI))
			var attrs *bgp.PathAttrs
			if len(u.NLRI) > 0 {
				attrs = bgp.Intern(u.Attrs)
			}
			for j, p := range u.NLRI {
				routes[j] = bgp.Route{Prefix: p, Attrs: attrs, PeerAS: peerAS, PeerID: peerID}
			}
			touched[i], _ = shadow.ApplyUpdateTouched(from, u.Withdrawn, routes)
			total += len(touched[i])
		}
	})
	// What the frontend's emitter does for the monitor, per applied update.
	type emission struct {
		withdrawn []netip.Prefix
		adverts   []bgp.Advertisement
	}
	ems := make([]emission, len(touched))
	for i, ps := range touched {
		for _, p := range ps {
			if best, ok := shadow.BestFor(monitor, p); ok {
				ems[i].adverts = append(ems[i].adverts, bgp.Advertisement{Prefix: p, Attrs: *best.Attrs})
			} else {
				ems[i].withdrawn = append(ems[i].withdrawn, p)
			}
		}
	}
	out := 0
	id := tr.begin("bgp.pack", -1, -1)
	for _, e := range ems {
		msgs, err := bgp.PackUpdates(e.withdrawn, e.adverts)
		if err != nil {
			continue
		}
		for _, u := range msgs {
			if _, err := bgp.MarshalAS4(u); err == nil {
				out++
			}
		}
	}
	tr.end(id)
	tr.setOps(id, out)
	return float64(total) / float64(len(decoded))
}

// replayControl replays what the measured phase of a full-stack workload
// pushed: the sender's UPDATEs through the BGP layers, the controller's rule
// sets through core.flowmods (FlowModsForRules) and openflow.encode
// (EncodeFlowMod), and the captured OpenFlow byte stream through
// openflow.decode (ReadMessage + DecodeFlowMod) and dataplane.install
// (InstallFlowMods on a scratch switch, one batch per barrier).
func (s *stack) replayControl(sent []*bgp.Update, ruleSets [][]policy.Rule, top uint16) {
	if len(sent) > 0 {
		shadow := core.NewController(routeserver.New(nil), core.DefaultOptions())
		if err := s.ex.Populate(shadow); err == nil {
			m := s.ex.Members[senderMember]
			replayBGP(s.tr, sent, shadow.RouteServer(), m.ID, s.ex.Members[s.monitor.member].ID, m.AS, m.Ports[0].RouterIP)
		}
	}

	var fms [][]*openflow.FlowMod
	n := 0
	s.tr.timed("core.flowmods", len(ruleSets), func() {
		for _, rules := range ruleSets {
			if out, err := core.FlowModsForRules(rules, top); err == nil {
				fms = append(fms, out)
				n += len(out)
			}
		}
	})
	s.tr.timed("openflow.encode", n, func() {
		xid := uint32(0)
		for _, set := range fms {
			for _, fm := range set {
				xid++
				_ = openflow.EncodeFlowMod(fm, xid)
			}
		}
	})

	var batches [][]*openflow.FlowMod
	var batch []*openflow.FlowMod
	msgs := 0
	id := s.tr.begin("openflow.decode", -1, -1)
	for r := bytes.NewReader(s.of.writtenOnClock()); r.Len() > 0; {
		m, err := openflow.ReadMessage(r)
		if err != nil {
			break
		}
		msgs++
		switch m.Type {
		case openflow.TypeFlowMod:
			if fm, err := m.DecodeFlowMod(); err == nil {
				batch = append(batch, fm)
			}
		case openflow.TypeBarrierRequest:
			batches = append(batches, batch)
			batch = nil
		}
	}
	s.tr.end(id)
	s.tr.setOps(id, msgs)

	scratch := dataplane.NewSwitch(2)
	if fmsBase, err := core.FlowModsForRules(s.base.Rules, 0xefff); err == nil {
		_ = scratch.InstallFlowMods(fmsBase)
	}
	s.tr.timed("dataplane.install", len(batches), func() {
		for _, b := range batches {
			_ = scratch.InstallFlowMods(b)
		}
	})
}

// replayPolicyCompile times policy.compile (CompileWithOptions) on every
// participant policy the controller currently holds.
func (s *stack) replayPolicyCompile() {
	var pols []policy.Policy
	for _, id := range s.ctrl.Participants() {
		p, _ := s.ctrl.Participant(id)
		for _, pol := range []policy.Policy{p.Inbound, p.Outbound} {
			if pol != nil {
				pols = append(pols, pol)
			}
		}
	}
	opts := s.ctrl.Options().Compile
	s.tr.timed("policy.compile", len(pols), func() {
		for _, pol := range pols {
			policy.CompileWithOptions(pol, opts)
		}
	})
}
