package core

import (
	"net/netip"

	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/packet"
)

// ResolveARP answers an ARP request for the controller: virtual next hops
// resolve to their class's virtual MAC (the §4.2 control-plane signalling
// trick), and participant router addresses resolve to their real interface
// MACs (proxy-ARP convenience for the emulated deployments). Unknown
// targets, retired VNHs among them, return false. A VNH's VMAC is derived
// from the address itself, so answering is one pool lookup.
func (c *Controller) ResolveARP(target netip.Addr) (netutil.MAC, bool) {
	if c.pool.Allocated(target) {
		return vmacOf(c.pool, target), true
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, p := range c.participants {
		for _, port := range p.Ports {
			if port.RouterIP == target {
				return port.MAC, true
			}
		}
	}
	return netutil.MAC{}, false
}

// HandlePacketIn processes a table-miss frame from the fabric. ARP requests
// the controller can answer produce a PACKET_OUT reply on the ingress port;
// everything else is dropped (the SDX never floods unknown traffic). The
// returned bool reports whether a reply was generated.
func (c *Controller) HandlePacketIn(pi *openflow.PacketIn) (*openflow.PacketOut, bool) {
	pkt, err := packet.Decode(pi.Data)
	if err != nil || pkt.ARP == nil || pkt.ARP.Op != packet.ARPRequest {
		return nil, false
	}
	mac, ok := c.ResolveARP(pkt.ARP.TargetIP)
	if !ok {
		return nil, false
	}
	reply := packet.NewARPReply(pkt.ARP, mac, pkt.ARP.TargetIP)
	return &openflow.PacketOut{
		InPort:  openflow.PortNone,
		Actions: []openflow.Action{openflow.Output(pi.InPort)},
		Data:    reply.Serialize(),
	}, true
}
