package policy

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"sdx/internal/netutil"
)

// Mods is a set of field rewrites applied to a packet as it is emitted:
// the action half of a classifier rule. The zero Mods is the identity.
// Like Match it has value semantics, is comparable and pointer-free, and
// holds IPv4 addresses only.
type Mods struct {
	set     uint16
	port    uint16
	srcMAC  netutil.MAC
	dstMAC  netutil.MAC
	ethType uint16
	srcPort uint16
	dstPort uint16
	proto   uint8
	srcIP   netutil.Addr4
	dstIP   netutil.Addr4
}

// Identity is the empty rewrite.
var Identity = Mods{}

func (d Mods) has(f Field) bool { return d.set&(1<<f) != 0 }

// IsIdentity reports whether d rewrites nothing.
func (d Mods) IsIdentity() bool { return d.set == 0 }

// SetPort rewrites the packet location (i.e. forwards out the given port).
func (d Mods) SetPort(p uint16) Mods { d.port, d.set = p, d.set|1<<FPort; return d }

// SetSrcMAC rewrites the Ethernet source address.
func (d Mods) SetSrcMAC(a netutil.MAC) Mods { d.srcMAC, d.set = a, d.set|1<<FSrcMAC; return d }

// SetDstMAC rewrites the Ethernet destination address.
func (d Mods) SetDstMAC(a netutil.MAC) Mods { d.dstMAC, d.set = a, d.set|1<<FDstMAC; return d }

// SetEthType rewrites the EtherType.
func (d Mods) SetEthType(t uint16) Mods { d.ethType, d.set = t, d.set|1<<FEthType; return d }

// SetSrcIP rewrites the IPv4 source address; a non-IPv4 one panics.
func (d Mods) SetSrcIP(a netip.Addr) Mods { return d.SetSrcIPv4(netutil.Addr4From(a)) }

// SetDstIP rewrites the IPv4 destination address; a non-IPv4 one panics.
func (d Mods) SetDstIP(a netip.Addr) Mods { return d.SetDstIPv4(netutil.Addr4From(a)) }

// SetSrcIPv4 is SetSrcIP for an address already in wire form.
func (d Mods) SetSrcIPv4(a netutil.Addr4) Mods { d.srcIP, d.set = a, d.set|1<<FSrcIP; return d }

// SetDstIPv4 is SetDstIP for an address already in wire form.
func (d Mods) SetDstIPv4(a netutil.Addr4) Mods { d.dstIP, d.set = a, d.set|1<<FDstIP; return d }

// SetProto rewrites the IP protocol number.
func (d Mods) SetProto(p uint8) Mods { d.proto, d.set = p, d.set|1<<FProto; return d }

// SetSrcPort rewrites the transport source port.
func (d Mods) SetSrcPort(p uint16) Mods { d.srcPort, d.set = p, d.set|1<<FSrcPort; return d }

// SetDstPort rewrites the transport destination port.
func (d Mods) SetDstPort(p uint16) Mods { d.dstPort, d.set = p, d.set|1<<FDstPort; return d }

// Apply returns pkt with d's rewrites applied.
func (d Mods) Apply(pkt Packet) Packet {
	if d.has(FPort) {
		pkt.Port = d.port
	}
	if d.has(FSrcMAC) {
		pkt.SrcMAC = d.srcMAC
	}
	if d.has(FDstMAC) {
		pkt.DstMAC = d.dstMAC
	}
	if d.has(FEthType) {
		pkt.EthType = d.ethType
	}
	if d.has(FSrcIP) {
		pkt.SrcIP = d.srcIP.Addr()
	}
	if d.has(FDstIP) {
		pkt.DstIP = d.dstIP.Addr()
	}
	if d.has(FProto) {
		pkt.Proto = d.proto
	}
	if d.has(FSrcPort) {
		pkt.SrcPort = d.srcPort
	}
	if d.has(FDstPort) {
		pkt.DstPort = d.dstPort
	}
	return pkt
}

// Then returns the rewrite equivalent to applying d first, then e: e's
// assignments override d's on overlapping fields.
func (d Mods) Then(e Mods) Mods {
	out := d
	for f := Field(0); f < numFields; f++ {
		if !e.has(f) {
			continue
		}
		switch f {
		case FPort:
			out.port = e.port
		case FSrcMAC:
			out.srcMAC = e.srcMAC
		case FDstMAC:
			out.dstMAC = e.dstMAC
		case FEthType:
			out.ethType = e.ethType
		case FSrcIP:
			out.srcIP = e.srcIP
		case FDstIP:
			out.dstIP = e.dstIP
		case FProto:
			out.proto = e.proto
		case FSrcPort:
			out.srcPort = e.srcPort
		case FDstPort:
			out.dstPort = e.dstPort
		}
		out.set |= 1 << f
	}
	return out
}

// GetPort returns the port rewrite, if any.
func (d Mods) GetPort() (uint16, bool) { return d.port, d.has(FPort) }

// GetDstMAC returns the destination MAC rewrite, if any.
func (d Mods) GetDstMAC() (netutil.MAC, bool) { return d.dstMAC, d.has(FDstMAC) }

// GetSrcMAC returns the source MAC rewrite, if any.
func (d Mods) GetSrcMAC() (netutil.MAC, bool) { return d.srcMAC, d.has(FSrcMAC) }

// GetDstIP returns the destination IP rewrite, if any.
func (d Mods) GetDstIP() (netutil.Addr4, bool) { return d.dstIP, d.has(FDstIP) }

// GetSrcIP returns the source IP rewrite, if any.
func (d Mods) GetSrcIP() (netutil.Addr4, bool) { return d.srcIP, d.has(FSrcIP) }

// GetDstPort returns the transport destination port rewrite, if any.
func (d Mods) GetDstPort() (uint16, bool) { return d.dstPort, d.has(FDstPort) }

// GetSrcPort returns the transport source port rewrite, if any.
func (d Mods) GetSrcPort() (uint16, bool) { return d.srcPort, d.has(FSrcPort) }

// String renders the rewrites, e.g. "port:=2,dstip:=74.125.224.161", or
// "id" for the identity.
func (d Mods) String() string {
	if d.IsIdentity() {
		return "id"
	}
	var parts []string
	add := func(f Field, v string) { parts = append(parts, fieldNames[f]+":="+v) }
	if d.has(FPort) {
		add(FPort, fmt.Sprint(d.port))
	}
	if d.has(FSrcMAC) {
		add(FSrcMAC, d.srcMAC.String())
	}
	if d.has(FDstMAC) {
		add(FDstMAC, d.dstMAC.String())
	}
	if d.has(FEthType) {
		add(FEthType, fmt.Sprintf("%#04x", d.ethType))
	}
	if d.has(FSrcIP) {
		add(FSrcIP, d.srcIP.String())
	}
	if d.has(FDstIP) {
		add(FDstIP, d.dstIP.String())
	}
	if d.has(FProto) {
		add(FProto, fmt.Sprint(d.proto))
	}
	if d.has(FSrcPort) {
		add(FSrcPort, fmt.Sprint(d.srcPort))
	}
	if d.has(FDstPort) {
		add(FDstPort, fmt.Sprint(d.dstPort))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
