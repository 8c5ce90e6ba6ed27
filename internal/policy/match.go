// Package policy implements the Pyretic-style policy language that SDX
// participants write their forwarding policies in, together with its
// compiler to prioritized match/action classifiers.
//
// A policy denotes a function from a located packet to a set of located
// packets (empty set = drop, singleton = forward, larger = multicast).
// Policies compose in parallel (Union, the paper's "+") and in sequence
// (Seq, the paper's ">>"), and compile to a Classifier: a priority-ordered
// rule list with OpenFlow-expressible matches and actions.
package policy

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"sdx/internal/netutil"
)

// Field identifies a matchable/modifiable header field of a located packet.
type Field uint8

// The field domain of the SDX fabric: packet location (port) plus the
// Ethernet, IPv4 and transport fields OpenFlow 1.0 can match.
const (
	FPort Field = iota // packet location: ingress port before, egress after fwd()
	FSrcMAC
	FDstMAC
	FEthType
	FSrcIP
	FDstIP
	FProto
	FSrcPort
	FDstPort
	numFields
)

var fieldNames = [numFields]string{
	"port", "srcmac", "dstmac", "ethtype", "srcip", "dstip", "proto", "srcport", "dstport",
}

func (f Field) String() string {
	if int(f) < len(fieldNames) {
		return fieldNames[f]
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

// Packet is the located-packet view the policy language operates on: the
// current location (Port) plus the matchable header fields. The data plane
// converts decoded frames to this form before table lookup.
type Packet struct {
	Port    uint16
	SrcMAC  netutil.MAC
	DstMAC  netutil.MAC
	EthType uint16
	SrcIP   netip.Addr
	DstIP   netip.Addr
	Proto   uint8
	SrcPort uint16
	DstPort uint16
}

// Match is a conjunction of per-field constraints; unset fields are
// wildcards. IP fields match by prefix, all others exactly. The zero Match
// matches every packet. Match has value semantics and is comparable, which
// the compiler exploits for memoization and duplicate elimination.
//
// Match is IPv4-only and pointer-free: each field is held at its OpenFlow
// 1.0 wire width, the IP prefixes as netutil.Prefix4, in 40 bytes. The
// compiler copies, hashes and compares matches by the million; the garbage
// collector never has to scan one. An IPv6 prefix cannot be expressed.
type Match struct {
	set     uint16 // bitmask indexed by Field
	port    uint16
	srcMAC  netutil.MAC
	dstMAC  netutil.MAC
	ethType uint16
	srcPort uint16
	dstPort uint16
	proto   uint8
	srcIP   netutil.Prefix4
	dstIP   netutil.Prefix4
}

// MatchAll is the empty constraint set: it matches every packet.
var MatchAll = Match{}

func (m Match) has(f Field) bool { return m.set&(1<<f) != 0 }

// Port returns a copy of m additionally constrained to the given location.
func (m Match) Port(p uint16) Match { m.port, m.set = p, m.set|1<<FPort; return m }

// SrcMAC constrains the Ethernet source address.
func (m Match) SrcMAC(a netutil.MAC) Match { m.srcMAC, m.set = a, m.set|1<<FSrcMAC; return m }

// DstMAC constrains the Ethernet destination address.
func (m Match) DstMAC(a netutil.MAC) Match { m.dstMAC, m.set = a, m.set|1<<FDstMAC; return m }

// EthType constrains the EtherType.
func (m Match) EthType(t uint16) Match { m.ethType, m.set = t, m.set|1<<FEthType; return m }

// SrcIP constrains the IPv4 source to a prefix; a non-IPv4 one panics.
func (m Match) SrcIP(p netip.Prefix) Match { return m.SrcIPv4(netutil.Prefix4From(p)) }

// DstIP constrains the IPv4 destination to a prefix; a non-IPv4 one panics.
func (m Match) DstIP(p netip.Prefix) Match { return m.DstIPv4(netutil.Prefix4From(p)) }

// SrcIPv4 is SrcIP for a prefix already in wire form.
func (m Match) SrcIPv4(p netutil.Prefix4) Match { m.srcIP, m.set = p, m.set|1<<FSrcIP; return m }

// DstIPv4 is DstIP for a prefix already in wire form.
func (m Match) DstIPv4(p netutil.Prefix4) Match { m.dstIP, m.set = p, m.set|1<<FDstIP; return m }

// Proto constrains the IP protocol number.
func (m Match) Proto(p uint8) Match { m.proto, m.set = p, m.set|1<<FProto; return m }

// SrcPort constrains the transport source port.
func (m Match) SrcPort(p uint16) Match { m.srcPort, m.set = p, m.set|1<<FSrcPort; return m }

// DstPort constrains the transport destination port.
func (m Match) DstPort(p uint16) Match { m.dstPort, m.set = p, m.set|1<<FDstPort; return m }

// IsAll reports whether m is unconstrained (matches everything).
func (m Match) IsAll() bool { return m.set == 0 }

// FieldSet returns the constrained fields as a bitmask of 1<<Field bits.
// The dataplane's megaflow cache unions these masks across every rule a
// classification examined to derive the wildcard cache key.
func (m Match) FieldSet() uint16 { return m.set }

// Fields returns the number of constrained fields, a proxy for TCAM width
// pressure used by the evaluation harness.
func (m Match) Fields() int {
	n := 0
	for f := Field(0); f < numFields; f++ {
		if m.has(f) {
			n++
		}
	}
	return n
}

// Covers reports whether packet pkt satisfies every constraint of m.
func (m Match) Covers(pkt Packet) bool {
	if m.has(FPort) && m.port != pkt.Port {
		return false
	}
	if m.has(FSrcMAC) && m.srcMAC != pkt.SrcMAC {
		return false
	}
	if m.has(FDstMAC) && m.dstMAC != pkt.DstMAC {
		return false
	}
	if m.has(FEthType) && m.ethType != pkt.EthType {
		return false
	}
	if m.has(FSrcIP) && !containsIP(m.srcIP, pkt.SrcIP) {
		return false
	}
	if m.has(FDstIP) && !containsIP(m.dstIP, pkt.DstIP) {
		return false
	}
	if m.has(FProto) && m.proto != pkt.Proto {
		return false
	}
	if m.has(FSrcPort) && m.srcPort != pkt.SrcPort {
		return false
	}
	if m.has(FDstPort) && m.dstPort != pkt.DstPort {
		return false
	}
	return true
}

// Intersect returns the conjunction of m and o. ok is false when the
// conjunction is unsatisfiable (the matches are disjoint).
func (m Match) Intersect(o Match) (Match, bool) {
	out := m
	for f := Field(0); f < numFields; f++ {
		if !o.has(f) {
			continue
		}
		if !out.has(f) {
			out = out.copyField(o, f)
			continue
		}
		switch f {
		case FSrcIP, FDstIP:
			a, b := out.prefix(f), o.prefix(f)
			switch {
			case a.Covers(b):
				out = out.copyField(o, f) // b is the narrower prefix
			case b.Covers(a):
				// a already narrower; keep
			default:
				return Match{}, false
			}
		default:
			if !m.exactEqual(o, f) {
				return Match{}, false
			}
		}
	}
	return out, true
}

// Subsumes reports whether every packet matched by o is matched by m.
func (m Match) Subsumes(o Match) bool {
	for f := Field(0); f < numFields; f++ {
		if !m.has(f) {
			continue
		}
		if !o.has(f) {
			return false
		}
		switch f {
		case FSrcIP, FDstIP:
			if !m.prefix(f).Covers(o.prefix(f)) {
				return false
			}
		default:
			if !m.exactEqual(o, f) {
				return false
			}
		}
	}
	return true
}

// Disjoint reports whether no packet can match both m and o.
func (m Match) Disjoint(o Match) bool {
	_, ok := m.Intersect(o)
	return !ok
}

// containsIP reports whether a is an IPv4 address inside p.
func containsIP(p netutil.Prefix4, a netip.Addr) bool {
	return a.Is4() && p.Contains(netutil.Addr4From(a))
}

func (m Match) prefix(f Field) netutil.Prefix4 {
	if f == FSrcIP {
		return m.srcIP
	}
	return m.dstIP
}

func (m Match) copyField(o Match, f Field) Match {
	switch f {
	case FPort:
		m.port = o.port
	case FSrcMAC:
		m.srcMAC = o.srcMAC
	case FDstMAC:
		m.dstMAC = o.dstMAC
	case FEthType:
		m.ethType = o.ethType
	case FSrcIP:
		m.srcIP = o.srcIP
	case FDstIP:
		m.dstIP = o.dstIP
	case FProto:
		m.proto = o.proto
	case FSrcPort:
		m.srcPort = o.srcPort
	case FDstPort:
		m.dstPort = o.dstPort
	}
	m.set |= 1 << f
	return m
}

func (m Match) exactEqual(o Match, f Field) bool {
	switch f {
	case FPort:
		return m.port == o.port
	case FSrcMAC:
		return m.srcMAC == o.srcMAC
	case FDstMAC:
		return m.dstMAC == o.dstMAC
	case FEthType:
		return m.ethType == o.ethType
	case FProto:
		return m.proto == o.proto
	case FSrcPort:
		return m.srcPort == o.srcPort
	case FDstPort:
		return m.dstPort == o.dstPort
	}
	return false
}

// acceptsValue reports whether field f of m, if constrained, accepts the
// concrete value carried in mods (used by sequential composition to decide
// whether a rewrite satisfies a downstream match).
func (m Match) acceptsMod(mods Mods, f Field) bool {
	if !m.has(f) {
		return true
	}
	switch f {
	case FPort:
		return m.port == mods.port
	case FSrcMAC:
		return m.srcMAC == mods.srcMAC
	case FDstMAC:
		return m.dstMAC == mods.dstMAC
	case FEthType:
		return m.ethType == mods.ethType
	case FSrcIP:
		return m.srcIP.Contains(mods.srcIP)
	case FDstIP:
		return m.dstIP.Contains(mods.dstIP)
	case FProto:
		return m.proto == mods.proto
	case FSrcPort:
		return m.srcPort == mods.srcPort
	case FDstPort:
		return m.dstPort == mods.dstPort
	}
	return false
}

// without returns m with the constraint on f removed.
func (m Match) without(f Field) Match {
	m.set &^= 1 << f
	// Zero the cleared slot so that Match equality keeps working as a
	// canonical form.
	switch f {
	case FPort:
		m.port = 0
	case FSrcMAC:
		m.srcMAC = netutil.MAC{}
	case FDstMAC:
		m.dstMAC = netutil.MAC{}
	case FEthType:
		m.ethType = 0
	case FSrcIP:
		m.srcIP = 0
	case FDstIP:
		m.dstIP = 0
	case FProto:
		m.proto = 0
	case FSrcPort:
		m.srcPort = 0
	case FDstPort:
		m.dstPort = 0
	}
	return m
}

// String renders the constraints in field order, e.g.
// "port=3,dstip=10.0.0.0/8,dstport=80", or "*" for MatchAll.
func (m Match) String() string {
	if m.IsAll() {
		return "*"
	}
	var parts []string
	add := func(f Field, v string) { parts = append(parts, fieldNames[f]+"="+v) }
	if m.has(FPort) {
		add(FPort, fmt.Sprint(m.port))
	}
	if m.has(FSrcMAC) {
		add(FSrcMAC, m.srcMAC.String())
	}
	if m.has(FDstMAC) {
		add(FDstMAC, m.dstMAC.String())
	}
	if m.has(FEthType) {
		add(FEthType, fmt.Sprintf("%#04x", m.ethType))
	}
	if m.has(FSrcIP) {
		add(FSrcIP, m.srcIP.String())
	}
	if m.has(FDstIP) {
		add(FDstIP, m.dstIP.String())
	}
	if m.has(FProto) {
		add(FProto, fmt.Sprint(m.proto))
	}
	if m.has(FSrcPort) {
		add(FSrcPort, fmt.Sprint(m.srcPort))
	}
	if m.has(FDstPort) {
		add(FDstPort, fmt.Sprint(m.dstPort))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// GetPort returns the port constraint, if any.
func (m Match) GetPort() (uint16, bool) { return m.port, m.has(FPort) }

// GetDstMAC returns the destination MAC constraint, if any.
func (m Match) GetDstMAC() (netutil.MAC, bool) { return m.dstMAC, m.has(FDstMAC) }

// GetSrcMAC returns the source MAC constraint, if any.
func (m Match) GetSrcMAC() (netutil.MAC, bool) { return m.srcMAC, m.has(FSrcMAC) }

// GetDstIP returns the destination prefix constraint, if any.
func (m Match) GetDstIP() (netutil.Prefix4, bool) { return m.dstIP, m.has(FDstIP) }

// GetSrcIP returns the source prefix constraint, if any.
func (m Match) GetSrcIP() (netutil.Prefix4, bool) { return m.srcIP, m.has(FSrcIP) }

// GetEthType returns the EtherType constraint, if any.
func (m Match) GetEthType() (uint16, bool) { return m.ethType, m.has(FEthType) }

// GetProto returns the IP protocol constraint, if any.
func (m Match) GetProto() (uint8, bool) { return m.proto, m.has(FProto) }

// GetSrcPort returns the transport source port constraint, if any.
func (m Match) GetSrcPort() (uint16, bool) { return m.srcPort, m.has(FSrcPort) }

// GetDstPort returns the transport destination port constraint, if any.
func (m Match) GetDstPort() (uint16, bool) { return m.dstPort, m.has(FDstPort) }
