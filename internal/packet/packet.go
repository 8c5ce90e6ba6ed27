package packet

import (
	"fmt"
	"net/netip"

	"sdx/internal/netutil"
)

// Packet is a fully decoded frame: the layers present plus the raw payload
// of the innermost decoded layer. Absent layers are nil.
type Packet struct {
	Eth     Ethernet
	ARP     *ARP
	IPv4    *IPv4
	TCP     *TCP
	UDP     *UDP
	Payload []byte
}

// Decode parses an Ethernet frame and as much of the stack above it as the
// package understands. Unknown EtherTypes and IP protocols are not errors:
// the remaining bytes land in Payload, mirroring gopacket's lazy tolerance
// so the fabric can still switch frames it cannot fully parse. An IPv4
// fragment's transport header is never parsed (only the first fragment
// holds one, and only whole), so its payload is the fragment's IP payload.
// The result aliases data and a scratch private to this call.
func Decode(data []byte) (*Packet, error) {
	return new(Scratch).Decode(data)
}

// Scratch is a reusable decode arena: one Packet plus one instance of every
// optional layer, so Decode wires pointers into pre-allocated storage
// instead of the heap. A Scratch serves one decode at a time; the returned
// *Packet aliases the scratch (and the input buffer) and is valid until the
// next Decode on the same scratch.
type Scratch struct {
	pkt Packet
	arp ARP
	ip4 IPv4
	tcp TCP
	udp UDP
}

// Decode parses data like the package-level Decode but without allocating:
// layers land in the scratch's embedded storage.
func (s *Scratch) Decode(data []byte) (*Packet, error) {
	s.pkt = Packet{}
	if err := decodeInto(&s.pkt, &s.arp, &s.ip4, &s.tcp, &s.udp, data); err != nil {
		return nil, err
	}
	return &s.pkt, nil
}

// Packet returns the scratch's packet storage (the result of the last
// successful Decode).
func (s *Scratch) Packet() *Packet { return &s.pkt }

// decodeInto walks the layer stack, storing each decoded layer in the
// caller-provided slot. Layer DecodeFromBytes methods allocate nothing
// (their slices alias data), so callers supplying pre-allocated slots get a
// zero-allocation decode.
func decodeInto(p *Packet, arp *ARP, ip4 *IPv4, tcp *TCP, udp *UDP, data []byte) error {
	rest, err := p.Eth.DecodeFromBytes(data)
	if err != nil {
		return err
	}
	switch p.Eth.EtherType {
	case EtherTypeARP:
		if err := arp.DecodeFromBytes(rest); err != nil {
			return err
		}
		p.ARP = arp
	case EtherTypeIPv4:
		rest, err = ip4.DecodeFromBytes(rest)
		if err != nil {
			return err
		}
		p.IPv4 = ip4
		if ip4.IsFragment() {
			p.Payload = rest
			break
		}
		switch ip4.Protocol {
		case ProtoTCP:
			rest, err = tcp.DecodeFromBytes(rest)
			if err != nil {
				return err
			}
			p.TCP = tcp
		case ProtoUDP:
			rest, err = udp.DecodeFromBytes(rest)
			if err != nil {
				return err
			}
			p.UDP = udp
		}
		p.Payload = rest
	default:
		p.Payload = rest
	}
	return nil
}

// Serialize renders the packet to a wire image, computing lengths, the
// IPv4 header checksum, and the TCP/UDP pseudo-header checksums. It builds
// frames (ARP replies, test and benchmark traffic); it is not a rewrite
// path: only modeled fields survive it, so the fabric patches received
// frames in place instead (PatchEthDst and friends).
func (p *Packet) Serialize() []byte {
	hdr := p.Eth.SerializeTo(nil)
	switch {
	case p.ARP != nil:
		return p.ARP.SerializeTo(hdr)
	case p.IPv4 != nil:
		var inner []byte
		switch {
		case p.TCP != nil:
			inner = p.TCP.SerializeTo(nil, p.Payload, p.IPv4)
		case p.UDP != nil:
			inner = p.UDP.SerializeTo(nil, p.Payload, p.IPv4)
		default:
			inner = p.Payload
		}
		return p.IPv4.SerializeTo(hdr, inner)
	default:
		return append(hdr, p.Payload...)
	}
}

// SrcIP returns the IPv4 source, or the zero Addr when not IP.
func (p *Packet) SrcIP() netip.Addr {
	if p.IPv4 == nil {
		return netip.Addr{}
	}
	return p.IPv4.SrcIP
}

// DstIP returns the IPv4 destination, or the zero Addr when not IP.
func (p *Packet) DstIP() netip.Addr {
	if p.IPv4 == nil {
		return netip.Addr{}
	}
	return p.IPv4.DstIP
}

// SrcPort returns the transport source port, or 0 when not TCP/UDP.
func (p *Packet) SrcPort() uint16 {
	switch {
	case p.TCP != nil:
		return p.TCP.SrcPort
	case p.UDP != nil:
		return p.UDP.SrcPort
	}
	return 0
}

// DstPort returns the transport destination port, or 0 when not TCP/UDP.
func (p *Packet) DstPort() uint16 {
	switch {
	case p.TCP != nil:
		return p.TCP.DstPort
	case p.UDP != nil:
		return p.UDP.DstPort
	}
	return 0
}

// Protocol returns the IP protocol number, or 0 when not IP.
func (p *Packet) Protocol() uint8 {
	if p.IPv4 == nil {
		return 0
	}
	return p.IPv4.Protocol
}

// String summarizes the frame for logs and tests.
func (p *Packet) String() string {
	switch {
	case p.ARP != nil:
		op := "request"
		if p.ARP.Op == ARPReply {
			op = "reply"
		}
		return fmt.Sprintf("arp %s %v->%v who-has %v tell %v",
			op, p.Eth.SrcMAC, p.Eth.DstMAC, p.ARP.TargetIP, p.ARP.SenderIP)
	case p.TCP != nil:
		return fmt.Sprintf("tcp %v:%d->%v:%d", p.SrcIP(), p.TCP.SrcPort, p.DstIP(), p.TCP.DstPort)
	case p.UDP != nil:
		return fmt.Sprintf("udp %v:%d->%v:%d", p.SrcIP(), p.UDP.SrcPort, p.DstIP(), p.UDP.DstPort)
	case p.IPv4 != nil:
		return fmt.Sprintf("ip proto=%d %v->%v", p.IPv4.Protocol, p.SrcIP(), p.DstIP())
	default:
		return fmt.Sprintf("eth %v->%v type=%#04x", p.Eth.SrcMAC, p.Eth.DstMAC, p.Eth.EtherType)
	}
}

// NewUDP builds a complete UDP-in-IPv4-in-Ethernet packet, the workhorse of
// the deployment experiments (the paper's client sends 1 Mbps UDP flows).
func NewUDP(srcMAC, dstMAC netutil.MAC, srcIP, dstIP netip.Addr, srcPort, dstPort uint16, payload []byte) *Packet {
	return &Packet{
		Eth:     Ethernet{SrcMAC: srcMAC, DstMAC: dstMAC, EtherType: EtherTypeIPv4},
		IPv4:    &IPv4{TTL: 64, Protocol: ProtoUDP, SrcIP: srcIP, DstIP: dstIP},
		UDP:     &UDP{SrcPort: srcPort, DstPort: dstPort},
		Payload: payload,
	}
}

// NewTCP builds a complete TCP-in-IPv4-in-Ethernet packet.
func NewTCP(srcMAC, dstMAC netutil.MAC, srcIP, dstIP netip.Addr, srcPort, dstPort uint16, flags uint8, payload []byte) *Packet {
	return &Packet{
		Eth:     Ethernet{SrcMAC: srcMAC, DstMAC: dstMAC, EtherType: EtherTypeIPv4},
		IPv4:    &IPv4{TTL: 64, Protocol: ProtoTCP, SrcIP: srcIP, DstIP: dstIP},
		TCP:     &TCP{SrcPort: srcPort, DstPort: dstPort, Flags: flags},
		Payload: payload,
	}
}

// NewARPRequest builds a who-has query for target, sent from (mac, ip).
func NewARPRequest(mac netutil.MAC, ip, target netip.Addr) *Packet {
	return &Packet{
		Eth: Ethernet{SrcMAC: mac, DstMAC: netutil.BroadcastMAC, EtherType: EtherTypeARP},
		ARP: &ARP{Op: ARPRequest, SenderMAC: mac, SenderIP: ip, TargetIP: target},
	}
}

// NewARPReply builds the unicast answer to req claiming that ip is at mac.
func NewARPReply(req *ARP, mac netutil.MAC, ip netip.Addr) *Packet {
	return &Packet{
		Eth: Ethernet{SrcMAC: mac, DstMAC: req.SenderMAC, EtherType: EtherTypeARP},
		ARP: &ARP{
			Op:        ARPReply,
			SenderMAC: mac,
			SenderIP:  ip,
			TargetMAC: req.SenderMAC,
			TargetIP:  req.SenderIP,
		},
	}
}
