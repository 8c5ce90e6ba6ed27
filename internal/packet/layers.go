// Package packet implements decoding and serialization for the protocol
// layers the SDX fabric forwards: Ethernet, ARP, IPv4, TCP, and UDP.
//
// The API follows the gopacket idiom: each layer type has DecodeFromBytes
// to parse a wire image and SerializeTo to append a wire image, and Decode
// walks the layer stack. Only the fields the SDX data plane can match or
// rewrite are modeled; the fabric rewrites a frame by patching its bytes
// (patch.go), never by re-serializing it.
package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"sdx/internal/netutil"
)

// EtherType values understood by the fabric.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// IP protocol numbers understood by the fabric.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// Ethernet is the 14-byte Ethernet II header.
type Ethernet struct {
	DstMAC    netutil.MAC
	SrcMAC    netutil.MAC
	EtherType uint16
}

// DecodeFromBytes parses the header and returns the payload.
func (e *Ethernet) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < 14 {
		return nil, fmt.Errorf("packet: ethernet header truncated: %d bytes", len(data))
	}
	copy(e.DstMAC[:], data[0:6])
	copy(e.SrcMAC[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	return data[14:], nil
}

// SerializeTo appends the wire form to b.
func (e *Ethernet) SerializeTo(b []byte) []byte {
	b = append(b, e.DstMAC[:]...)
	b = append(b, e.SrcMAC[:]...)
	return binary.BigEndian.AppendUint16(b, e.EtherType)
}

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARP is an Ethernet/IPv4 ARP message.
type ARP struct {
	Op        uint16
	SenderMAC netutil.MAC
	SenderIP  netip.Addr
	TargetMAC netutil.MAC
	TargetIP  netip.Addr
}

// DecodeFromBytes parses an ARP body (after the Ethernet header).
func (a *ARP) DecodeFromBytes(data []byte) error {
	if len(data) < 28 {
		return fmt.Errorf("packet: arp truncated: %d bytes", len(data))
	}
	htype := binary.BigEndian.Uint16(data[0:2])
	ptype := binary.BigEndian.Uint16(data[2:4])
	if htype != 1 || ptype != EtherTypeIPv4 || data[4] != 6 || data[5] != 4 {
		return fmt.Errorf("packet: unsupported arp htype=%d ptype=%#x hlen=%d plen=%d",
			htype, ptype, data[4], data[5])
	}
	a.Op = binary.BigEndian.Uint16(data[6:8])
	copy(a.SenderMAC[:], data[8:14])
	a.SenderIP = netip.AddrFrom4([4]byte(data[14:18]))
	copy(a.TargetMAC[:], data[18:24])
	a.TargetIP = netip.AddrFrom4([4]byte(data[24:28]))
	return nil
}

// SerializeTo appends the wire form to b.
func (a *ARP) SerializeTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, 1)             // hardware type: Ethernet
	b = binary.BigEndian.AppendUint16(b, EtherTypeIPv4) // protocol type
	b = append(b, 6, 4)                                 // hlen, plen
	b = binary.BigEndian.AppendUint16(b, a.Op)
	b = append(b, a.SenderMAC[:]...)
	sip := a.SenderIP.As4()
	b = append(b, sip[:]...)
	b = append(b, a.TargetMAC[:]...)
	tip := a.TargetIP.As4()
	return append(b, tip[:]...)
}

// IPv4 flag bits, as they appear in Flags.
const (
	IPv4MoreFragments uint8 = 1 << 0
	IPv4DontFragment  uint8 = 1 << 1
)

// IPv4 is the IPv4 header without options.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8  // the header's three flag bits: IPv4DontFragment, IPv4MoreFragments
	FragOff  uint16 // fragment offset, in 8-byte units
	TTL      uint8
	Protocol uint8
	SrcIP    netip.Addr
	DstIP    netip.Addr
	// Length is the total length field; filled by SerializeTo from the
	// payload and checked (loosely) by DecodeFromBytes.
	Length uint16
}

// DecodeFromBytes parses the header and returns the payload. Options are
// skipped but accounted for via the IHL field.
func (ip *IPv4) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("packet: ipv4 header truncated: %d bytes", len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return nil, fmt.Errorf("packet: ipv4 version field = %d", v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return nil, fmt.Errorf("packet: ipv4 bad IHL %d for %d bytes", ihl, len(data))
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	frag := binary.BigEndian.Uint16(data[6:8])
	ip.Flags, ip.FragOff = uint8(frag>>13), frag&0x1fff
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.SrcIP = netip.AddrFrom4([4]byte(data[12:16]))
	ip.DstIP = netip.AddrFrom4([4]byte(data[16:20]))
	if int(ip.Length) > len(data) {
		return nil, fmt.Errorf("packet: ipv4 total length %d exceeds %d captured bytes",
			ip.Length, len(data))
	}
	end := int(ip.Length)
	if end < ihl {
		return nil, fmt.Errorf("packet: ipv4 total length %d below IHL %d", ip.Length, ihl)
	}
	return data[ihl:end], nil
}

// IsFragment reports whether the datagram is a fragment: more fragments
// follow, or this one starts past offset zero. Only an unfragmented
// datagram carries a whole transport header.
func (ip *IPv4) IsFragment() bool {
	return ip.Flags&IPv4MoreFragments != 0 || ip.FragOff != 0
}

// SerializeTo appends the header (no options) and payload to b, filling in
// length and checksum.
func (ip *IPv4) SerializeTo(b []byte, payload []byte) []byte {
	total := 20 + len(payload)
	start := len(b)
	b = append(b, 0x45, ip.TOS)
	b = binary.BigEndian.AppendUint16(b, uint16(total))
	b = binary.BigEndian.AppendUint16(b, ip.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(ip.Flags&7)<<13|ip.FragOff&0x1fff)
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	b = append(b, ttl, ip.Protocol, 0, 0) // checksum placeholder
	src, dst := ip.SrcIP.As4(), ip.DstIP.As4()
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	sum := Checksum(b[start : start+20])
	binary.BigEndian.PutUint16(b[start+10:start+12], sum)
	return append(b, payload...)
}

// UDP is the 8-byte UDP header.
type UDP struct {
	SrcPort uint16
	DstPort uint16
}

// DecodeFromBytes parses the header and returns the payload.
func (u *UDP) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("packet: udp header truncated: %d bytes", len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	l := binary.BigEndian.Uint16(data[4:6])
	if int(l) < 8 || int(l) > len(data) {
		return nil, fmt.Errorf("packet: udp length %d invalid for %d bytes", l, len(data))
	}
	return data[8:l], nil
}

// SerializeTo appends header and payload to b, computing the RFC 768
// checksum over the pseudo header derived from ip. A computed checksum of
// zero is transmitted as 0xffff (zero on the wire means "no checksum"). A
// nil ip leaves the checksum zero — the caller has no pseudo header.
func (u *UDP) SerializeTo(b []byte, payload []byte, ip *IPv4) []byte {
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(8+len(payload)))
	b = binary.BigEndian.AppendUint16(b, 0)
	b = append(b, payload...)
	if ip != nil {
		sum := PseudoChecksum(ip, ProtoUDP, b[start:])
		if sum == 0 {
			sum = 0xffff
		}
		binary.BigEndian.PutUint16(b[start+6:start+8], sum)
	}
	return b
}

// TCP is the TCP header subset the fabric can match on.
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
)

// DecodeFromBytes parses the header and returns the payload.
func (t *TCP) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("packet: tcp header truncated: %d bytes", len(data))
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	off := int(data[12]>>4) * 4
	if off < 20 || off > len(data) {
		return nil, fmt.Errorf("packet: tcp bad data offset %d for %d bytes", off, len(data))
	}
	t.Flags = data[13]
	return data[off:], nil
}

// SerializeTo appends header (no options) and payload to b, computing the
// RFC 9293 checksum over the pseudo header derived from ip. A nil ip leaves
// the checksum zero — the caller has no pseudo header.
func (t *TCP) SerializeTo(b []byte, payload []byte, ip *IPv4) []byte {
	start := len(b)
	b = binary.BigEndian.AppendUint16(b, t.SrcPort)
	b = binary.BigEndian.AppendUint16(b, t.DstPort)
	b = binary.BigEndian.AppendUint32(b, t.Seq)
	b = binary.BigEndian.AppendUint32(b, t.Ack)
	b = append(b, 5<<4, t.Flags)
	b = binary.BigEndian.AppendUint16(b, 65535) // window
	b = binary.BigEndian.AppendUint16(b, 0)     // checksum placeholder
	b = binary.BigEndian.AppendUint16(b, 0)     // urgent
	b = append(b, payload...)
	if ip != nil {
		sum := PseudoChecksum(ip, ProtoTCP, b[start:])
		binary.BigEndian.PutUint16(b[start+16:start+18], sum)
	}
	return b
}

// Checksum computes the RFC 1071 ones-complement sum over data.
func Checksum(data []byte) uint16 {
	return checksumFold(checksumAdd(0, data))
}

// PseudoChecksum computes the transport checksum over the IPv4 pseudo
// header (source, destination, protocol, transport length) followed by the
// transport segment. The segment's checksum field must be zero. Summing a
// received segment with its checksum in place instead returns zero for an
// intact packet.
func PseudoChecksum(ip *IPv4, proto uint8, segment []byte) uint16 {
	src, dst := ip.SrcIP.As4(), ip.DstIP.As4()
	var pseudo [12]byte
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
	return checksumFold(checksumAdd(checksumAdd(0, pseudo[:]), segment))
}

// checksumAdd accumulates data into a ones-complement running sum; odd
// trailing bytes are padded with zero per RFC 1071.
func checksumAdd(sum uint32, data []byte) uint32 {
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	return sum
}

// checksumFold folds the carries and complements the result.
func checksumFold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
