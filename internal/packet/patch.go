package packet

import (
	"encoding/binary"
	"net/netip"

	"sdx/internal/netutil"
)

// The patch functions rewrite one header field of a wire frame in place and
// leave every other byte as it arrived: IP options, TCP options and window,
// flags, TTL, fragment fields and Ethernet padding all survive. A field
// that feeds a checksum updates that checksum incrementally (RFC 1624), so a
// checksum that was valid stays valid and one that was not stays wrong by
// the same amount. The frame must hold the wire image p was decoded from
// (or a copy of it, patched only by these functions); a field the decode
// found no header for is left alone.

// ethHeaderLen is the offset of the IPv4 header in a frame.
const ethHeaderLen = 14

// PatchEthSrc sets the frame's Ethernet source address.
func PatchEthSrc(frame []byte, mac netutil.MAC) { copy(frame[6:12], mac[:]) }

// PatchEthDst sets the frame's Ethernet destination address.
func PatchEthDst(frame []byte, mac netutil.MAC) { copy(frame[0:6], mac[:]) }

// PatchIPv4Addr sets the IPv4 source (dst false) or destination (dst true)
// address, updating the header checksum and — the address being part of the
// pseudo header — the transport checksum when the frame carries it.
func (p *Packet) PatchIPv4Addr(frame []byte, dst bool, a netip.Addr) {
	if p.IPv4 == nil {
		return
	}
	ip := frame[ethHeaderLen:]
	field := ip[12:16]
	if dst {
		field = ip[16:20]
	}
	l4sum, udp := p.transportChecksum(frame)
	v := a.As4()
	for i := 0; i < 4; i += 2 {
		from, to := binary.BigEndian.Uint16(field[i:]), binary.BigEndian.Uint16(v[i:])
		updateChecksum(ip[10:12], from, to, false)
		if l4sum != nil {
			updateChecksum(l4sum, from, to, udp)
		}
	}
	copy(field, v[:])
}

// PatchL4Port sets the TCP or UDP source (dst false) or destination (dst
// true) port and updates the transport checksum. A fragment has no parsed
// transport header, so patching one changes nothing.
func (p *Packet) PatchL4Port(frame []byte, dst bool, port uint16) {
	if p.TCP == nil && p.UDP == nil {
		return
	}
	field := frame[p.transportOffset(frame):]
	if dst {
		field = field[2:]
	}
	if l4sum, udp := p.transportChecksum(frame); l4sum != nil {
		updateChecksum(l4sum, binary.BigEndian.Uint16(field), port, udp)
	}
	binary.BigEndian.PutUint16(field, port)
}

// transportOffset returns where the IPv4 payload starts, honouring IHL.
func (p *Packet) transportOffset(frame []byte) int {
	return ethHeaderLen + int(frame[ethHeaderLen]&0x0f)*4
}

// transportChecksum returns the transport checksum field to maintain, and
// whether it is UDP's, or nil when there is none: not TCP or UDP, a
// fragment past offset zero (its transport header travels in the first
// fragment), a first fragment too short to hold the field, or a UDP
// datagram sent without a checksum (zero). A first fragment's checksum
// covers the whole datagram, so it is updated like an unfragmented one's.
func (p *Packet) transportChecksum(frame []byte) (sum []byte, udp bool) {
	if p.IPv4.FragOff != 0 {
		return nil, false
	}
	seg := frame[p.transportOffset(frame) : ethHeaderLen+int(p.IPv4.Length)]
	switch p.IPv4.Protocol {
	case ProtoTCP:
		if len(seg) >= 18 {
			return seg[16:18], false
		}
	case ProtoUDP:
		if len(seg) >= 8 && binary.BigEndian.Uint16(seg[6:8]) != 0 {
			return seg[6:8], true
		}
	}
	return nil, false
}

// updateChecksum folds the change of one 16-bit word from m to m2 into the
// checksum stored at field: HC' = ~(~HC + ~m + m'), RFC 1624 eqn. 3. A UDP
// result of zero is sent as 0xffff, zero meaning "no checksum".
func updateChecksum(field []byte, m, m2 uint16, udp bool) {
	sum := uint32(^binary.BigEndian.Uint16(field)) + uint32(^m) + uint32(m2)
	out := checksumFold(sum)
	if udp && out == 0 {
		out = 0xffff
	}
	binary.BigEndian.PutUint16(field, out)
}
