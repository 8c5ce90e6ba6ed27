package openflow

import (
	"encoding/binary"
	"fmt"

	"sdx/internal/netutil"
	"sdx/internal/policy"
)

// Wildcard bits of the OpenFlow 1.0 ofp_match (OF 1.0 §5.2.3).
const (
	wcInPort  uint32 = 1 << 0
	wcDLVLAN  uint32 = 1 << 1
	wcDLSrc   uint32 = 1 << 2
	wcDLDst   uint32 = 1 << 3
	wcDLType  uint32 = 1 << 4
	wcNWProto uint32 = 1 << 5
	wcTPSrc   uint32 = 1 << 6
	wcTPDst   uint32 = 1 << 7

	wcNWSrcShift        = 8
	wcNWDstShift        = 14
	wcNWSrcMask  uint32 = 0x3f << wcNWSrcShift
	wcNWDstMask  uint32 = 0x3f << wcNWDstShift

	wcDLVLANPCP uint32 = 1 << 20
	wcNWTOS     uint32 = 1 << 21

	wcAll = wcInPort | wcDLVLAN | wcDLSrc | wcDLDst | wcDLType | wcNWProto |
		wcTPSrc | wcTPDst | wcNWSrcMask | wcNWDstMask | wcDLVLANPCP | wcNWTOS
)

const matchLen = 40

// Match is the OpenFlow 1.0 40-byte ofp_match: explicit wildcard bits plus
// field values. IP prefixes are encoded via the 6-bit wildcarded-low-bits
// counters in the wildcards word; NWSrc and NWDst hold the same lengths, so
// the conversions to and from policy.Match copy the prefixes as they are.
type Match struct {
	Wildcards uint32
	InPort    uint16
	DLSrc     netutil.MAC
	DLDst     netutil.MAC
	DLType    uint16
	NWProto   uint8
	TPSrc     uint16
	TPDst     uint16
	NWSrc     netutil.Prefix4 // its length is 32 less the wildcard counter; 0.0.0.0/0 when wildcarded
	NWDst     netutil.Prefix4
}

// MatchFromPolicy converts a compiled policy match to the wire form. The
// policy port is carried in InPort (the SDX core has already flattened
// virtual locations to physical ports by the time rules are installed).
func MatchFromPolicy(m policy.Match) Match {
	om := Match{Wildcards: wcAll}
	if v, ok := m.GetPort(); ok {
		om.InPort = v
		om.Wildcards &^= wcInPort
	}
	if v, ok := m.GetSrcMAC(); ok {
		om.DLSrc = v
		om.Wildcards &^= wcDLSrc
	}
	if v, ok := m.GetDstMAC(); ok {
		om.DLDst = v
		om.Wildcards &^= wcDLDst
	}
	if v, ok := m.GetEthType(); ok {
		om.DLType = v
		om.Wildcards &^= wcDLType
	}
	if v, ok := m.GetProto(); ok {
		om.NWProto = v
		om.Wildcards &^= wcNWProto
	}
	if v, ok := m.GetSrcIP(); ok {
		om.NWSrc = v
		om.Wildcards = om.Wildcards&^wcNWSrcMask | uint32(32-v.Bits())<<wcNWSrcShift
	}
	if v, ok := m.GetDstIP(); ok {
		om.NWDst = v
		om.Wildcards = om.Wildcards&^wcNWDstMask | uint32(32-v.Bits())<<wcNWDstShift
	}
	if v, ok := m.GetSrcPort(); ok {
		om.TPSrc = v
		om.Wildcards &^= wcTPSrc
	}
	if v, ok := m.GetDstPort(); ok {
		om.TPDst = v
		om.Wildcards &^= wcTPDst
	}
	return om
}

// ToPolicy converts the wire match back to a policy match.
func (om Match) ToPolicy() policy.Match {
	m := policy.MatchAll
	if om.Wildcards&wcInPort == 0 {
		m = m.Port(om.InPort)
	}
	if om.Wildcards&wcDLSrc == 0 {
		m = m.SrcMAC(om.DLSrc)
	}
	if om.Wildcards&wcDLDst == 0 {
		m = m.DstMAC(om.DLDst)
	}
	if om.Wildcards&wcDLType == 0 {
		m = m.EthType(om.DLType)
	}
	if om.Wildcards&wcNWProto == 0 {
		m = m.Proto(om.NWProto)
	}
	if om.NWSrc.Bits() > 0 {
		m = m.SrcIPv4(om.NWSrc)
	}
	if om.NWDst.Bits() > 0 {
		m = m.DstIPv4(om.NWDst)
	}
	if om.Wildcards&wcTPSrc == 0 {
		m = m.SrcPort(om.TPSrc)
	}
	if om.Wildcards&wcTPDst == 0 {
		m = m.DstPort(om.TPDst)
	}
	return m
}

// nwBits extracts the prefix length from a 6-bit wildcard counter field;
// counters ≥32 mean fully wildcarded (0 prefix bits).
func nwBits(wildcards uint32, shift int) int {
	wc := int(wildcards >> shift & 0x3f)
	if wc >= 32 {
		return 0
	}
	return 32 - wc
}

func (om Match) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, om.Wildcards)
	b = binary.BigEndian.AppendUint16(b, om.InPort)
	b = append(b, om.DLSrc[:]...)
	b = append(b, om.DLDst[:]...)
	b = binary.BigEndian.AppendUint16(b, 0xffff) // dl_vlan: none
	b = append(b, 0, 0)                          // dl_vlan_pcp, pad
	b = binary.BigEndian.AppendUint16(b, om.DLType)
	b = append(b, 0, om.NWProto, 0, 0) // nw_tos, nw_proto, pad
	b = binary.BigEndian.AppendUint32(b, uint32(om.NWSrc.Addr()))
	b = binary.BigEndian.AppendUint32(b, uint32(om.NWDst.Addr()))
	b = binary.BigEndian.AppendUint16(b, om.TPSrc)
	return binary.BigEndian.AppendUint16(b, om.TPDst)
}

func decodeMatch(b []byte) (Match, error) {
	if len(b) < matchLen {
		return Match{}, fmt.Errorf("openflow: match truncated: %d bytes", len(b))
	}
	om := Match{Wildcards: binary.BigEndian.Uint32(b[0:4])}
	om.InPort = binary.BigEndian.Uint16(b[4:6])
	copy(om.DLSrc[:], b[6:12])
	copy(om.DLDst[:], b[12:18])
	// b[18:20] dl_vlan, b[20] dl_vlan_pcp, b[21] pad
	om.DLType = binary.BigEndian.Uint16(b[22:24])
	// b[24] nw_tos
	om.NWProto = b[25]
	// b[26:28] pad
	om.NWSrc = netutil.PrefixFrom4(netutil.Addr4(binary.BigEndian.Uint32(b[28:32])), nwBits(om.Wildcards, wcNWSrcShift))
	om.NWDst = netutil.PrefixFrom4(netutil.Addr4(binary.BigEndian.Uint32(b[32:36])), nwBits(om.Wildcards, wcNWDstShift))
	om.TPSrc = binary.BigEndian.Uint16(b[36:38])
	om.TPDst = binary.BigEndian.Uint16(b[38:40])
	return om, nil
}
