// Package netutil provides the low-level addressing substrate shared by the
// SDX controller, route server, and data plane: hardware (MAC) addresses,
// longest-prefix-match tries, prefix sets, and allocation pools for virtual
// next-hop addresses.
package netutil

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// MAC is a 48-bit Ethernet hardware address. The zero value is the all-zero
// address, which the data plane treats as "unset".
type MAC [6]byte

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// ParseMAC parses the colon-separated hexadecimal form, e.g.
// "08:00:27:89:3b:9f". Unlike net.ParseMAC it accepts only 48-bit addresses,
// which is all the SDX fabric uses.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return MAC{}, fmt.Errorf("netutil: invalid MAC %q: want 6 colon-separated octets", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return MAC{}, fmt.Errorf("netutil: invalid MAC %q: octet %d: %v", s, i, err)
		}
		m[i] = byte(v)
	}
	return m, nil
}

// MustParseMAC is like ParseMAC but panics on error. It is intended for
// tests and static configuration.
func MustParseMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

// String returns the canonical lower-case colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsZero reports whether m is the all-zero (unset) address.
func (m MAC) IsZero() bool { return m == MAC{} }

// IsBroadcast reports whether m is the all-ones broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsMulticast reports whether the group bit (least-significant bit of the
// first octet) is set.
func (m MAC) IsMulticast() bool { return m[0]&0x01 != 0 }

// IsLocal reports whether the locally-administered bit is set. All virtual
// MACs minted by the SDX controller are locally administered.
func (m MAC) IsLocal() bool { return m[0]&0x02 != 0 }

// Uint64 returns the address as a big-endian integer in the low 48 bits.
func (m MAC) Uint64() uint64 {
	var b [8]byte
	copy(b[2:], m[:])
	return binary.BigEndian.Uint64(b[:])
}

// MACFromUint64 builds a MAC from the low 48 bits of v.
func MACFromUint64(v uint64) MAC {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	var m MAC
	copy(m[:], b[2:])
	return m
}

// vmacOUI is the locally-administered prefix under which the SDX controller
// mints virtual MACs (tags): the local bit (0x02) is set so minted addresses
// can never collide with a participant router's burned-in address.
const vmacOUI = 0xa2_53_44 // "SD" + local bit, mnemonic for "SDx"

// VMAC returns the virtual MAC that tags a forwarding-equivalence class.
// The low 24 bits are the offset of the class's virtual next hop in the VNH
// pool (IPPool.Offset), so the tag is a function of the VNH alone; a /8
// pool gives 16M distinct tags, far above the ~1000 prefix groups the
// paper's evaluation reaches.
func VMAC(offset uint32) MAC {
	return MACFromUint64(uint64(vmacOUI)<<24 | uint64(offset&0xffffff))
}

// VMACID extracts the pool offset from a virtual MAC minted by VMAC. The
// second return value reports whether m is in the SDX virtual MAC space at
// all.
func VMACID(m MAC) (uint32, bool) {
	v := m.Uint64()
	if v>>24 != vmacOUI {
		return 0, false
	}
	return uint32(v & 0xffffff), true
}
