package netutil

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// ParseIPv4 parses an IPv4 address and rejects every IPv6 form, the
// IPv4-mapped ones included. Policy matches and rewrites are installed as
// OpenFlow 1.0's 32-bit nw_src/nw_dst, which cannot carry anything else.
func ParseIPv4(s string) (netip.Addr, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Addr{}, err
	}
	if !a.Is4() {
		return netip.Addr{}, fmt.Errorf("%q is not an IPv4 address", s)
	}
	return a, nil
}

// ParseIPv4Prefix parses an IPv4 CIDR prefix and rejects an IPv6 one, for
// the same reason as ParseIPv4.
func ParseIPv4Prefix(s string) (netip.Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return netip.Prefix{}, err
	}
	if !p.Addr().Is4() {
		return netip.Prefix{}, fmt.Errorf("%q is not an IPv4 prefix", s)
	}
	return p, nil
}

// Addr4 is an IPv4 address as its 32-bit value, first octet most
// significant (10.0.0.1 is 0x0a000001): the width of OpenFlow 1.0's
// nw_src/nw_dst. Unlike netip.Addr it holds no pointer, so the policy
// matches and rewrites built on it stay plain comparable words.
type Addr4 uint32

// Addr4From converts an IPv4 address. Any other address, an IPv4-mapped
// IPv6 one included, panics: ParseIPv4 rejects them where text enters the
// program, so one arriving here is a programming error.
func Addr4From(a netip.Addr) Addr4 {
	if !a.Is4() {
		panic(fmt.Sprintf("netutil: %v is not an IPv4 address", a))
	}
	b := a.As4()
	return Addr4(binary.BigEndian.Uint32(b[:]))
}

// Addr returns a as a netip.Addr.
func (a Addr4) Addr() netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}

func (a Addr4) String() string { return a.Addr().String() }

// Prefix4 is an IPv4 prefix as its masked address plus its length. Host
// bits are always clear, so two Prefix4s are equal exactly when they name
// the same address block. The zero value is 0.0.0.0/0.
type Prefix4 struct {
	addr Addr4
	bits uint8
}

// Prefix4From converts an IPv4 prefix, clearing its host bits. An invalid
// or non-IPv4 prefix panics, for the reason Addr4From gives.
func Prefix4From(p netip.Prefix) Prefix4 { return PrefixFrom4(Addr4From(p.Addr()), p.Bits()) }

// PrefixFrom4 returns the bits-long prefix holding a. It panics unless
// 0 <= bits <= 32.
func PrefixFrom4(a Addr4, bits int) Prefix4 {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("netutil: IPv4 prefix length %d", bits))
	}
	return Prefix4{addr: a & mask4(uint8(bits)), bits: uint8(bits)}
}

// mask4 is the netmask of a bits-long prefix (Go shifts a 32-bit word by 32
// to zero, so /0 masks every bit away).
func mask4(bits uint8) Addr4 { return ^Addr4(0) << (32 - bits) }

// Addr returns p's first address.
func (p Prefix4) Addr() Addr4 { return p.addr }

// Bits returns p's length.
func (p Prefix4) Bits() int { return int(p.bits) }

// Contains reports whether a lies in p.
func (p Prefix4) Contains(a Addr4) bool { return a&mask4(p.bits) == p.addr }

// Covers reports whether every address of o lies in p.
func (p Prefix4) Covers(o Prefix4) bool { return o.bits >= p.bits && p.Contains(o.addr) }

// Prefix returns p as a netip.Prefix.
func (p Prefix4) Prefix() netip.Prefix { return netip.PrefixFrom(p.addr.Addr(), int(p.bits)) }

func (p Prefix4) String() string { return p.Prefix().String() }
