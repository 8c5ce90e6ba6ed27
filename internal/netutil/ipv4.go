package netutil

import (
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
