package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// Path attribute type codes (RFC 4271 §5.1, RFC 1997).
const (
	attrOrigin      uint8 = 1
	attrASPath      uint8 = 2
	attrNextHop     uint8 = 3
	attrMED         uint8 = 4
	attrLocalPref   uint8 = 5
	attrCommunities uint8 = 8
)

// Origin values.
const (
	OriginIGP        uint8 = 0
	OriginEGP        uint8 = 1
	OriginIncomplete uint8 = 2
)

// AS_PATH segment types.
const (
	ASSet      uint8 = 1
	ASSequence uint8 = 2
)

// ASTrans is the reserved 2-octet AS number (RFC 6793) substituted on the
// wire for any ASN that does not fit the 2-octet AS_PATH and OPEN encodings.
// Internally ASNs are uint32 throughout; AS_TRANS appears only at the codec
// boundary.
const ASTrans uint32 = 23456

// wireAS maps an internal 4-octet ASN to its 2-octet wire representation.
func wireAS(as uint32) uint16 {
	if as > 0xffff {
		return uint16(ASTrans)
	}
	return uint16(as)
}

// ASPathSegment is one segment of an AS_PATH attribute. ASNs are 4-octet
// (RFC 6793); values above 65535 are emitted as AS_TRANS in the 2-octet
// wire encoding.
type ASPathSegment struct {
	Type uint8
	ASNs []uint32
}

// PathAttrs is the decoded attribute set of an UPDATE. HasMED/HasLocalPref
// distinguish "absent" from zero, which matters to the decision process.
type PathAttrs struct {
	Origin       uint8
	ASPath       []ASPathSegment
	NextHop      netip.Addr
	MED          uint32
	HasMED       bool
	LocalPref    uint32
	HasLocalPref bool
	Communities  []uint32
}

// ASPathLength returns the decision-process length of the AS path: each
// AS_SEQUENCE member counts 1, each AS_SET counts 1 total (RFC 4271 §9.1.2.2).
func (a PathAttrs) ASPathLength() int {
	n := 0
	for _, seg := range a.ASPath {
		if seg.Type == ASSet {
			n++
		} else {
			n += len(seg.ASNs)
		}
	}
	return n
}

// FlatASPath returns the concatenated ASNs of all segments, first hop first.
func (a PathAttrs) FlatASPath() []uint32 {
	var out []uint32
	for _, seg := range a.ASPath {
		out = append(out, seg.ASNs...)
	}
	return out
}

// ASPathString renders the flattened AS path as "65001 65002 43515", the
// form the RIB's regular-expression filters match against.
func (a PathAttrs) ASPathString() string {
	asns := a.FlatASPath()
	parts := make([]string, len(asns))
	for i, as := range asns {
		parts[i] = strconv.FormatUint(uint64(as), 10)
	}
	return strings.Join(parts, " ")
}

// FirstAS returns the neighboring AS: the leftmost ASN of the first
// AS_SEQUENCE segment, or 0 when the path has none. AS_SET members are
// deliberately skipped — an AS_SET is an unordered aggregate, so its first
// element does not identify the neighbor, and MED comparability (RFC 4271
// §9.1.2.2(c) applies MED only between routes from the same neighboring AS)
// must not be inferred from it.
func (a PathAttrs) FirstAS() uint32 {
	for _, seg := range a.ASPath {
		if seg.Type == ASSequence && len(seg.ASNs) > 0 {
			return seg.ASNs[0]
		}
	}
	return 0
}

// OriginAS returns the originating AS (rightmost ASN), or 0 for an empty path.
func (a PathAttrs) OriginAS() uint32 {
	for i := len(a.ASPath) - 1; i >= 0; i-- {
		if n := len(a.ASPath[i].ASNs); n > 0 {
			return a.ASPath[i].ASNs[n-1]
		}
	}
	return 0
}

// PrependAS returns a copy of the attributes with as prepended to the AS
// path, as a router does when propagating a route to an eBGP neighbor.
func (a PathAttrs) PrependAS(as uint32) PathAttrs {
	out := a
	if len(a.ASPath) > 0 && a.ASPath[0].Type == ASSequence && len(a.ASPath[0].ASNs) < 255 {
		seg := ASPathSegment{Type: ASSequence, ASNs: append([]uint32{as}, a.ASPath[0].ASNs...)}
		out.ASPath = append([]ASPathSegment{seg}, a.ASPath[1:]...)
	} else {
		out.ASPath = append([]ASPathSegment{{Type: ASSequence, ASNs: []uint32{as}}}, a.ASPath...)
	}
	return out
}

// WithNextHop returns a copy of the attributes with the next hop replaced —
// the route server uses this to install virtual next hops.
func (a PathAttrs) WithNextHop(nh netip.Addr) PathAttrs {
	a.NextHop = nh
	return a
}

const (
	flagOptional   uint8 = 0x80
	flagTransitive uint8 = 0x40
	flagExtLen     uint8 = 0x10
)

func appendAttr(b []byte, flags, code uint8, val []byte) []byte {
	if len(val) > 255 {
		flags |= flagExtLen
	}
	b = append(b, flags, code)
	if flags&flagExtLen != 0 {
		b = binary.BigEndian.AppendUint16(b, uint16(len(val)))
	} else {
		b = append(b, byte(len(val)))
	}
	return append(b, val...)
}

// marshal renders the attribute set. as4 selects the RFC 6793 4-octet
// AS_PATH encoding; with as4 false, wide ASNs degrade to AS_TRANS.
func (a PathAttrs) marshal(b []byte, as4 bool) ([]byte, error) {
	if !a.NextHop.Is4() {
		return nil, fmt.Errorf("bgp: NEXT_HOP must be IPv4, got %v", a.NextHop)
	}
	b = appendAttr(b, flagTransitive, attrOrigin, []byte{a.Origin})

	var path []byte
	for _, seg := range a.ASPath {
		if len(seg.ASNs) == 0 || len(seg.ASNs) > 255 {
			return nil, fmt.Errorf("bgp: AS_PATH segment with %d ASNs", len(seg.ASNs))
		}
		path = append(path, seg.Type, byte(len(seg.ASNs)))
		for _, as := range seg.ASNs {
			if as4 {
				path = binary.BigEndian.AppendUint32(path, as)
			} else {
				path = binary.BigEndian.AppendUint16(path, wireAS(as))
			}
		}
	}
	b = appendAttr(b, flagTransitive, attrASPath, path)

	nh := a.NextHop.As4()
	b = appendAttr(b, flagTransitive, attrNextHop, nh[:])

	if a.HasMED {
		b = appendAttr(b, flagOptional, attrMED, binary.BigEndian.AppendUint32(nil, a.MED))
	}
	if a.HasLocalPref {
		b = appendAttr(b, flagTransitive, attrLocalPref, binary.BigEndian.AppendUint32(nil, a.LocalPref))
	}
	if len(a.Communities) > 0 {
		var cs []byte
		for _, c := range a.Communities {
			cs = binary.BigEndian.AppendUint32(cs, c)
		}
		b = appendAttr(b, flagOptional|flagTransitive, attrCommunities, cs)
	}
	return b, nil
}

// AttrError classifies a malformed path attribute per RFC 7606 (revised
// BGP error handling). Recoverable means the attribute's outer framing —
// the flags/type/length header and the value boundary — is intact, so the
// rest of the UPDATE (in particular its NLRI) can still be trusted: the
// receiver demotes the UPDATE to treat-as-withdraw instead of resetting
// the session. When the framing itself is broken, the remaining attribute
// bytes cannot be delimited and the session must reset.
type AttrError struct {
	// Code is the attribute type code, 0 when the header was unreadable.
	Code uint8
	// Recoverable selects treat-as-withdraw over session reset.
	Recoverable bool
	reason      string
}

func (e *AttrError) Error() string {
	if e.Code == 0 {
		return "bgp: " + e.reason
	}
	return fmt.Sprintf("bgp: attribute %d: %s", e.Code, e.reason)
}

func attrErr(code uint8, recoverable bool, format string, args ...any) *AttrError {
	return &AttrError{Code: code, Recoverable: recoverable, reason: fmt.Sprintf(format, args...)}
}

// checkAttrFlags validates the attribute flag octet for recognized codes
// (RFC 4271 §6.3 attribute-flags error, demoted to treat-as-withdraw by
// RFC 7606 §3). Well-known attributes must be transitive and not optional;
// MED is optional non-transitive; COMMUNITIES is optional transitive.
func checkAttrFlags(flags, code uint8) *AttrError {
	fl := flags & (flagOptional | flagTransitive)
	var want uint8
	switch code {
	case attrOrigin, attrASPath, attrNextHop, attrLocalPref:
		want = flagTransitive
	case attrMED:
		want = flagOptional
	case attrCommunities:
		want = flagOptional | flagTransitive
	default:
		return nil // unrecognized: no flag expectation enforced
	}
	if fl != want {
		return attrErr(code, true, "attribute flags 0x%02x (want 0x%02x)", fl, want)
	}
	return nil
}

// parsePathAttrs decodes an UPDATE's attribute bytes; as4 selects the
// 4-octet AS_PATH ASN width. Malformations come back as *AttrError with
// the RFC 7606 recoverable/unrecoverable split.
func parsePathAttrs(b []byte, as4 bool) (PathAttrs, error) {
	var a PathAttrs
	sawNextHop := false
	asnWidth := 2
	if as4 {
		asnWidth = 4
	}
	for len(b) > 0 {
		if len(b) < 3 {
			return a, attrErr(0, false, "path attribute truncated")
		}
		flags, code := b[0], b[1]
		var alen int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return a, attrErr(code, false, "extended-length attribute truncated")
			}
			alen = int(binary.BigEndian.Uint16(b[2:4]))
			b = b[4:]
		} else {
			alen = int(b[2])
			b = b[3:]
		}
		if len(b) < alen {
			return a, attrErr(code, false, "value truncated (%d of %d bytes)", len(b), alen)
		}
		val := b[:alen]
		b = b[alen:]

		if err := checkAttrFlags(flags, code); err != nil {
			return a, err
		}
		switch code {
		case attrOrigin:
			if alen != 1 {
				return a, attrErr(code, true, "ORIGIN length %d", alen)
			}
			a.Origin = val[0]
		case attrASPath:
			for len(val) > 0 {
				if len(val) < 2 {
					return a, attrErr(code, true, "AS_PATH segment header truncated")
				}
				segType, n := val[0], int(val[1])
				if segType != ASSet && segType != ASSequence {
					return a, attrErr(code, true, "AS_PATH segment type %d", segType)
				}
				if n == 0 { // malformed (RFC 7606 §7.2); marshal refuses one too
					return a, attrErr(code, true, "AS_PATH segment of zero length")
				}
				if len(val) < 2+asnWidth*n {
					return a, attrErr(code, true, "AS_PATH segment truncated")
				}
				seg := ASPathSegment{Type: segType, ASNs: make([]uint32, n)}
				for i := 0; i < n; i++ {
					off := 2 + asnWidth*i
					if as4 {
						seg.ASNs[i] = binary.BigEndian.Uint32(val[off : off+4])
					} else {
						seg.ASNs[i] = uint32(binary.BigEndian.Uint16(val[off : off+2]))
					}
				}
				a.ASPath = append(a.ASPath, seg)
				val = val[2+asnWidth*n:]
			}
		case attrNextHop:
			if alen != 4 {
				return a, attrErr(code, true, "NEXT_HOP length %d", alen)
			}
			a.NextHop = netip.AddrFrom4([4]byte(val))
			sawNextHop = true
		case attrMED:
			if alen != 4 {
				return a, attrErr(code, true, "MED length %d", alen)
			}
			a.MED, a.HasMED = binary.BigEndian.Uint32(val), true
		case attrLocalPref:
			if alen != 4 {
				return a, attrErr(code, true, "LOCAL_PREF length %d", alen)
			}
			a.LocalPref, a.HasLocalPref = binary.BigEndian.Uint32(val), true
		case attrCommunities:
			if alen%4 != 0 {
				return a, attrErr(code, true, "COMMUNITIES length %d", alen)
			}
			for i := 0; i < alen; i += 4 {
				a.Communities = append(a.Communities, binary.BigEndian.Uint32(val[i:i+4]))
			}
		default:
			// Unrecognized optional attributes are ignored; unrecognized
			// well-known attributes would be a session error in a full
			// implementation, but the SDX only peers with itself and the
			// participants' routers, so tolerance is the pragmatic choice.
		}
	}
	if !sawNextHop {
		return a, attrErr(attrNextHop, true, "UPDATE with NLRI missing NEXT_HOP")
	}
	return a, nil
}
