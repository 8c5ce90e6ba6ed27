// Package bgp implements the subset of BGP-4 (RFC 4271) the SDX needs: the
// wire codec for OPEN/UPDATE/KEEPALIVE/NOTIFICATION, path attributes,
// TCP sessions with the standard finite state machine, per-peer RIBs, and
// the best-path decision process the route server runs on behalf of each
// participant.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sort"
)

// Port is the IANA-assigned BGP port.
const Port = 179

// Version is the only protocol version supported.
const Version = 4

// MsgType identifies a BGP message type (RFC 4271 §4.1).
type MsgType uint8

// BGP message types.
const (
	MsgOpen         MsgType = 1
	MsgUpdate       MsgType = 2
	MsgNotification MsgType = 3
	MsgKeepalive    MsgType = 4
)

func (t MsgType) String() string {
	switch t {
	case MsgOpen:
		return "OPEN"
	case MsgUpdate:
		return "UPDATE"
	case MsgNotification:
		return "NOTIFICATION"
	case MsgKeepalive:
		return "KEEPALIVE"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

const (
	headerLen = 19
	maxMsgLen = 4096
)

// Message is any BGP message. The as4 flag selects the RFC 6793 4-octet
// AS_PATH encoding, which only UPDATE bodies care about; it is a property
// of the session (both OPENs advertised the capability), not the message.
type Message interface {
	Type() MsgType
	marshalBody(b []byte, as4 bool) ([]byte, error)
}

// Optional-parameter and capability codes (RFC 5492, RFC 6793).
const (
	optParamCapabilities uint8 = 2
	capFourOctetAS       uint8 = 65
)

// Open is the session-establishment message (RFC 4271 §4.2). The only
// optional parameter modeled is the RFC 6793 4-octet-AS capability; other
// parameters and capabilities are tolerated on decode and discarded.
type Open struct {
	// AS is the 2-octet wire field: the true ASN when it fits, AS_TRANS
	// when the speaker's ASN needs the 4-octet capability.
	AS       uint16
	HoldTime uint16
	BGPID    netip.Addr
	// CapFourOctetAS advertises RFC 6793 support; FourOctetAS is the
	// speaker's true 4-octet ASN carried inside the capability.
	CapFourOctetAS bool
	FourOctetAS    uint32
}

// Type implements Message.
func (*Open) Type() MsgType { return MsgOpen }

func (o *Open) marshalBody(b []byte, as4 bool) ([]byte, error) {
	if !o.BGPID.Is4() {
		return nil, fmt.Errorf("bgp: OPEN requires an IPv4 BGP identifier, got %v", o.BGPID)
	}
	b = append(b, Version)
	b = binary.BigEndian.AppendUint16(b, o.AS)
	b = binary.BigEndian.AppendUint16(b, o.HoldTime)
	id := o.BGPID.As4()
	b = append(b, id[:]...)
	var opts []byte
	if o.CapFourOctetAS {
		// One capabilities parameter holding the single 4-octet-AS
		// capability: code 65, length 4, the speaker's ASN.
		capVal := binary.BigEndian.AppendUint32([]byte{capFourOctetAS, 4}, o.FourOctetAS)
		opts = append(opts, optParamCapabilities, byte(len(capVal)))
		opts = append(opts, capVal...)
	}
	b = append(b, byte(len(opts)))
	return append(b, opts...), nil
}

// Update carries route withdrawals and an advertisement (RFC 4271 §4.3).
type Update struct {
	Withdrawn []netip.Prefix
	Attrs     PathAttrs
	NLRI      []netip.Prefix
	// TreatAsWithdraw marks an UPDATE whose path attributes were malformed
	// in a recoverable way (RFC 7606): the NLRI it carried has been moved
	// into Withdrawn, Attrs is zero, and the session stays established.
	// Unset on any UPDATE a local caller constructs.
	TreatAsWithdraw bool
}

// Type implements Message.
func (*Update) Type() MsgType { return MsgUpdate }

func (u *Update) marshalBody(b []byte, as4 bool) ([]byte, error) {
	wd, err := marshalPrefixes(nil, u.Withdrawn)
	if err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(wd)))
	b = append(b, wd...)

	var attrs []byte
	if len(u.NLRI) > 0 {
		attrs, err = u.Attrs.marshal(nil, as4)
		if err != nil {
			return nil, err
		}
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(attrs)))
	b = append(b, attrs...)

	return marshalPrefixes(b, u.NLRI)
}

// Advertisement pairs one NLRI prefix with the path attributes it should be
// announced with — the input unit of PackUpdates.
type Advertisement struct {
	Prefix netip.Prefix
	Attrs  PathAttrs
}

// prefixWireLen is the RFC 4271 NLRI encoding size of one prefix: a length
// octet plus ceil(bits/8) address octets.
func prefixWireLen(p netip.Prefix) int { return 1 + (p.Bits()+7)/8 }

func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if c := ps[i].Addr().Compare(ps[j].Addr()); c != 0 {
			return c < 0
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}

// PackUpdates builds a minimal sequence of UPDATE messages carrying all the
// given withdrawals and advertisements: prefixes sharing an identical path
// attribute set are packed into common messages (RFC 4271 permits one
// attribute set per UPDATE), withdrawals are packed together and may share
// the first message with NLRI, and every message respects the 4096-byte
// cap. Output is deterministic: withdrawals first, attribute groups in
// canonical (marshaled-attribute) order, prefixes sorted within each group.
// The caller must not repeat a prefix within withdrawn or within adverts.
func PackUpdates(withdrawn []netip.Prefix, adverts []Advertisement) ([]*Update, error) {
	// Budget for withdrawn+attrs+NLRI bytes: the fixed header and the two
	// length fields are excluded.
	const bodyBudget = maxMsgLen - headerLen - 4

	wd := make([]netip.Prefix, len(withdrawn))
	for i, p := range withdrawn {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("bgp: IPv4 NLRI only, got %v", p)
		}
		wd[i] = p.Masked()
	}
	sortPrefixes(wd)

	type attrGroup struct {
		attrs    PathAttrs
		attrSize int
		prefixes []netip.Prefix
	}
	groups := make(map[string]*attrGroup)
	for _, ad := range adverts {
		if !ad.Prefix.Addr().Is4() {
			return nil, fmt.Errorf("bgp: IPv4 NLRI only, got %v", ad.Prefix)
		}
		// Group and budget with the 4-octet encoding: the key must not
		// merge attribute sets that differ only above the 16-bit ASN
		// boundary (they would collapse to identical AS_TRANS images), and
		// the size is a safe overestimate for 2-octet sessions.
		key, err := ad.Attrs.marshal(nil, true)
		if err != nil {
			return nil, err
		}
		g := groups[string(key)]
		if g == nil {
			g = &attrGroup{attrs: ad.Attrs, attrSize: len(key)}
			groups[string(key)] = g
		}
		g.prefixes = append(g.prefixes, ad.Prefix.Masked())
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var out []*Update
	cur := &Update{}
	curSize := 0
	flush := func() {
		if len(cur.Withdrawn) > 0 || len(cur.NLRI) > 0 {
			out = append(out, cur)
		}
		cur = &Update{}
		curSize = 0
	}

	for _, p := range wd {
		sz := prefixWireLen(p)
		if curSize+sz > bodyBudget {
			flush()
		}
		cur.Withdrawn = append(cur.Withdrawn, p)
		curSize += sz
	}
	for _, k := range keys {
		g := groups[k]
		sortPrefixes(g.prefixes)
		for _, p := range g.prefixes {
			need := prefixWireLen(p)
			if len(cur.NLRI) == 0 {
				need += g.attrSize // opening this message's attribute set
			}
			if curSize+need > bodyBudget && (len(cur.Withdrawn) > 0 || len(cur.NLRI) > 0) {
				flush()
				need = g.attrSize + prefixWireLen(p)
			}
			if curSize+need > bodyBudget {
				return nil, fmt.Errorf("bgp: %d-byte attribute set cannot fit one NLRI in an UPDATE", g.attrSize)
			}
			if len(cur.NLRI) == 0 {
				cur.Attrs = g.attrs
			}
			cur.NLRI = append(cur.NLRI, p)
			curSize += need
		}
		// One attribute set per UPDATE: the next group starts fresh.
		flush()
	}
	flush()
	return out, nil
}

// Keepalive is the liveness message (RFC 4271 §4.4).
type Keepalive struct{}

// Type implements Message.
func (*Keepalive) Type() MsgType { return MsgKeepalive }

func (*Keepalive) marshalBody(b []byte, as4 bool) ([]byte, error) { return b, nil }

// Notification reports a fatal session error (RFC 4271 §4.5); the sender
// closes the connection after transmitting it.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Notification error codes.
const (
	NotifMessageHeaderError uint8 = 1
	NotifOpenMessageError   uint8 = 2
	NotifUpdateMessageError uint8 = 3
	NotifHoldTimerExpired   uint8 = 4
	NotifFSMError           uint8 = 5
	NotifCease              uint8 = 6
)

// Cease NOTIFICATION subcodes (RFC 4486). Subcode 0 remains the
// unspecified legacy value RFC 4271 allows.
const (
	CeaseMaxPrefixes        uint8 = 1 // Maximum Number of Prefixes Reached
	CeaseAdminShutdown      uint8 = 2 // Administrative Shutdown
	CeaseDeconfigured       uint8 = 3 // Peer De-configured
	CeaseAdminReset         uint8 = 4 // Administrative Reset
	CeaseConnectionRejected uint8 = 5 // Connection Rejected
)

// CeaseSubcodeString names an RFC 4486 Cease subcode for telemetry labels.
func CeaseSubcodeString(subcode uint8) string {
	switch subcode {
	case CeaseMaxPrefixes:
		return "max_prefixes"
	case CeaseAdminShutdown:
		return "admin_shutdown"
	case CeaseDeconfigured:
		return "peer_deconfigured"
	case CeaseAdminReset:
		return "admin_reset"
	case CeaseConnectionRejected:
		return "connection_rejected"
	}
	return "unspecified"
}

// Type implements Message.
func (*Notification) Type() MsgType { return MsgNotification }

func (n *Notification) marshalBody(b []byte, as4 bool) ([]byte, error) {
	b = append(b, n.Code, n.Subcode)
	return append(b, n.Data...), nil
}

func (n *Notification) Error() string {
	return fmt.Sprintf("bgp: notification code=%d subcode=%d", n.Code, n.Subcode)
}

// Marshal renders a message with its 19-byte header using the classic
// 2-octet AS_PATH encoding (AS_TRANS substituted for wide ASNs).
func Marshal(m Message) ([]byte, error) { return marshalWith(m, false) }

// MarshalAS4 renders a message with 4-octet AS_PATH segments; use it only
// on sessions where both OPENs carried the RFC 6793 capability.
func MarshalAS4(m Message) ([]byte, error) { return marshalWith(m, true) }

func marshalWith(m Message, as4 bool) ([]byte, error) {
	b := make([]byte, headerLen, headerLen+64)
	for i := 0; i < 16; i++ {
		b[i] = 0xff // marker
	}
	b[18] = byte(m.Type())
	b, err := m.marshalBody(b, as4)
	if err != nil {
		return nil, err
	}
	if len(b) > maxMsgLen {
		return nil, fmt.Errorf("bgp: message of %d bytes exceeds the %d-byte maximum", len(b), maxMsgLen)
	}
	binary.BigEndian.PutUint16(b[16:18], uint16(len(b)))
	return b, nil
}

// ReadMessage reads and decodes one message from r, parsing AS_PATH with
// the classic 2-octet encoding.
func ReadMessage(r io.Reader) (Message, error) { return readMessage(r, false) }

// ReadMessageAS4 reads and decodes one message from r, parsing AS_PATH
// with 4-octet ASNs (RFC 6793 negotiated sessions).
func ReadMessageAS4(r io.Reader) (Message, error) { return readMessage(r, true) }

func readMessage(r io.Reader, as4 bool) (Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	for i := 0; i < 16; i++ {
		if hdr[i] != 0xff {
			return nil, fmt.Errorf("bgp: bad marker byte %d: %#02x", i, hdr[i])
		}
	}
	length := binary.BigEndian.Uint16(hdr[16:18])
	if length < headerLen || length > maxMsgLen {
		return nil, fmt.Errorf("bgp: bad message length %d", length)
	}
	body := make([]byte, length-headerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodeBody(MsgType(hdr[18]), body, as4)
}

// Decode parses a full message (header included) from a byte slice using
// the classic 2-octet AS_PATH encoding.
func Decode(b []byte) (Message, error) { return decode(b, false) }

// DecodeAS4 parses a full message with 4-octet AS_PATH segments.
func DecodeAS4(b []byte) (Message, error) { return decode(b, true) }

func decode(b []byte, as4 bool) (Message, error) {
	if len(b) < headerLen {
		return nil, fmt.Errorf("bgp: message truncated: %d bytes", len(b))
	}
	for i := 0; i < 16; i++ {
		if b[i] != 0xff {
			return nil, fmt.Errorf("bgp: bad marker byte %d: %#02x", i, b[i])
		}
	}
	length := binary.BigEndian.Uint16(b[16:18])
	if int(length) != len(b) {
		return nil, fmt.Errorf("bgp: length field %d does not match %d bytes", length, len(b))
	}
	return decodeBody(MsgType(b[18]), b[headerLen:], as4)
}

func decodeBody(t MsgType, body []byte, as4 bool) (Message, error) {
	switch t {
	case MsgOpen:
		return decodeOpen(body)
	case MsgUpdate:
		return decodeUpdate(body, as4)
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, fmt.Errorf("bgp: KEEPALIVE with %d body bytes", len(body))
		}
		return &Keepalive{}, nil
	case MsgNotification:
		if len(body) < 2 {
			return nil, fmt.Errorf("bgp: NOTIFICATION truncated")
		}
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	}
	return nil, fmt.Errorf("bgp: unknown message type %d", t)
}

func decodeOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, fmt.Errorf("bgp: OPEN truncated: %d bytes", len(body))
	}
	if body[0] != Version {
		return nil, fmt.Errorf("bgp: unsupported version %d", body[0])
	}
	o := &Open{
		AS:       binary.BigEndian.Uint16(body[1:3]),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		BGPID:    netip.AddrFrom4([4]byte(body[5:9])),
	}
	optLen := int(body[9])
	if len(body) != 10+optLen {
		return nil, fmt.Errorf("bgp: OPEN optional parameter length %d does not match body", optLen)
	}
	// Walk optional parameters; unknown parameter and capability types are
	// skipped (RFC 5492 §4 — absence simply means the capability is unused).
	opts := body[10:]
	for len(opts) > 0 {
		if len(opts) < 2 {
			return nil, fmt.Errorf("bgp: OPEN optional parameter truncated")
		}
		pType, pLen := opts[0], int(opts[1])
		if len(opts) < 2+pLen {
			return nil, fmt.Errorf("bgp: OPEN optional parameter length %d overruns", pLen)
		}
		if pType == optParamCapabilities {
			caps := opts[2 : 2+pLen]
			for len(caps) > 0 {
				if len(caps) < 2 {
					return nil, fmt.Errorf("bgp: OPEN capability truncated")
				}
				cCode, cLen := caps[0], int(caps[1])
				if len(caps) < 2+cLen {
					return nil, fmt.Errorf("bgp: OPEN capability length %d overruns", cLen)
				}
				if cCode == capFourOctetAS {
					if cLen != 4 {
						return nil, fmt.Errorf("bgp: 4-octet-AS capability with length %d, want 4", cLen)
					}
					o.CapFourOctetAS = true
					o.FourOctetAS = binary.BigEndian.Uint32(caps[2:6])
				}
				caps = caps[2+cLen:]
			}
		}
		opts = opts[2+pLen:]
	}
	return o, nil
}

func decodeUpdate(body []byte, as4 bool) (*Update, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("bgp: UPDATE truncated: %d bytes", len(body))
	}
	u := &Update{}
	wdLen := int(binary.BigEndian.Uint16(body[0:2]))
	if 2+wdLen+2 > len(body) {
		return nil, fmt.Errorf("bgp: UPDATE withdrawn length %d overruns body", wdLen)
	}
	var err error
	u.Withdrawn, err = parsePrefixes(body[2 : 2+wdLen])
	if err != nil {
		return nil, err
	}
	rest := body[2+wdLen:]
	attrLen := int(binary.BigEndian.Uint16(rest[0:2]))
	if 2+attrLen > len(rest) {
		return nil, fmt.Errorf("bgp: UPDATE attribute length %d overruns body", attrLen)
	}
	if attrLen > 0 {
		u.Attrs, err = parsePathAttrs(rest[2:2+attrLen], as4)
		if err != nil {
			var ae *AttrError
			if errors.As(err, &ae) && ae.Recoverable {
				// RFC 7606 treat-as-withdraw: the attribute boundaries were
				// intact (only a value or flag was wrong), so the NLRI is
				// still trustworthy — withdraw it instead of resetting the
				// session. Framing-destroying errors fall through to the
				// session-reset path below.
				nlri, nerr := parsePrefixes(rest[2+attrLen:])
				if nerr != nil {
					return nil, nerr
				}
				u.Withdrawn = append(u.Withdrawn, nlri...)
				u.Attrs = PathAttrs{}
				u.TreatAsWithdraw = true
				return u, nil
			}
			return nil, err
		}
	}
	u.NLRI, err = parsePrefixes(rest[2+attrLen:])
	if err != nil {
		return nil, err
	}
	return u, nil
}

// marshalPrefixes appends prefixes in RFC 4271 NLRI form: one length octet
// followed by ceil(len/8) address octets.
func marshalPrefixes(b []byte, ps []netip.Prefix) ([]byte, error) {
	for _, p := range ps {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("bgp: IPv4 NLRI only, got %v", p)
		}
		p = p.Masked()
		b = append(b, byte(p.Bits()))
		a := p.Addr().As4()
		b = append(b, a[:(p.Bits()+7)/8]...)
	}
	return b, nil
}

func parsePrefixes(b []byte) ([]netip.Prefix, error) {
	var out []netip.Prefix
	for len(b) > 0 {
		bits := int(b[0])
		if bits > 32 {
			return nil, fmt.Errorf("bgp: NLRI prefix length %d", bits)
		}
		n := (bits + 7) / 8
		if len(b) < 1+n {
			return nil, fmt.Errorf("bgp: NLRI truncated")
		}
		var a [4]byte
		copy(a[:], b[1:1+n])
		out = append(out, netip.PrefixFrom(netip.AddrFrom4(a), bits).Masked())
		b = b[1+n:]
	}
	return out, nil
}
