package dataplane

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"

	"sdx/internal/netutil"
	"sdx/internal/openflow"
	"sdx/internal/packet"
	"sdx/internal/policy"
)

var (
	macRouter = netutil.MustParseMAC("02:00:00:00:00:99")
	ipVNH     = netip.MustParseAddr("172.16.0.5")
)

func setDLDst(mac netutil.MAC) openflow.Action {
	return openflow.Action{Type: openflow.ActionTypeSetDLDst, MAC: mac}
}

// ipv4Frame builds an Ethernet/IPv4 frame byte by byte, so the fields
// Serialize does not model (flags, fragment offset, options) can be set.
// The header checksum is valid; the payload is taken as given.
func ipv4Frame(flagsFrag uint16, ttl uint8, opts []byte, proto uint8, payload []byte) []byte {
	b := append([]byte(nil), macB[:]...)
	b = append(b, macA[:]...)
	b = binary.BigEndian.AppendUint16(b, packet.EtherTypeIPv4)
	ihl := 20 + len(opts)
	b = append(b, 0x40|byte(ihl/4), 0)
	b = binary.BigEndian.AppendUint16(b, uint16(ihl+len(payload)))
	b = binary.BigEndian.AppendUint16(b, 0x1234) // ID
	b = binary.BigEndian.AppendUint16(b, flagsFrag)
	b = append(b, ttl, proto, 0, 0)
	src, dst := ipA.As4(), ipB.As4()
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	b = append(b, opts...)
	binary.BigEndian.PutUint16(b[24:26], packet.Checksum(b[14:14+ihl]))
	return append(b, payload...)
}

// withTransportChecksum fills in the checksum of a TCP or UDP segment
// carried between ipA and ipB (the checksum field must be zero).
func withTransportChecksum(proto uint8, seg []byte) []byte {
	sum := packet.PseudoChecksum(&packet.IPv4{SrcIP: ipA, DstIP: ipB}, proto, seg)
	at := 16
	if proto == packet.ProtoUDP {
		at = 6
	}
	binary.BigEndian.PutUint16(seg[at:], sum)
	return seg
}

// synFrame is a 63-byte TCP SYN carrying what a rebuilt header loses: an
// MSS option, a window other than 65535, a non-zero urgent pointer, DF and
// a TTL other than 64.
func synFrame() []byte {
	seg := []byte{
		0x0f, 0xa0, 0x00, 0x50, // ports 4000 -> 80
		0, 0, 0, 1, 0, 0, 0, 0, // seq, ack
		6 << 4, packet.TCPSyn | 0x20, // data offset 24 bytes; SYN, URG
		0x03, 0xe8, // window 1000
		0, 0, // checksum
		0, 7, // urgent pointer
		2, 4, 0x05, 0xb4, // MSS 1460
		'h', 'e', 'l', 'l', 'o',
	}
	return ipv4Frame(0x4000, 7, nil, packet.ProtoTCP, withTransportChecksum(packet.ProtoTCP, seg))
}

// udpFragments splits a 3000-byte UDP datagram to port 80 into three IPv4
// fragments. The second and third fragments start with bytes that read as
// a UDP header to port 80: a decoder that parses a fragment's payload as
// transport would match them on that garbage.
func udpFragments() [][]byte {
	dgram := make([]byte, 3000)
	copy(dgram, []byte{0x0f, 0xa0, 0x00, 0x50, 0x0b, 0xb8}) // 4000 -> 80, length 3000
	for i := 8; i < len(dgram); i++ {
		dgram[i] = byte(i)
	}
	fake := []byte{0x0f, 0xa0, 0x00, 0x50, 0x00, 0x08, 0, 0}
	copy(dgram[48:], fake)
	copy(dgram[1544:], fake)
	withTransportChecksum(packet.ProtoUDP, dgram)
	const mf = 0x2000
	return [][]byte{
		ipv4Frame(mf|0, 64, nil, packet.ProtoUDP, dgram[:48]),
		ipv4Frame(mf|48/8, 64, nil, packet.ProtoUDP, dgram[48:1544]),
		ipv4Frame(1544/8, 64, nil, packet.ProtoUDP, dgram[1544:]),
	}
}

// equalExceptDstMAC fails the test unless out is in with only bytes 0–5
// replaced by mac.
func equalExceptDstMAC(t *testing.T, in, out []byte, mac netutil.MAC) {
	t.Helper()
	want := append([]byte(nil), in...)
	copy(want, mac[:])
	if !bytes.Equal(out, want) {
		t.Fatalf("rewritten frame differs beyond the destination MAC:\n in  %x\n out %x\n want %x", in, out, want)
	}
}

// A destination-MAC rewrite changes bytes 0–5 and nothing else: the TCP
// options, window, urgent pointer, DF and TTL survive it.
func TestRewritePreservesSYN(t *testing.T) {
	sw, sinks := newTestSwitch()
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1),
		Priority: 1,
		Actions:  []openflow.Action{setDLDst(macRouter), openflow.Output(2)},
	})
	in := synFrame()
	if len(in) != 63 {
		t.Fatalf("SYN frame is %d bytes, want 63", len(in))
	}
	orig := append([]byte(nil), in...)
	if err := sw.Inject(1, in); err != nil {
		t.Fatal(err)
	}
	if sinks[2].count() != 1 {
		t.Fatalf("port 2 got %d frames, want 1", sinks[2].count())
	}
	if !bytes.Equal(in, orig) {
		t.Fatal("the switch wrote into the received frame")
	}
	equalExceptDstMAC(t, in, sinks[2].frames[0], macRouter)
}

// Every fragment of a datagram matches the same rule — a fragment exposes
// no ports, so the port-80 rule matches none of them — and leaves intact.
func TestFragmentsForwardWhole(t *testing.T) {
	sw, sinks := newTestSwitch()
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1).DstPort(80),
		Priority: 10,
		Actions:  []openflow.Action{setDLDst(macB), openflow.Output(2)},
	})
	sw.Table.Add(&FlowEntry{
		Match:    policy.MatchAll.Port(1),
		Priority: 1,
		Actions:  []openflow.Action{setDLDst(macRouter), openflow.Output(3)},
	})
	frags := udpFragments()
	if err := sw.InjectBatch(1, frags); err != nil {
		t.Fatal(err)
	}
	if n := sinks[2].count(); n != 0 {
		t.Fatalf("%d fragments matched the port-80 rule", n)
	}
	if n := sinks[3].count(); n != len(frags) {
		t.Fatalf("default rule forwarded %d of %d fragments", n, len(frags))
	}
	for i, in := range frags {
		equalExceptDstMAC(t, in, sinks[3].frames[i], macRouter)
	}
}

// An address rewrite on the first fragment updates the transport checksum,
// which covers the whole datagram; a port rewrite on any fragment is a
// no-op.
func TestFragmentRewrites(t *testing.T) {
	frags := udpFragments()
	first, err := packet.Decode(frags[0])
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), frags[0]...)
	first.PatchL4Port(out, true, 8080)
	if !bytes.Equal(out, frags[0]) {
		t.Fatal("port rewrite changed a fragment")
	}
	first.PatchIPv4Addr(out, true, ipVNH)
	if packet.Checksum(out[14:34]) != 0 {
		t.Fatal("IPv4 header checksum invalid after the address rewrite")
	}
	// Reassemble with the rewritten first fragment: the datagram checksum
	// must verify against the new destination.
	dgram := append(append(append([]byte(nil), out[34:]...), frags[1][34:]...), frags[2][34:]...)
	if packet.PseudoChecksum(&packet.IPv4{SrcIP: ipA, DstIP: ipVNH}, packet.ProtoUDP, dgram) != 0 {
		t.Fatal("reassembled UDP checksum invalid after the address rewrite")
	}
}

// FuzzRewritePreservesFrame: any frame that decodes leaves a
// [SetDLDst, Output] rule equal to its input but for bytes 0–5, and a
// [SetNWDst, SetTPDst, Output] rule changing only those fields and the
// checksums that cover them — a checksum valid on input stays valid. The
// received buffer is never written.
func FuzzRewritePreservesFrame(f *testing.F) {
	f.Add(synFrame())
	for _, fr := range udpFragments() {
		f.Add(fr)
	}
	f.Add(udpFrame(80))
	f.Add(ipv4Frame(0, 64, []byte{1, 1, 1, 0}, packet.ProtoUDP,
		withTransportChecksum(packet.ProtoUDP, []byte{0, 1, 0, 2, 0, 9, 0, 0, 'x'})))

	const newPort = 8080
	sw := NewSwitch(1)
	var out []byte
	sw.AttachPort(1, func([]byte) {})
	sw.AttachPort(2, func([]byte) {})
	sw.AttachPort(3, func(fr []byte) { out = append(out[:0], fr...) })
	sw.Table.Add(&FlowEntry{Match: policy.MatchAll.Port(1), Priority: 1,
		Actions: []openflow.Action{setDLDst(macRouter), openflow.Output(3)}})
	sw.Table.Add(&FlowEntry{Match: policy.MatchAll.Port(2), Priority: 1,
		Actions: []openflow.Action{
			{Type: openflow.ActionTypeSetNWDst, IP: netutil.Addr4From(ipVNH)},
			{Type: openflow.ActionTypeSetTPDst, TP: newPort},
			openflow.Output(3),
		}})

	f.Fuzz(func(t *testing.T, in []byte) {
		pkt, err := packet.Decode(in)
		if err != nil {
			return
		}
		orig := append([]byte(nil), in...)
		send := func(inPort uint16) []byte {
			out = out[:0]
			if err := sw.Inject(inPort, in); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(in, orig) {
				t.Fatal("the switch wrote into the received frame")
			}
			return out
		}
		equalExceptDstMAC(t, in, send(1), macRouter)

		got := send(2)
		if len(got) != len(in) {
			t.Fatalf("rewrite changed the length: %d -> %d", len(in), len(got))
		}
		may := make([]bool, len(in)) // bytes the rewrite may change
		mark := func(at, n int) {
			for i := at; i < at+n; i++ {
				may[i] = true
			}
		}
		ip := pkt.IPv4
		if ip != nil {
			mark(14+10, 2) // header checksum
			mark(14+16, 4) // destination
			if a := netip.AddrFrom4([4]byte(got[30:34])); a != ipVNH {
				t.Fatalf("destination %v, want %v", a, ipVNH)
			}
			if packet.Checksum(in[14:l4Offset(in)]) == 0 && packet.Checksum(got[14:l4Offset(got)]) != 0 {
				t.Fatal("a valid IPv4 header checksum became invalid")
			}
		}
		if ip != nil && ip.FragOff == 0 {
			// The transport checksum, where the first fragment (or the
			// whole datagram) holds it.
			l4 := l4Offset(in)
			segLen := 14 + int(ip.Length) - l4
			switch {
			case ip.Protocol == packet.ProtoTCP && segLen >= 18:
				mark(l4+16, 2)
			case ip.Protocol == packet.ProtoUDP && segLen >= 8:
				if in[l4+6] == 0 && in[l4+7] == 0 {
					break // sent without checksum: must stay zero
				}
				mark(l4+6, 2)
			}
		}
		if pkt.TCP != nil || pkt.UDP != nil {
			l4 := l4Offset(in)
			mark(l4+2, 2)
			if p := binary.BigEndian.Uint16(got[l4+2:]); p != newPort {
				t.Fatalf("destination port %d, want %d", p, newPort)
			}
			seg := in[l4 : 14+int(ip.Length)]
			if pkt.UDP != nil {
				seg = seg[:binary.BigEndian.Uint16(seg[4:6])]
			}
			if transportValid(ip.SrcIP, ip.DstIP, ip.Protocol, seg) {
				outSeg := got[l4 : l4+len(seg)]
				if !transportValid(ip.SrcIP, ipVNH, ip.Protocol, outSeg) {
					t.Fatal("a valid transport checksum became invalid")
				}
			}
		}
		for i := range in {
			if in[i] != got[i] && !may[i] {
				t.Fatalf("byte %d changed (%#02x -> %#02x):\n in  %x\n out %x", i, in[i], got[i], in, got)
			}
		}
	})
}

// l4Offset is where the IPv4 payload of frame starts.
func l4Offset(frame []byte) int { return 14 + int(frame[14]&0x0f)*4 }

// transportValid reports whether seg's TCP or UDP checksum verifies; a UDP
// checksum of zero ("none sent") does not count as valid.
func transportValid(src, dst netip.Addr, proto uint8, seg []byte) bool {
	if proto == packet.ProtoUDP && seg[6] == 0 && seg[7] == 0 {
		return false
	}
	return packet.PseudoChecksum(&packet.IPv4{SrcIP: src, DstIP: dst}, proto, seg) == 0
}
