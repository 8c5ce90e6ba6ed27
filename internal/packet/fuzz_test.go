package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// synWire is a TCP SYN whose header Serialize does not model — an MSS
// option, window 1000, a non-zero urgent pointer — carried as the opaque
// payload of an unparsed IPv4 datagram with DF set and TTL 7.
func synWire() []byte {
	seg := []byte{
		0x0f, 0xa0, 0x00, 0x50, // ports 4000 -> 80
		0, 0, 0, 1, 0, 0, 0, 0, // seq, ack
		6 << 4, TCPSyn | 0x20, // data offset 24 bytes; SYN, URG
		0x03, 0xe8, // window 1000
		0, 0, // checksum
		0, 7, // urgent pointer
		2, 4, 0x05, 0xb4, // MSS 1460
		'h', 'e', 'l', 'l', 'o',
	}
	ip := &IPv4{ID: 0x1234, Flags: IPv4DontFragment, TTL: 7, Protocol: ProtoTCP, SrcIP: ipA, DstIP: ipB}
	binary.BigEndian.PutUint16(seg[16:], PseudoChecksum(ip, ProtoTCP, seg))
	return (&Packet{Eth: Ethernet{DstMAC: macB, SrcMAC: macA, EtherType: EtherTypeIPv4}, IPv4: ip, Payload: seg}).Serialize()
}

// fragmentWires splits a 3000-byte UDP datagram to port 80 into three
// IPv4 fragments; the later two start with bytes that read as a UDP header.
func fragmentWires() [][]byte {
	dgram := make([]byte, 3000)
	copy(dgram, []byte{0x0f, 0xa0, 0x00, 0x50, 0x0b, 0xb8})
	fake := []byte{0x0f, 0xa0, 0x00, 0x50, 0x00, 0x08}
	copy(dgram[48:], fake)
	copy(dgram[1544:], fake)
	var out [][]byte
	for _, f := range []struct {
		from, to int
		flags    uint8
	}{{0, 48, IPv4MoreFragments}, {48, 1544, IPv4MoreFragments}, {1544, 3000, 0}} {
		ip := &IPv4{ID: 0x1234, Flags: f.flags, FragOff: uint16(f.from / 8), TTL: 64, Protocol: ProtoUDP, SrcIP: ipA, DstIP: ipB}
		p := &Packet{Eth: Ethernet{DstMAC: macB, SrcMAC: macA, EtherType: EtherTypeIPv4}, IPv4: ip, Payload: dgram[f.from:f.to]}
		out = append(out, p.Serialize())
	}
	return out
}

// A fragment exposes no transport header: the first one because its UDP
// length overruns it, the later ones because their bytes are payload.
func TestDecodeFragments(t *testing.T) {
	for i, wire := range fragmentWires() {
		p, err := Decode(wire)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if p.UDP != nil || p.TCP != nil || p.DstPort() != 0 {
			t.Fatalf("fragment %d parsed a transport header: %v", i, p)
		}
		if !p.IPv4.IsFragment() || len(p.Payload) != len(wire)-34 {
			t.Fatalf("fragment %d: flags %d offset %d payload %d bytes", i, p.IPv4.Flags, p.IPv4.FragOff, len(p.Payload))
		}
		if again := p.Serialize(); !bytes.Equal(again, wire) {
			t.Fatalf("fragment %d did not round-trip:\n in  %x\n out %x", i, wire, again)
		}
	}
}

// Patching a field and fixing the checksums incrementally gives the same
// frame as serializing with the field changed.
func TestPatchMatchesSerialize(t *testing.T) {
	for _, p := range []*Packet{
		NewUDP(macA, macB, ipA, ipB, 4000, 80, []byte("payload")),
		NewTCP(macA, macB, ipA, ipB, 4000, 80, TCPAck, []byte("payload!")),
	} {
		wire := p.Serialize()
		dec, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		patched := append([]byte(nil), wire...)
		PatchEthDst(patched, macA)
		PatchEthSrc(patched, macB)
		dec.PatchIPv4Addr(patched, false, ipB)
		dec.PatchIPv4Addr(patched, true, ipA)
		dec.PatchL4Port(patched, false, 80)
		dec.PatchL4Port(patched, true, 4000)

		p.Eth.DstMAC, p.Eth.SrcMAC = macA, macB
		p.IPv4.SrcIP, p.IPv4.DstIP = ipB, ipA
		if p.UDP != nil {
			p.UDP.SrcPort, p.UDP.DstPort = 80, 4000
		} else {
			p.TCP.SrcPort, p.TCP.DstPort = 80, 4000
		}
		if want := p.Serialize(); !bytes.Equal(patched, want) {
			t.Errorf("%v: patched\n %x\nwant\n %x", p, patched, want)
		}
	}
}

// FuzzDecode: a decoded frame's serialization decodes to the same modeled
// fields. Serialize drops what it does not model (options, padding) and
// recomputes the total length, and it sends a zero TTL as 64 — so those are
// the only differences allowed.
func FuzzDecode(f *testing.F) {
	f.Add(synWire())
	for _, w := range fragmentWires() {
		f.Add(w)
	}
	f.Add(NewUDP(macA, macB, ipA, ipB, 4000, 80, []byte("x")).Serialize())
	f.Add(NewTCP(macA, macB, ipA, ipB, 4000, 443, TCPSyn, nil).Serialize())
	f.Add(NewARPRequest(macA, ipA, ipB).Serialize())

	f.Fuzz(func(t *testing.T, data []byte) {
		p1, err := Decode(data)
		if err != nil {
			return
		}
		wire := p1.Serialize()
		p2, err := Decode(wire)
		if err != nil {
			t.Fatalf("serialization of %v does not decode: %v\n %x", p1, err, wire)
		}
		if p1.IPv4 != nil && p1.IPv4.TTL == 0 {
			p1.IPv4.TTL = 64
		}
		if !sameModeledFields(p1, p2) {
			t.Fatalf("round trip changed the frame:\n in  %v %+v\n out %v %+v", p1, p1.IPv4, p2, p2.IPv4)
		}
	})
}

// sameModeledFields compares two decodes layer by layer, ignoring the IPv4
// total length.
func sameModeledFields(a, b *Packet) bool {
	if a.Eth != b.Eth || !bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	if (a.ARP == nil) != (b.ARP == nil) || (a.IPv4 == nil) != (b.IPv4 == nil) ||
		(a.TCP == nil) != (b.TCP == nil) || (a.UDP == nil) != (b.UDP == nil) {
		return false
	}
	if a.ARP != nil && *a.ARP != *b.ARP {
		return false
	}
	if a.IPv4 != nil {
		ia, ib := *a.IPv4, *b.IPv4
		ia.Length, ib.Length = 0, 0
		if ia != ib {
			return false
		}
	}
	if a.TCP != nil && *a.TCP != *b.TCP {
		return false
	}
	return a.UDP == nil || *a.UDP == *b.UDP
}
