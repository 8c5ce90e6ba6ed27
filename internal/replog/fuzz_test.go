package replog

import (
	"bytes"
	"net/netip"
	"testing"
)

// FuzzDecodeEntry: any payload DecodeEntry accepts encodes, decodes again to
// the same entry, and re-encodes byte-identically. The first decode may
// normalise what it reads (the UPDATE codec's treat-as-withdraw, attribute
// order), so the encoded form is required to be a fixpoint from the second
// round on.
func FuzzDecodeEntry(f *testing.F) {
	u := testUpdate(7)
	u.Withdrawn = []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24"), netip.MustParsePrefix("198.51.100.0/22")}
	u.NLRI = append(u.NLRI, netip.MustParsePrefix("203.0.113.0/24"))
	for _, e := range []*Entry{
		{Seq: 1, Kind: KindUpdate, From: "A", PeerAS: 4200000001,
			PeerID: netip.MustParseAddr("172.31.0.1"), Update: u},
		{Seq: 2, Kind: KindFlush, From: "B", PeerAS: 65002, PeerID: netip.MustParseAddr("172.31.0.2")},
		{Seq: 3, Kind: KindMark},
	} {
		b, err := e.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if e.Kind == KindUpdate {
			f.Add(b[:len(b)-3]) // the UPDATE body cut short
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		e1, err := DecodeEntry(data)
		if err != nil {
			return
		}
		wire1, err := e1.Encode()
		if err != nil {
			t.Fatalf("accepted entry does not encode: %v\n in %x", err, data)
		}
		e2, err := DecodeEntry(wire1)
		if err != nil {
			t.Fatalf("encoded entry does not decode: %v\n %x", err, wire1)
		}
		if e1.Seq != e2.Seq || e1.Kind != e2.Kind || e1.From != e2.From ||
			e1.PeerAS != e2.PeerAS || e1.PeerID != e2.PeerID || (e1.Update == nil) != (e2.Update == nil) {
			t.Fatalf("round trip changed the entry:\n first  %+v\n second %+v", e1, e2)
		}
		wire2, err := e2.Encode()
		if err != nil {
			t.Fatalf("re-decoded entry does not encode: %v\n %x", err, wire1)
		}
		if !bytes.Equal(wire1, wire2) {
			t.Fatalf("not a fixpoint from the second round:\n in     %x\n round1 %x\n round2 %x", data, wire1, wire2)
		}
	})
}
