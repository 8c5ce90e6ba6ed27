package bgp

import (
	"bytes"
	"net/netip"
	"testing"
)

// FuzzDecode: any message Decode or DecodeAS4 accepts marshals with the same
// AS width to bytes that decode again and marshal byte-identically. The
// first decode may rewrite a message — RFC 7606 treat-as-withdraw moves the
// NLRI into Withdrawn, a 2-octet session's wide ASNs become AS_TRANS — so
// the marshaled form is required to be a fixpoint from the second round on.
func FuzzDecode(f *testing.F) {
	wide := *Intern(PathAttrs{
		NextHop:     ma("192.0.2.1"),
		ASPath:      []ASPathSegment{{Type: ASSequence, ASNs: []uint32{65001, 4200000001}}},
		MED:         5,
		HasMED:      true,
		Communities: []uint32{1, 2},
	})
	narrow := *Intern(PathAttrs{
		NextHop:      ma("192.0.2.2"),
		ASPath:       []ASPathSegment{{Type: ASSet, ASNs: []uint32{65002, 65003}}},
		LocalPref:    200,
		HasLocalPref: true,
	})
	updates, err := PackUpdates([]netip.Prefix{mp("198.51.100.0/24")}, []Advertisement{
		{Prefix: mp("10.0.0.0/8"), Attrs: wide},
		{Prefix: mp("10.1.0.0/16"), Attrs: wide},
		{Prefix: mp("172.16.0.0/12"), Attrs: narrow},
	})
	if err != nil {
		f.Fatal(err)
	}
	msgs := []Message{
		&Open{AS: uint16(ASTrans), HoldTime: 90, BGPID: ma("10.0.0.1"), CapFourOctetAS: true, FourOctetAS: 4200000001},
		&Notification{Code: NotifCease, Subcode: CeaseAdminShutdown, Data: []byte("bye")},
		&Keepalive{},
	}
	for _, u := range updates {
		msgs = append(msgs, u)
	}
	for _, m := range msgs {
		for _, marshal := range []func(Message) ([]byte, error){Marshal, MarshalAS4} {
			b, err := marshal(m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	// An UPDATE whose path-attribute section ends inside an attribute
	// header: flags present, type code and length missing.
	truncated := append(bytes.Repeat([]byte{0xff}, 16), 0, 24, byte(MsgUpdate), 0, 0, 0, 1, 0x40)
	f.Add(truncated)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, w := range []struct {
			name    string
			decode  func([]byte) (Message, error)
			marshal func(Message) ([]byte, error)
		}{
			{"2-octet", Decode, Marshal},
			{"4-octet", DecodeAS4, MarshalAS4},
		} {
			m1, err := w.decode(data)
			if err != nil {
				continue
			}
			wire1, err := w.marshal(m1)
			if err != nil {
				t.Fatalf("%s: accepted %T does not marshal: %v\n in %x", w.name, m1, err, data)
			}
			m2, err := w.decode(wire1)
			if err != nil {
				t.Fatalf("%s: marshaled %T does not decode: %v\n %x", w.name, m1, err, wire1)
			}
			wire2, err := w.marshal(m2)
			if err != nil {
				t.Fatalf("%s: re-decoded %T does not marshal: %v\n %x", w.name, m2, err, wire1)
			}
			if !bytes.Equal(wire1, wire2) {
				t.Fatalf("%s: %T is not a fixpoint from the second round:\n in     %x\n round1 %x\n round2 %x",
					w.name, m1, data, wire1, wire2)
			}
		}
	})
}
