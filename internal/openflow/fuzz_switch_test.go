package openflow

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// fuzzRoundTrip checks one switch-to-controller message type: any message
// decode accepts re-encodes to one that decodes to the same value and
// re-encodes to the same bytes. Decoding may canonicalize (padding, fields
// the controller ignores), but only once.
func fuzzRoundTrip[T any](f *testing.F, seeds [][]byte, decode func(*Message) (T, error), encode func(T, uint32) []byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		v1, err := decode(msg)
		if err != nil {
			return
		}
		wire1 := encode(v1, msg.XID)
		msg2, err := ReadMessage(bytes.NewReader(wire1))
		if err != nil {
			t.Fatalf("re-encoding of %+v does not read back: %v\n %x", v1, err, wire1)
		}
		if msg2.Header != msg.Header {
			t.Fatalf("re-encoding changed the header: %+v -> %+v", msg.Header, msg2.Header)
		}
		v2, err := decode(msg2)
		if err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v\n %x", v1, err, wire1)
		}
		if !reflect.DeepEqual(v1, v2) {
			t.Fatalf("round trip changed the message:\n in  %+v\n out %+v", v1, v2)
		}
		if wire2 := encode(v2, msg.XID); !bytes.Equal(wire1, wire2) {
			t.Fatalf("re-encoding is not a fixpoint:\n %x\n %x", wire1, wire2)
		}
	})
}

// truncated re-frames msg with its body cut to n bytes, so the header's
// length agrees with what follows and only the body decoder sees the cut.
func truncated(msg []byte, n int) []byte {
	return Encode(MsgType(msg[1]), binary.BigEndian.Uint32(msg[4:8]), msg[headerLen:headerLen+n])
}

// FuzzDecodePacketIn: the table-miss punt (the ARP requests the controller
// answers). Seeds: a punted ARP who-has and the same message cut inside
// its fixed header.
func FuzzDecodePacketIn(f *testing.F) {
	arp := []byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x0a, 0, 0, 0, 0x01, 0x08, 0x06, // Ethernet
		0, 1, 0x08, 0, 6, 4, 0, 1, // ARP request
		0x02, 0x0a, 0, 0, 0, 0x01, 172, 31, 0, 1, // sender
		0, 0, 0, 0, 0, 0, 172, 16, 0, 5, // target: a VNH
	}
	msg := EncodePacketIn(&PacketIn{BufferID: 0xffffffff, InPort: 1, Reason: ReasonNoMatch, Data: arp}, 9)
	fuzzRoundTrip(f, [][]byte{msg, truncated(msg, 7)},
		(*Message).DecodePacketIn, EncodePacketIn)
}

// FuzzDecodeFeaturesReply: the switch's answer to the handshake. Seeds: a
// four-port switch and the reply cut before its port count.
func FuzzDecodeFeaturesReply(f *testing.F) {
	msg := EncodeFeaturesReply(&FeaturesReply{DatapathID: 0x5d, NumPorts: 4}, 2)
	fuzzRoundTrip(f, [][]byte{msg, truncated(msg, 20)},
		(*Message).DecodeFeaturesReply, EncodeFeaturesReply)
}

// FuzzDecodePortStatsReply: per-port counters. Seeds: two ports' counters
// and the reply cut inside its second entry.
func FuzzDecodePortStatsReply(f *testing.F) {
	msg := EncodePortStatsReply([]PortStatsEntry{
		{PortNo: 1, RxPackets: 10, TxPackets: 20, RxBytes: 1000, TxBytes: 2000},
		{PortNo: 2, TxPackets: 1, TxBytes: 60},
	}, 10)
	fuzzRoundTrip(f, [][]byte{msg, truncated(msg, 4+portStatsEntryLen+portStatsEntryLen/2)},
		(*Message).DecodePortStatsReply, EncodePortStatsReply)
}
