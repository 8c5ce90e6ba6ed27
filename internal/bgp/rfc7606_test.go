package bgp

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"sdx/internal/telemetry"
)

// buildUpdateWire hand-assembles an UPDATE message around raw attribute
// bytes, so tests can express malformations the marshaller refuses to
// produce.
func buildUpdateWire(attrs []byte, nlri ...byte) []byte {
	body := []byte{0, 0} // no withdrawn routes
	body = append(body, byte(len(attrs)>>8), byte(len(attrs)))
	body = append(body, attrs...)
	body = append(body, nlri...)
	msg := make([]byte, 19)
	for i := 0; i < 16; i++ {
		msg[i] = 0xff
	}
	msg[18] = byte(MsgUpdate)
	msg = append(msg, body...)
	msg[16], msg[17] = byte(len(msg)>>8), byte(len(msg))
	return msg
}

// goodAttrs renders a well-formed mandatory attribute set.
func goodAttrs() []byte {
	b := appendAttr(nil, flagTransitive, attrOrigin, []byte{OriginIGP})
	b = appendAttr(b, flagTransitive, attrASPath, []byte{ASSequence, 1, 0xfd, 0xe9}) // AS 65001
	return appendAttr(b, flagTransitive, attrNextHop, []byte{10, 0, 0, 1})
}

func TestTreatAsWithdrawRecoverableClasses(t *testing.T) {
	nlri := []byte{24, 10, 1, 2} // 10.1.2.0/24
	cases := []struct {
		name  string
		attrs []byte
	}{
		{"bad MED length", append(goodAttrs(),
			appendAttr(nil, flagOptional, attrMED, []byte{0, 0, 1})...)},
		{"bad ORIGIN length", append(
			appendAttr(nil, flagTransitive, attrOrigin, []byte{0, 0}),
			goodAttrs()[4:]...)}, // [4:] skips the well-formed ORIGIN
		{"bad COMMUNITIES modulus", append(goodAttrs(),
			appendAttr(nil, flagOptional|flagTransitive, attrCommunities, []byte{1, 2, 3})...)},
		{"optional flag on well-known ORIGIN", append(
			appendAttr(nil, flagOptional|flagTransitive, attrOrigin, []byte{0}),
			goodAttrs()[4:]...)},
		{"transitive flag on MED", append(goodAttrs(),
			appendAttr(nil, flagOptional|flagTransitive, attrMED, []byte{0, 0, 0, 1})...)},
		{"malformed AS_PATH segment", append(
			appendAttr(nil, flagTransitive, attrOrigin, []byte{0}),
			append(
				appendAttr(nil, flagTransitive, attrASPath, []byte{9 /* bad segment type */, 1, 0, 1}),
				appendAttr(nil, flagTransitive, attrNextHop, []byte{10, 0, 0, 1})...)...)},
		{"zero-length AS_PATH segment", append(
			appendAttr(nil, flagTransitive, attrOrigin, []byte{0}),
			append(
				appendAttr(nil, flagTransitive, attrASPath, []byte{ASSequence, 0}),
				appendAttr(nil, flagTransitive, attrNextHop, []byte{10, 0, 0, 1})...)...)},
		{"missing NEXT_HOP", appendAttr(nil, flagTransitive, attrOrigin, []byte{0})},
		{"no path attributes", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg, err := Decode(buildUpdateWire(tc.attrs, nlri...))
			if err != nil {
				t.Fatalf("session-killing error for recoverable class: %v", err)
			}
			u, ok := msg.(*Update)
			if !ok {
				t.Fatalf("decoded %T", msg)
			}
			if !u.TreatAsWithdraw {
				t.Fatal("TreatAsWithdraw not set")
			}
			want := netip.MustParsePrefix("10.1.2.0/24")
			if len(u.Withdrawn) != 1 || u.Withdrawn[0] != want {
				t.Fatalf("Withdrawn = %v, want [%v]", u.Withdrawn, want)
			}
			if len(u.NLRI) != 0 {
				t.Fatalf("NLRI survived demotion: %v", u.NLRI)
			}
		})
	}
}

func TestUnrecoverableAttrErrorsStillFail(t *testing.T) {
	cases := []struct {
		name  string
		attrs []byte
	}{
		{"attribute header truncated", append(goodAttrs(), flagTransitive, attrOrigin)},
		{"extended length header truncated", append(goodAttrs(), flagTransitive|flagExtLen, attrCommunities, 0)},
		{"value overruns attribute bytes", append(goodAttrs(), flagOptional, attrMED, 200)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(buildUpdateWire(tc.attrs, 24, 10, 1, 2))
			if err == nil {
				t.Fatal("framing-destroying malformation decoded successfully")
			}
		})
	}
}

// TestSessionTreatAsWithdrawLive drives a malformed UPDATE through a real
// session pair: the receiver must stay Established, hand the handler a
// withdrawal, bump sdx_bgp_treat_as_withdraw_total — and then reset with an
// UPDATE-message-error NOTIFICATION when an unrecoverable one arrives.
func TestSessionTreatAsWithdrawLive(t *testing.T) {
	reg := telemetry.NewRegistry()
	metrics := NewMetrics(reg)
	client, server := pipePair(t)

	srvSess := NewSession(server, SessionConfig{
		LocalAS: 64512, LocalID: netip.MustParseAddr("10.255.0.1"),
		HoldTime: 0, Metrics: metrics,
	})
	cliSess := NewSession(client, SessionConfig{
		LocalAS: 65001, LocalID: netip.MustParseAddr("10.255.0.2"),
		HoldTime: 0,
	})
	errc := make(chan error, 2)
	go func() { errc <- srvSess.Handshake() }()
	go func() { errc <- cliSess.Handshake() }()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("handshake: %v", err)
		}
	}

	got := make(chan *Update, 4)
	runDone := make(chan error, 1)
	go func() { runDone <- srvSess.Run(func(u *Update) { got <- u }) }()

	// Sessions negotiated as4 between themselves, so hand-build the wire
	// with 4-octet AS_PATH segments.
	badMED := append(goodAttrs4(), appendAttr(nil, flagOptional, attrMED, []byte{1, 2, 3})...)
	if _, err := client.Write(buildUpdateWire(badMED, 24, 10, 9, 9)); err != nil {
		t.Fatalf("writing malformed UPDATE: %v", err)
	}
	select {
	case u := <-got:
		if !u.TreatAsWithdraw {
			t.Fatalf("handler got %+v, want treat-as-withdraw", u)
		}
		if len(u.Withdrawn) != 1 || u.Withdrawn[0] != netip.MustParsePrefix("10.9.9.0/24") {
			t.Fatalf("Withdrawn = %v", u.Withdrawn)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never saw the demoted UPDATE")
	}
	if srvSess.State() != StateEstablished {
		t.Fatalf("session state %v after recoverable error, want Established", srvSess.State())
	}
	if n := metrics.TreatAsWithdraws.Value(); n != 1 {
		t.Fatalf("sdx_bgp_treat_as_withdraw_total = %v, want 1", n)
	}

	// Now an unrecoverable one: truncated attribute header. The receiver
	// must reset with an UPDATE-message-error NOTIFICATION.
	notif := make(chan *Notification, 1)
	go func() {
		for {
			msg, err := ReadMessage(client)
			if err != nil {
				return
			}
			if n, ok := msg.(*Notification); ok {
				notif <- n
				return
			}
		}
	}()
	broken := append(goodAttrs4(), flagTransitive, attrOrigin) // header cut short
	if _, err := client.Write(buildUpdateWire(broken, 24, 10, 8, 8)); err != nil {
		t.Fatalf("writing broken UPDATE: %v", err)
	}
	select {
	case err := <-runDone:
		if err == nil {
			t.Fatal("Run returned nil for unrecoverable malformation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session survived an unrecoverable malformation")
	}
	select {
	case n := <-notif:
		if n.Code != NotifUpdateMessageError {
			t.Fatalf("NOTIFICATION code %d, want %d", n.Code, NotifUpdateMessageError)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no NOTIFICATION received before close")
	}
}

// goodAttrs4 is goodAttrs with a 4-octet AS_PATH segment, for sessions
// that negotiated RFC 6793 capability.
func goodAttrs4() []byte {
	b := appendAttr(nil, flagTransitive, attrOrigin, []byte{OriginIGP})
	path := []byte{ASSequence, 1}
	path = binary.BigEndian.AppendUint32(path, 65001)
	b = appendAttr(b, flagTransitive, attrASPath, path)
	return appendAttr(b, flagTransitive, attrNextHop, []byte{10, 0, 0, 1})
}
