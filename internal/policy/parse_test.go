package policy

import (
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"testing"
)

func symbols() map[string]Policy {
	return map[string]Policy{
		"B":  Fwd(100),
		"C":  Fwd(101),
		"B1": Fwd(0x8002),
		"B2": Fwd(0x8003),
		"I1": ModPolicy(Identity.SetDstIP(netip.MustParseAddr("192.168.144.32")).SetPort(0x8002)),
		"I2": ModPolicy(Identity.SetDstIP(netip.MustParseAddr("192.168.184.53")).SetPort(0x8002)),
	}
}

func mustParse(t *testing.T, src string) Policy {
	t.Helper()
	pol, err := Parse(src, symbols())
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return pol
}

// The paper's §3.1 application-specific peering policy, verbatim.
func TestParsePaperAppPeering(t *testing.T) {
	pol := mustParse(t, `(match(dstport=80) >> fwd(B)) + (match(dstport=443) >> fwd(C))`)
	cl := Compile(pol)
	if out := cl.Eval(pktWith(1, "10.0.0.1", 80)); len(out) != 1 || out[0].Port != 100 {
		t.Errorf("web -> %+v", out)
	}
	if out := cl.Eval(pktWith(1, "10.0.0.1", 443)); len(out) != 1 || out[0].Port != 101 {
		t.Errorf("https -> %+v", out)
	}
	if out := cl.Eval(pktWith(1, "10.0.0.1", 22)); len(out) != 0 {
		t.Errorf("ssh should drop: %+v", out)
	}
}

// The paper's §3.1 inbound traffic engineering policy, verbatim.
func TestParsePaperInboundTE(t *testing.T) {
	pol := mustParse(t, `
		(match(srcip=0.0.0.0/1)   >> fwd(B1)) +
		(match(srcip=128.0.0.0/1) >> fwd(B2))`)
	cl := Compile(pol)
	pkt := pktWith(1, "10.0.0.1", 80)
	pkt.SrcIP = netip.MustParseAddr("4.4.4.4")
	if out := cl.Eval(pkt); len(out) != 1 || out[0].Port != 0x8002 {
		t.Errorf("low half -> %+v", out)
	}
	pkt.SrcIP = netip.MustParseAddr("200.0.0.1")
	if out := cl.Eval(pkt); len(out) != 1 || out[0].Port != 0x8003 {
		t.Errorf("high half -> %+v", out)
	}
}

// The paper's §3.1 wide-area load balancing policy (bare host address in a
// match, nested parallel under sequential).
func TestParsePaperLoadBalance(t *testing.T) {
	pol := mustParse(t, `
		match(dstip=74.125.1.1) >>
		((match(srcip=96.25.160.0/24)   >> mod(dstip=74.125.224.161)) +
		 (match(srcip=128.125.163.0/24) >> mod(dstip=74.125.137.139)))`)
	cl := Compile(pol)
	pkt := pktWith(1, "74.125.1.1", 80)
	pkt.SrcIP = netip.MustParseAddr("96.25.160.9")
	out := cl.Eval(pkt)
	if len(out) != 1 || out[0].DstIP != netip.MustParseAddr("74.125.224.161") {
		t.Errorf("client 1 -> %+v", out)
	}
}

func TestParseIf(t *testing.T) {
	pol := mustParse(t, `if(match(srcip=204.57.0.67), fwd(I2), fwd(I1))`)
	cl := Compile(pol)
	pkt := pktWith(1, "74.125.1.1", 80)
	pkt.SrcIP = netip.MustParseAddr("204.57.0.67")
	if out := cl.Eval(pkt); len(out) != 1 || out[0].DstIP != netip.MustParseAddr("192.168.184.53") {
		t.Errorf("moved client -> %+v", out)
	}
	pkt.SrcIP = netip.MustParseAddr("1.2.3.4")
	if out := cl.Eval(pkt); len(out) != 1 || out[0].DstIP != netip.MustParseAddr("192.168.144.32") {
		t.Errorf("other client -> %+v", out)
	}
}

func TestParseIfCompoundPredicate(t *testing.T) {
	pol := mustParse(t, `if(match(dstport=80) + match(dstport=8080), fwd(B), drop)`)
	cl := Compile(pol)
	if out := cl.Eval(pktWith(1, "10.0.0.1", 8080)); len(out) != 1 {
		t.Errorf("8080 should pass: %+v", out)
	}
	if out := cl.Eval(pktWith(1, "10.0.0.1", 22)); len(out) != 0 {
		t.Errorf("22 should drop: %+v", out)
	}
	// Conjunction via >>.
	pol2 := mustParse(t, `if(match(dstport=80) >> match(proto=6), fwd(B), drop)`)
	cl2 := Compile(pol2)
	tcp := pktWith(1, "10.0.0.1", 80)
	tcp.Proto = 6
	if out := cl2.Eval(tcp); len(out) != 1 {
		t.Error("tcp/80 should pass")
	}
	udp := pktWith(1, "10.0.0.1", 80)
	udp.Proto = 17
	if out := cl2.Eval(udp); len(out) != 0 {
		t.Error("udp/80 should fail the conjunction")
	}
}

func TestParseDropIdentity(t *testing.T) {
	if out := Compile(mustParse(t, `drop`)).Eval(pktWith(1, "10.0.0.1", 80)); len(out) != 0 {
		t.Error("drop should drop")
	}
	if out := Compile(mustParse(t, `identity`)).Eval(pktWith(1, "10.0.0.1", 80)); len(out) != 1 {
		t.Error("identity should pass")
	}
}

func TestParseFieldKinds(t *testing.T) {
	pol := mustParse(t, `match(srcmac=02:00:00:00:00:01, ethtype=0x0800, proto=17, srcport=53) >> fwd(B)`)
	cl := Compile(pol)
	pkt := Packet{
		Port:    1,
		SrcMAC:  [6]byte{2, 0, 0, 0, 0, 1},
		EthType: 0x0800,
		SrcIP:   netip.MustParseAddr("1.1.1.1"),
		DstIP:   netip.MustParseAddr("2.2.2.2"),
		Proto:   17,
		SrcPort: 53,
	}
	if out := cl.Eval(pkt); len(out) != 1 {
		t.Errorf("full-field match failed: %+v", out)
	}
}

func TestParseModFields(t *testing.T) {
	pol := mustParse(t, `mod(srcip=9.9.9.9, srcport=1234, dstmac=02:0b:00:00:00:01)`)
	out := Compile(pol).Eval(pktWith(1, "10.0.0.1", 80))
	if len(out) != 1 || out[0].SrcIP != netip.MustParseAddr("9.9.9.9") ||
		out[0].SrcPort != 1234 || out[0].DstMAC != [6]byte{2, 0xb, 0, 0, 0, 1} {
		t.Errorf("mod result = %+v", out)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`match(dstport=80) >>`,
		`match(dstport=80) fwd(B)`,
		`fwd(NOPE)`,
		`fwd()`,
		`match(dstport=80`,
		`match(nosuchfield=1) >> fwd(B)`,
		`match(dstport=99999) >> fwd(B)`,
		`match(srcip=abc) >> fwd(B)`,
		`mod(dstip=10.0.0.0/8)`,
		`match(dstport=80, dstport=81) >> fwd(B)`,
		`frobnicate(B)`,
		`if(fwd(B), drop, drop)`,
		`(match(dstport=80) >> fwd(B)`,
		`match(dstport=80) >> fwd(B)) + drop`,
		`match(dstport=80) > fwd(B)`,
		`match(dstip=2001:db8::/32) >> fwd(B)`,
		`match(srcip=::1) >> fwd(B)`,
		`match(srcip=::ffff:10.0.0.0/104) >> fwd(B)`,
		`mod(dstip=2001:db8::1)`,
		`mod(srcip=::ffff:10.0.0.1)`,
	}
	for _, src := range cases {
		if _, err := Parse(src, symbols()); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// The fabric matches IPv4 headers and OpenFlow 1.0 carries 32-bit
// nw_src/nw_dst, so an IPv6 address in a match or mod is an error that
// names the field, never a rule installed as 0.0.0.0/N.
func TestParseRejectsIPv6(t *testing.T) {
	cases := map[string]string{
		`match(dstip=2001:db8::/32) >> fwd(B)`: "dstip",
		`match(srcip=::1)`:                     "srcip",
		`mod(dstip=2001:db8::1)`:               "mod dstip",
		`mod(srcip=::ffff:10.0.0.1)`:           "mod srcip",
	}
	for src, field := range cases {
		_, err := Parse(src, symbols())
		if err == nil || !strings.Contains(err.Error(), "policy: "+field+": ") {
			t.Errorf("Parse(%q) = %v, want an error naming %s", src, err, field)
		}
	}
}

func TestParseEmptyMatchIsMatchAll(t *testing.T) {
	pol := mustParse(t, `match() >> fwd(B)`)
	if out := Compile(pol).Eval(pktWith(3, "10.0.0.1", 22)); len(out) != 1 || out[0].Port != 100 {
		t.Errorf("match() should match everything: %+v", out)
	}
}

// Round-trip property: parsing the String() rendering of a random policy
// (restricted to the printable subset) is semantically equivalent.
func TestParseStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	syms := symbols()
	for trial := 0; trial < 100; trial++ {
		orig := randPrintablePolicy(rng, 2)
		back, err := Parse(orig.String(), syms)
		if err != nil {
			t.Fatalf("re-parsing %q: %v", orig.String(), err)
		}
		for probe := 0; probe < 30; probe++ {
			pkt := randPacket(rng)
			if !packetsEqual(orig.Eval(pkt), back.Eval(pkt)) {
				t.Fatalf("round trip changed semantics for %q on %+v", orig.String(), pkt)
			}
		}
	}
}

// randPrintablePolicy generates policies whose String() is re-parseable:
// matches, mods (printed as mod(...)), drop, identity, +, >>.
func randPrintablePolicy(rng *rand.Rand, depth int) Policy {
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return MatchPolicy(randMatch(rng).without(FPort))
		case 1:
			d := randMods(rng)
			if _, hasPort := d.GetPort(); hasPort {
				return Drop{}
			}
			return ModPolicy(d)
		default:
			return Drop{}
		}
	}
	a := randPrintablePolicy(rng, depth-1)
	b := randPrintablePolicy(rng, depth-1)
	if rng.Intn(2) == 0 {
		return Par(a, b)
	}
	return SeqOf(a, b)
}

// fuzzSymbols binds each name the paper examples forward to, and the
// decimal port its forward renders as, to a plain forward: the rendering of
// any policy parsed with them names only symbols they bind.
func fuzzSymbols() map[string]Policy {
	syms := make(map[string]Policy)
	for name, port := range map[string]uint16{"B": 100, "C": 101, "B1": 0x8002, "B2": 0x8003, "I1": 0x8004, "I2": 0x8005} {
		syms[name] = Fwd(port)
		syms[strconv.Itoa(int(port))] = Fwd(port)
	}
	return syms
}

// FuzzParse checks that String renders every policy Parse accepts in
// Parse's own syntax (Parse → String → Parse → String is a fixpoint), and
// that no srcip/dstip match or mod Parse accepts is anything but IPv4.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`(match(dstport=80) >> fwd(B)) + (match(dstport=443) >> fwd(C))`,
		`(match(srcip=0.0.0.0/1) >> fwd(B1)) + (match(srcip=128.0.0.0/1) >> fwd(B2))`,
		`match(dstip=74.125.1.1) >> ((match(srcip=96.25.160.0/24) >> mod(dstip=74.125.224.161)) + (match(srcip=128.125.163.0/24) >> mod(dstip=74.125.137.139)))`,
		`if(match(srcip=204.57.0.67), fwd(I2), fwd(I1))`,
		`if(match(dstport=80) + match(dstport=8080), fwd(B), drop)`,
		`if(match(dstport=80) >> match(proto=6), fwd(B), drop)`,
		`match(srcmac=02:00:00:00:00:01, ethtype=0x0800, proto=17, srcport=53) >> fwd(B)`,
		`mod(srcip=9.9.9.9, srcport=1234, dstmac=02:0b:00:00:00:01)`,
		`match() >> fwd(B)`,
		`match(dstip=2001:db8::/32) >> fwd(B)`,
	} {
		f.Add(seed)
	}
	syms := fuzzSymbols()
	f.Fuzz(func(t *testing.T, src string) {
		pol, err := Parse(src, syms)
		if err != nil {
			return
		}
		checkIPv4(t, pol)
		first := pol.String()
		again, err := Parse(first, syms)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", src, first, err)
		}
		if second := again.String(); second != first {
			t.Fatalf("Parse(%q) renders as %q, which re-renders as %q", src, first, second)
		}
	})
}

// checkIPv4 fails t if any srcip/dstip match or mod in pol is not IPv4.
func checkIPv4(t *testing.T, pol Policy) {
	t.Helper()
	checkMatch := func(m Match) {
		for _, get := range []func() (netip.Prefix, bool){m.GetSrcIP, m.GetDstIP} {
			if p, ok := get(); ok && !p.Addr().Is4() {
				t.Fatalf("%s: match on non-IPv4 prefix %s", pol, p)
			}
		}
	}
	var checkPred func(Predicate)
	checkPred = func(p Predicate) {
		switch v := p.(type) {
		case *MatchPred:
			checkMatch(v.Match)
		case *OrPred:
			for _, c := range v.Children {
				checkPred(c)
			}
		case *AndPred:
			for _, c := range v.Children {
				checkPred(c)
			}
		case *NotPred:
			checkPred(v.Child)
		}
	}
	switch v := pol.(type) {
	case *Test:
		checkMatch(v.Match)
	case *Mod:
		for _, get := range []func() (netip.Addr, bool){v.Mods.GetSrcIP, v.Mods.GetDstIP} {
			if a, ok := get(); ok && !a.Is4() {
				t.Fatalf("%s: rewrite to non-IPv4 address %s", pol, a)
			}
		}
	case *Union:
		for _, c := range v.Children {
			checkIPv4(t, c)
		}
	case *Seq:
		for _, c := range v.Children {
			checkIPv4(t, c)
		}
	case *If:
		checkPred(v.Pred)
		checkIPv4(t, v.Then)
		checkIPv4(t, v.Else)
	}
}
