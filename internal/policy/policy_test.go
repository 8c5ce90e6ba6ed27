package policy

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
)

var (
	p10  = netip.MustParsePrefix("10.0.0.0/8")
	p10a = netip.MustParsePrefix("10.1.0.0/16")
	p20  = netip.MustParsePrefix("20.0.0.0/8")
	low  = netip.MustParsePrefix("0.0.0.0/1")
	high = netip.MustParsePrefix("128.0.0.0/1")
)

func pktWith(port uint16, dstIP string, dstPort uint16) Packet {
	return Packet{
		Port:    port,
		EthType: 0x0800,
		SrcIP:   netip.MustParseAddr("1.2.3.4"),
		DstIP:   netip.MustParseAddr(dstIP),
		Proto:   6,
		SrcPort: 12345,
		DstPort: dstPort,
	}
}

func TestMatchCovers(t *testing.T) {
	m := MatchAll.Port(1).DstIP(p10).DstPort(80)
	if !m.Covers(pktWith(1, "10.9.9.9", 80)) {
		t.Error("should cover matching packet")
	}
	if m.Covers(pktWith(2, "10.9.9.9", 80)) {
		t.Error("wrong port should not match")
	}
	if m.Covers(pktWith(1, "11.0.0.1", 80)) {
		t.Error("IP outside prefix should not match")
	}
	if m.Covers(pktWith(1, "10.9.9.9", 443)) {
		t.Error("wrong dstport should not match")
	}
	if !MatchAll.Covers(pktWith(7, "99.99.99.99", 0)) {
		t.Error("MatchAll should cover everything")
	}
}

func TestMatchCoversNonIPPacket(t *testing.T) {
	m := MatchAll.DstIP(p10)
	arp := Packet{Port: 1, EthType: 0x0806} // no IPs set
	if m.Covers(arp) {
		t.Error("IP match must not cover a packet without IP headers")
	}
}

func TestMatchIntersect(t *testing.T) {
	a := MatchAll.Port(1).DstIP(p10)
	b := MatchAll.DstPort(80)
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("compatible matches should intersect")
	}
	want := MatchAll.Port(1).DstIP(p10).DstPort(80)
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}

	// Nested prefixes keep the narrower one, in both argument orders.
	c := MatchAll.DstIP(p10)
	d := MatchAll.DstIP(p10a)
	for _, pair := range [][2]Match{{c, d}, {d, c}} {
		got, ok := pair[0].Intersect(pair[1])
		if !ok || got != MatchAll.DstIP(p10a) {
			t.Errorf("prefix intersect %v ∩ %v = %v, %v", pair[0], pair[1], got, ok)
		}
	}

	// Disjoint values.
	if _, ok := MatchAll.Port(1).Intersect(MatchAll.Port(2)); ok {
		t.Error("different ports should not intersect")
	}
	if _, ok := MatchAll.DstIP(p10).Intersect(MatchAll.DstIP(p20)); ok {
		t.Error("disjoint prefixes should not intersect")
	}
}

func TestMatchSubsumes(t *testing.T) {
	wide := MatchAll.DstIP(p10)
	narrow := MatchAll.DstIP(p10a).DstPort(80)
	if !wide.Subsumes(narrow) {
		t.Error("wide should subsume narrow")
	}
	if narrow.Subsumes(wide) {
		t.Error("narrow should not subsume wide")
	}
	if !MatchAll.Subsumes(narrow) || !MatchAll.Subsumes(MatchAll) {
		t.Error("MatchAll subsumes everything")
	}
	if wide.Subsumes(MatchAll) {
		t.Error("constrained match cannot subsume MatchAll")
	}
}

func TestMatchIntersectCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b := randMatch(rng), randMatch(rng)
		x, okx := a.Intersect(b)
		y, oky := b.Intersect(a)
		if okx != oky {
			t.Fatalf("Intersect not commutative in ok: %v vs %v", a, b)
		}
		if okx {
			// The results must be semantically equal; verify on samples.
			for j := 0; j < 50; j++ {
				pkt := randPacket(rng)
				if x.Covers(pkt) != y.Covers(pkt) {
					t.Fatalf("a∩b and b∩a disagree on %+v: %v vs %v", pkt, x, y)
				}
			}
		}
	}
}

func TestMatchIntersectSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		a, b := randMatch(rng), randMatch(rng)
		x, ok := a.Intersect(b)
		for j := 0; j < 30; j++ {
			pkt := randPacket(rng)
			want := a.Covers(pkt) && b.Covers(pkt)
			got := ok && x.Covers(pkt)
			if got != want {
				t.Fatalf("intersect semantics: a=%v b=%v pkt=%+v got=%v want=%v",
					a, b, pkt, got, want)
			}
		}
	}
}

func TestModsApplyAndThen(t *testing.T) {
	pkt := pktWith(1, "10.0.0.1", 80)
	d := Identity.SetPort(5).SetDstIP(netip.MustParseAddr("74.125.1.1"))
	got := d.Apply(pkt)
	if got.Port != 5 || got.DstIP != netip.MustParseAddr("74.125.1.1") {
		t.Errorf("Apply = %+v", got)
	}
	if got.SrcIP != pkt.SrcIP || got.DstPort != 80 {
		t.Error("Apply must not touch other fields")
	}

	e := Identity.SetPort(9)
	combined := d.Then(e)
	if p, _ := combined.GetPort(); p != 9 {
		t.Errorf("Then should let e override port: %v", combined)
	}
	if ip, ok := combined.GetDstIP(); !ok || ip.Addr() != netip.MustParseAddr("74.125.1.1") {
		t.Errorf("Then should keep d's dstip: %v", combined)
	}
}

func TestModsThenMatchesSequentialApply(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		d, e := randMods(rng), randMods(rng)
		pkt := randPacket(rng)
		if d.Then(e).Apply(pkt) != e.Apply(d.Apply(pkt)) {
			t.Fatalf("Then law broken: d=%v e=%v", d, e)
		}
	}
}

// --- Paper examples -----------------------------------------------------

// Section 3.1: AS A's application-specific peering policy.
func TestPaperAppSpecificPeering(t *testing.T) {
	const portB, portC = 100, 101
	pol := Par(
		SeqOf(MatchPolicy(MatchAll.DstPort(80)), Fwd(portB)),
		SeqOf(MatchPolicy(MatchAll.DstPort(443)), Fwd(portC)),
	)
	cl := Compile(pol)

	web := cl.Eval(pktWith(1, "10.0.0.1", 80))
	if len(web) != 1 || web[0].Port != portB {
		t.Errorf("web traffic -> %+v, want port %d", web, portB)
	}
	tls := cl.Eval(pktWith(1, "10.0.0.1", 443))
	if len(tls) != 1 || tls[0].Port != portC {
		t.Errorf("https traffic -> %+v, want port %d", tls, portC)
	}
	other := cl.Eval(pktWith(1, "10.0.0.1", 22))
	if len(other) != 0 {
		t.Errorf("unmatched traffic should drop, got %+v", other)
	}
}

// Section 3.1: AS B's inbound traffic engineering.
func TestPaperInboundTE(t *testing.T) {
	const b1, b2 = 10, 11
	pol := Par(
		SeqOf(MatchPolicy(MatchAll.SrcIP(low)), Fwd(b1)),
		SeqOf(MatchPolicy(MatchAll.SrcIP(high)), Fwd(b2)),
	)
	cl := Compile(pol)

	pkt := pktWith(1, "10.0.0.1", 80)
	pkt.SrcIP = netip.MustParseAddr("8.8.8.8")
	if out := cl.Eval(pkt); len(out) != 1 || out[0].Port != b1 {
		t.Errorf("low-half source -> %+v, want port %d", out, b1)
	}
	pkt.SrcIP = netip.MustParseAddr("200.1.1.1")
	if out := cl.Eval(pkt); len(out) != 1 || out[0].Port != b2 {
		t.Errorf("high-half source -> %+v, want port %d", out, b2)
	}
}

// Section 3.1: the compiled outbound>>inbound composition from the paper,
// match(port=A1,dstport=80,srcip=0/1) >> fwd(B1) etc.
func TestPaperOutboundInboundComposition(t *testing.T) {
	const a1, vB, b1, b2 = 1, 100, 10, 11
	outbound := SeqOf(MatchPolicy(MatchAll.Port(a1).DstPort(80)), Fwd(vB))
	inbound := Par(
		SeqOf(MatchPolicy(MatchAll.Port(vB).SrcIP(low)), Fwd(b1)),
		SeqOf(MatchPolicy(MatchAll.Port(vB).SrcIP(high)), Fwd(b2)),
	)
	cl := Compile(SeqOf(outbound, inbound))

	pkt := pktWith(a1, "10.0.0.1", 80)
	pkt.SrcIP = netip.MustParseAddr("4.4.4.4")
	if out := cl.Eval(pkt); len(out) != 1 || out[0].Port != b1 {
		t.Errorf("composed policy -> %+v, want port %d", out, b1)
	}
	pkt.SrcIP = netip.MustParseAddr("192.0.2.1")
	if out := cl.Eval(pkt); len(out) != 1 || out[0].Port != b2 {
		t.Errorf("composed policy -> %+v, want port %d", out, b2)
	}
	// Non-web traffic does not pass the outbound stage.
	if out := cl.Eval(pktWith(a1, "10.0.0.1", 22)); len(out) != 0 {
		t.Errorf("non-web traffic should drop, got %+v", out)
	}
}

// Section 3.1: wide-area server load balancing with dstip rewriting.
func TestPaperLoadBalance(t *testing.T) {
	anycast := netip.MustParseAddr("74.125.1.1")
	r1 := netip.MustParseAddr("74.125.224.161")
	r2 := netip.MustParseAddr("74.125.137.139")
	c1 := netip.MustParsePrefix("96.25.160.0/24")
	c2 := netip.MustParsePrefix("128.125.163.0/24")

	pol := SeqOf(
		MatchPolicy(MatchAll.DstIP(netip.PrefixFrom(anycast, 32))),
		Par(
			SeqOf(MatchPolicy(MatchAll.SrcIP(c1)), ModPolicy(Identity.SetDstIP(r1))),
			SeqOf(MatchPolicy(MatchAll.SrcIP(c2)), ModPolicy(Identity.SetDstIP(r2))),
		),
	)
	cl := Compile(pol)

	pkt := pktWith(1, "74.125.1.1", 80)
	pkt.SrcIP = netip.MustParseAddr("96.25.160.7")
	if out := cl.Eval(pkt); len(out) != 1 || out[0].DstIP != r1 {
		t.Errorf("client 1 -> %+v, want dstip %v", out, r1)
	}
	pkt.SrcIP = netip.MustParseAddr("128.125.163.9")
	if out := cl.Eval(pkt); len(out) != 1 || out[0].DstIP != r2 {
		t.Errorf("client 2 -> %+v, want dstip %v", out, r2)
	}
	pkt.SrcIP = netip.MustParseAddr("203.0.113.5")
	if out := cl.Eval(pkt); len(out) != 0 {
		t.Errorf("unlisted client should drop, got %+v", out)
	}
}

func TestMulticastUnion(t *testing.T) {
	pol := Par(Fwd(2), Fwd(3))
	cl := Compile(pol)
	out := cl.Eval(pktWith(1, "10.0.0.1", 80))
	if len(out) != 2 {
		t.Fatalf("multicast should emit 2 packets, got %d", len(out))
	}
	ports := []int{int(out[0].Port), int(out[1].Port)}
	sort.Ints(ports)
	if ports[0] != 2 || ports[1] != 3 {
		t.Errorf("multicast ports = %v", ports)
	}
}

func TestIfThenElse(t *testing.T) {
	pred := &MatchPred{Match: MatchAll.DstPort(80)}
	pol := IfThenElse(pred, Fwd(2), Fwd(3))
	cl := Compile(pol)
	if out := cl.Eval(pktWith(1, "10.0.0.1", 80)); len(out) != 1 || out[0].Port != 2 {
		t.Errorf("then branch -> %+v", out)
	}
	if out := cl.Eval(pktWith(1, "10.0.0.1", 443)); len(out) != 1 || out[0].Port != 3 {
		t.Errorf("else branch -> %+v", out)
	}
}

func TestNotPred(t *testing.T) {
	pred := Not(&MatchPred{Match: MatchAll.DstPort(80)})
	pol := IfThenElse(pred, Fwd(2), Fwd(3))
	cl := Compile(pol)
	if out := cl.Eval(pktWith(1, "10.0.0.1", 80)); len(out) != 1 || out[0].Port != 3 {
		t.Errorf("negated then -> %+v", out)
	}
	if out := cl.Eval(pktWith(1, "10.0.0.1", 22)); len(out) != 1 || out[0].Port != 2 {
		t.Errorf("negated else -> %+v", out)
	}
	if got := Not(pred); got.String() != "match(dstport=80)" {
		t.Errorf("double negation should cancel: %s", got)
	}
}

func TestAndOrPreds(t *testing.T) {
	a := &MatchPred{Match: MatchAll.DstPort(80)}
	b := &MatchPred{Match: MatchAll.DstIP(p10)}
	and := AllOf(a, b)
	or := AnyOf(a, b)
	pkt80in10 := pktWith(1, "10.0.0.1", 80)
	pkt80out := pktWith(1, "20.0.0.1", 80)
	pkt22in10 := pktWith(1, "10.0.0.1", 22)
	pkt22out := pktWith(1, "20.0.0.1", 22)

	cases := []struct {
		pred       Predicate
		pkt        Packet
		want       bool
		wantEvalEq bool
	}{
		{and, pkt80in10, true, true}, {and, pkt80out, false, true},
		{and, pkt22in10, false, true}, {or, pkt80out, true, true},
		{or, pkt22in10, true, true}, {or, pkt22out, false, true},
	}
	for _, c := range cases {
		if got := c.pred.Matches(c.pkt); got != c.want {
			t.Errorf("%s.Matches(%+v) = %v, want %v", c.pred, c.pkt, got, c.want)
		}
		// The compiled form must agree with Matches.
		cl := Compile(IfThenElse(c.pred, Fwd(2), Drop{}))
		compiled := len(cl.Eval(c.pkt)) > 0
		if compiled != c.want {
			t.Errorf("compiled %s disagrees on %+v: %v", c.pred, c.pkt, compiled)
		}
	}
}

func TestSequencedMods(t *testing.T) {
	// Rewrite then match on the rewritten value: the match must see the
	// post-rewrite packet.
	pol := SeqOf(
		ModPolicy(Identity.SetDstPort(8080)),
		MatchPolicy(MatchAll.DstPort(8080)),
		Fwd(4),
	)
	cl := Compile(pol)
	if out := cl.Eval(pktWith(1, "10.0.0.1", 80)); len(out) != 1 || out[0].Port != 4 {
		t.Errorf("rewrite-then-match -> %+v", out)
	}

	// A rewrite that moves the packet OUT of the downstream match drops it.
	pol2 := SeqOf(
		ModPolicy(Identity.SetDstPort(9999)),
		MatchPolicy(MatchAll.DstPort(8080)),
		Fwd(4),
	)
	if out := Compile(pol2).Eval(pktWith(1, "10.0.0.1", 80)); len(out) != 0 {
		t.Errorf("rewrite outside match should drop, got %+v", out)
	}
}

func TestDropAndPass(t *testing.T) {
	if out := Compile(Drop{}).Eval(pktWith(1, "10.0.0.1", 80)); len(out) != 0 {
		t.Error("Drop should drop")
	}
	pkt := pktWith(1, "10.0.0.1", 80)
	if out := Compile(Pass{}).Eval(pkt); len(out) != 1 || out[0] != pkt {
		t.Error("Pass should pass unchanged")
	}
}

func TestParFlattening(t *testing.T) {
	p := Par(Fwd(1), Par(Fwd(2), Fwd(3)), Drop{})
	u, ok := p.(*Union)
	if !ok || len(u.Children) != 3 {
		t.Fatalf("Par should flatten to 3 children, got %T %v", p, p)
	}
	if got := Par(); got.String() != "drop" {
		t.Errorf("empty Par = %v, want drop", got)
	}
	if got := Par(Fwd(1)); got.String() != "fwd(1)" {
		t.Errorf("singleton Par = %v", got)
	}
}

func TestSeqFlattening(t *testing.T) {
	s := SeqOf(Fwd(1), SeqOf(MatchPolicy(MatchAll.Port(1)), Fwd(2)), Pass{})
	q, ok := s.(*Seq)
	if !ok || len(q.Children) != 3 {
		t.Fatalf("SeqOf should flatten to 3 children, got %T %v", s, s)
	}
	if got := SeqOf(); got.String() != "identity" {
		t.Errorf("empty SeqOf = %v", got)
	}
}
