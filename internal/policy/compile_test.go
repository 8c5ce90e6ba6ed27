package policy

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
)

// randMatch draws a match over a small field domain so that random matches
// collide, intersect, and nest often enough to exercise every code path.
func randMatch(rng *rand.Rand) Match {
	m := MatchAll
	if rng.Intn(2) == 0 {
		m = m.Port(uint16(rng.Intn(4)))
	}
	if rng.Intn(3) == 0 {
		m = m.DstPort([]uint16{80, 443, 22}[rng.Intn(3)])
	}
	if rng.Intn(3) == 0 {
		m = m.SrcPort([]uint16{1000, 2000}[rng.Intn(2)])
	}
	if rng.Intn(3) == 0 {
		ps := []netip.Prefix{p10, p10a, p20, low, high}
		m = m.DstIP(ps[rng.Intn(len(ps))])
	}
	if rng.Intn(4) == 0 {
		ps := []netip.Prefix{low, high, p10}
		m = m.SrcIP(ps[rng.Intn(len(ps))])
	}
	if rng.Intn(5) == 0 {
		m = m.Proto([]uint8{6, 17}[rng.Intn(2)])
	}
	return m
}

func randMods(rng *rand.Rand) Mods {
	d := Identity
	if rng.Intn(2) == 0 {
		d = d.SetPort(uint16(rng.Intn(4)))
	}
	if rng.Intn(3) == 0 {
		d = d.SetDstPort([]uint16{80, 443, 22}[rng.Intn(3)])
	}
	if rng.Intn(4) == 0 {
		d = d.SetDstIP(netip.AddrFrom4([4]byte{byte(10 + rng.Intn(2)*10), 0, 0, byte(rng.Intn(3))}))
	}
	if rng.Intn(5) == 0 {
		d = d.SetSrcIP(netip.AddrFrom4([4]byte{byte(rng.Intn(200)), 1, 1, 1}))
	}
	return d
}

func randPacket(rng *rand.Rand) Packet {
	dsts := []string{"10.0.0.1", "10.1.2.3", "20.5.5.5", "200.1.1.1", "74.125.1.1"}
	srcs := []string{"8.8.8.8", "200.9.9.9", "10.1.0.9", "96.25.160.4"}
	return Packet{
		Port:    uint16(rng.Intn(4)),
		EthType: 0x0800,
		SrcIP:   netip.MustParseAddr(srcs[rng.Intn(len(srcs))]),
		DstIP:   netip.MustParseAddr(dsts[rng.Intn(len(dsts))]),
		Proto:   []uint8{6, 17}[rng.Intn(2)],
		SrcPort: []uint16{1000, 2000, 3000}[rng.Intn(3)],
		DstPort: []uint16{80, 443, 22}[rng.Intn(3)],
	}
}

// randPolicy builds a random policy AST of bounded depth.
func randPolicy(rng *rand.Rand, depth int) Policy {
	if depth == 0 {
		switch rng.Intn(4) {
		case 0:
			return MatchPolicy(randMatch(rng))
		case 1:
			return ModPolicy(randMods(rng))
		case 2:
			return Fwd(uint16(rng.Intn(4)))
		default:
			return Drop{}
		}
	}
	switch rng.Intn(5) {
	case 0:
		n := rng.Intn(3) + 1
		ps := make([]Policy, n)
		for i := range ps {
			ps[i] = randPolicy(rng, depth-1)
		}
		return Par(ps...)
	case 1:
		n := rng.Intn(3) + 1
		ps := make([]Policy, n)
		for i := range ps {
			ps[i] = randPolicy(rng, depth-1)
		}
		return SeqOf(ps...)
	case 2:
		return IfThenElse(randPred(rng, depth-1),
			randPolicy(rng, depth-1), randPolicy(rng, depth-1))
	default:
		return randPolicy(rng, 0)
	}
}

func randPred(rng *rand.Rand, depth int) Predicate {
	if depth == 0 {
		return &MatchPred{Match: randMatch(rng)}
	}
	switch rng.Intn(4) {
	case 0:
		return AnyOf(randPred(rng, depth-1), randPred(rng, depth-1))
	case 1:
		return AllOf(randPred(rng, depth-1), randPred(rng, depth-1))
	case 2:
		return Not(randPred(rng, depth-1))
	default:
		return randPred(rng, 0)
	}
}

func packetsEqual(a, b []Packet) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(p Packet) string {
		return p.SrcIP.String() + "|" + p.DstIP.String() + "|" +
			string(rune(p.Port)) + string(rune(p.SrcPort)) + string(rune(p.DstPort)) +
			string(rune(p.Proto))
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i], bs[i] = key(a[i]), key(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// The central compiler-correctness property: for random policies and random
// packets, the compiled classifier and the denotational semantics agree.
func TestCompileAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 400; trial++ {
		pol := randPolicy(rng, 3)
		cl := Compile(pol)
		for probe := 0; probe < 40; probe++ {
			pkt := randPacket(rng)
			want := pol.Eval(pkt)
			got := cl.Eval(pkt)
			if !packetsEqual(got, want) {
				t.Fatalf("trial %d: policy %s\npacket %+v\ncompiled -> %+v\neval -> %+v\nclassifier:\n%s",
					trial, pol, pkt, got, want, cl)
			}
		}
	}
}

// Disabling the disjoint-concat optimization must not change semantics.
func TestDisjointOptimizationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 100; trial++ {
		pol := randPolicy(rng, 3)
		fast := Compile(pol)
		slow, _ := CompileWithOptions(pol, CompileOptions{NoDisjoint: true, NoMemo: true})
		for probe := 0; probe < 40; probe++ {
			pkt := randPacket(rng)
			if !packetsEqual(fast.Eval(pkt), slow.Eval(pkt)) {
				t.Fatalf("trial %d: optimization changed semantics\npolicy %s\npkt %+v",
					trial, pol, pkt)
			}
		}
	}
}

// Compiled classifiers are complete: the last rule matches everything.
func TestCompiledClassifiersComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 200; trial++ {
		pol := randPolicy(rng, 3)
		cl := Compile(pol)
		if cl.Len() == 0 {
			t.Fatalf("empty classifier for %s", pol)
		}
		last := cl.Rules[cl.Len()-1]
		if !last.Match.IsAll() {
			// Completeness may be provided by several rules that jointly
			// cover; verify the weaker property that every probe matches
			// some rule.
			for probe := 0; probe < 60; probe++ {
				pkt := randPacket(rng)
				matched := false
				for _, r := range cl.Rules {
					if r.Match.Covers(pkt) {
						matched = true
						break
					}
				}
				if !matched {
					t.Fatalf("classifier not complete for %s; packet %+v unmatched", pol, pkt)
				}
			}
		}
	}
}

func TestMemoizationHits(t *testing.T) {
	shared := SeqOf(MatchPolicy(MatchAll.DstPort(80)), Fwd(2))
	pol := Par(
		SeqOf(MatchPolicy(MatchAll.Port(1)), shared),
		SeqOf(MatchPolicy(MatchAll.Port(2)), shared),
		SeqOf(MatchPolicy(MatchAll.Port(3)), shared),
	)
	_, stats := CompileWithOptions(pol, CompileOptions{})
	if stats.MemoHits < 2 {
		t.Errorf("shared subtree should hit the memo table: stats=%+v", stats)
	}
	_, noMemo := CompileWithOptions(pol, CompileOptions{NoMemo: true})
	if noMemo.MemoHits != 0 {
		t.Errorf("NoMemo run recorded hits: %+v", noMemo)
	}
}

func TestDisjointConcatUsed(t *testing.T) {
	// Isolated policies differ on the port field, so the union should use
	// the cheap concatenation path.
	pol := Par(
		SeqOf(MatchPolicy(MatchAll.Port(1).DstPort(80)), Fwd(10)),
		SeqOf(MatchPolicy(MatchAll.Port(2).DstPort(443)), Fwd(11)),
	)
	_, stats := CompileWithOptions(pol, CompileOptions{})
	if stats.DisjointCat != 1 || stats.Parallel != 0 {
		t.Errorf("disjoint union should concatenate: %+v", stats)
	}

	// Overlapping policies must fall back to parallel composition.
	pol2 := Par(
		SeqOf(MatchPolicy(MatchAll.DstPort(80)), Fwd(10)),
		SeqOf(MatchPolicy(MatchAll.SrcIP(low)), Fwd(11)),
	)
	_, stats2 := CompileWithOptions(pol2, CompileOptions{})
	if stats2.Parallel == 0 {
		t.Errorf("overlapping union must use parallel composition: %+v", stats2)
	}
}

func TestClassifierStringAndCounts(t *testing.T) {
	pol := Par(
		SeqOf(MatchPolicy(MatchAll.DstPort(80)), Fwd(2)),
		SeqOf(MatchPolicy(MatchAll.DstPort(443)), Fwd(3)),
	)
	cl := Compile(pol)
	if cl.NonDropLen() >= cl.Len() {
		t.Errorf("expected at least one drop rule: NonDrop=%d Len=%d", cl.NonDropLen(), cl.Len())
	}
	if cl.String() == "" {
		t.Error("String should render rules")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Match: MatchAll.DstPort(80), Actions: []Mods{Identity.SetPort(2)}}
	if got := r.String(); got != "dstport=80 -> port:=2" {
		t.Errorf("Rule.String = %q", got)
	}
	d := Rule{Match: MatchAll}
	if got := d.String(); got != "* -> drop" {
		t.Errorf("drop Rule.String = %q", got)
	}
}
