package policy

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"sdx/internal/netutil"
)

var (
	mac1 = netutil.MAC{0xa2, 0, 0, 0, 0, 1}
	mac2 = netutil.MAC{0xa2, 0, 0, 0, 0, 2}
	mac3 = netutil.MAC{0xa2, 0, 0, 0, 0, 3}
)

// macPackets is every combination of the given ports and dst MACs (plus
// the zero MAC, which no rule names) with a few transport ports.
func macPackets(ports []uint16, macs []netutil.MAC) []Packet {
	var out []Packet
	for _, port := range ports {
		for _, mac := range append([]netutil.MAC{{}}, macs...) {
			for _, dport := range []uint16{80, 443, 22} {
				out = append(out, Packet{
					Port:    port,
					DstMAC:  mac,
					EthType: 0x0800,
					SrcIP:   netip.MustParseAddr("8.8.8.8"),
					DstIP:   netip.MustParseAddr("10.0.0.1"),
					Proto:   6,
					SrcPort: 1000,
					DstPort: dport,
				})
			}
		}
	}
	return out
}

// samePackets compares two emitted-packet sets on every field.
func samePackets(a, b []Packet) bool {
	count := make(map[Packet]int)
	for _, p := range a {
		count[p]++
	}
	for _, p := range b {
		count[p]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

// seqEval is a >> b evaluated rule by rule: every packet a emits goes
// through b, and the outputs are collected without duplicates.
func seqEval(a, b Classifier, pkt Packet) []Packet {
	var out []Packet
	seen := make(map[Packet]bool)
	for _, q := range a.Eval(pkt) {
		for _, r := range b.Eval(q) {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

func rule(m Match, acts ...Mods) Rule { return Rule{Match: m, Actions: acts} }

func fwdTo(port uint16) Mods { return Identity.SetPort(port) }

// Each case puts b's rules in a different set of index buckets, or moves
// the left rule's key by a rewrite. The indexed composition must equal the
// scan rule for rule and agree with evaluating a then b.
func TestSeqIndexMatchesScan(t *testing.T) {
	mixed := Classifier{Rules: []Rule{
		rule(MatchAll.DstPort(22)), // wildcard bucket, and a drop
		rule(MatchAll.Port(2).DstMAC(mac1), fwdTo(12)),
		rule(MatchAll.DstMAC(mac1), fwdTo(13)),
		rule(MatchAll.Port(2), fwdTo(14)),
		rule(MatchAll.DstPort(80), fwdTo(15)),
		rule(MatchAll.Port(3).DstMAC(mac2), fwdTo(16)),
		rule(MatchAll),
	}}
	cases := []struct {
		name string
		a, b Classifier
		scan bool // some left action leaves the port or the dst MAC unknown
	}{
		{
			name: "port only",
			a: Classifier{Rules: []Rule{
				rule(MatchAll.Port(1).DstMAC(mac1), Identity),
				rule(MatchAll.Port(2).DstMAC(mac2), fwdTo(1)),
				rule(MatchAll),
			}},
			b: Classifier{Rules: []Rule{
				rule(MatchAll.Port(1).DstPort(80), fwdTo(11)),
				rule(MatchAll.Port(2), fwdTo(12)),
				rule(MatchAll.Port(1), fwdTo(13)),
				rule(MatchAll),
			}},
		},
		{
			name: "MAC only",
			a: Classifier{Rules: []Rule{
				rule(MatchAll.Port(1).DstMAC(mac1), fwdTo(2)),
				rule(MatchAll.Port(1).DstMAC(mac2), fwdTo(3)),
				rule(MatchAll),
			}},
			b: Classifier{Rules: []Rule{
				rule(MatchAll.DstMAC(mac1).DstPort(80), fwdTo(11)),
				rule(MatchAll.DstMAC(mac2), fwdTo(12)),
				rule(MatchAll.DstMAC(mac1), fwdTo(13)),
				rule(MatchAll),
			}},
		},
		{
			name: "wildcard only",
			a: Classifier{Rules: []Rule{
				rule(MatchAll.Port(1).DstMAC(mac1), fwdTo(2)),
				rule(MatchAll),
			}},
			b: Classifier{Rules: []Rule{
				rule(MatchAll.DstPort(80), fwdTo(11)),
				rule(MatchAll.DstPort(443)),
				rule(MatchAll, fwdTo(12)),
			}},
		},
		{
			name: "rewrite moves the port",
			a: Classifier{Rules: []Rule{
				rule(MatchAll.Port(1).DstMAC(mac1), fwdTo(2)),
				rule(MatchAll.Port(2).DstMAC(mac1), fwdTo(1)),
				rule(MatchAll),
			}},
			b: mixed,
		},
		{
			name: "rewrite sets the dst MAC",
			a: Classifier{Rules: []Rule{
				rule(MatchAll.Port(3), Identity.SetDstMAC(mac2)),
				rule(MatchAll.Port(2).DstMAC(mac2), Identity.SetDstMAC(mac1)),
				rule(MatchAll),
			}},
			b: mixed,
		},
		{
			name: "multicast",
			a: Classifier{Rules: []Rule{
				rule(MatchAll.Port(1).DstMAC(mac1), fwdTo(2), fwdTo(3)),
				rule(MatchAll.Port(1).DstMAC(mac2), fwdTo(3), fwdTo(2).SetDstMAC(mac1)),
				rule(MatchAll),
			}},
			b: mixed,
		},
		{
			name: "drop",
			a: Classifier{Rules: []Rule{
				rule(MatchAll.Port(2).DstMAC(mac1).DstPort(80)),
				rule(MatchAll.Port(2).DstMAC(mac1), Identity),
				rule(MatchAll),
			}},
			b: mixed,
		},
		{
			name: "unknown key scans",
			a: Classifier{Rules: []Rule{
				rule(MatchAll.Port(2), Identity),
				rule(MatchAll.DstMAC(mac1), Identity),
				rule(MatchAll, fwdTo(3)),
			}},
			b:    mixed,
			scan: true,
		},
	}
	ports := []uint16{0, 1, 2, 3}
	macs := []netutil.MAC{mac1, mac2, mac3}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx := newSeqIndex(tc.b)
			scanned := false
			for _, ra := range tc.a.Rules {
				for _, act := range ra.Actions {
					cand, ok := idx.lookup(nil, ra.Match, act)
					if !ok {
						scanned = true
						continue
					}
					for i := 1; i < len(cand); i++ {
						if cand[i] <= cand[i-1] {
							t.Fatalf("candidates %v are not in ascending rule order", cand)
						}
					}
				}
			}
			if scanned != tc.scan {
				t.Fatalf("some lookup scanned = %v, want %v", scanned, tc.scan)
			}
			got := seqComposeWith(tc.a, tc.b, idx)
			want := seqComposeWith(tc.a, tc.b, nil)
			if !reflect.DeepEqual(got.Rules, want.Rules) {
				t.Fatalf("indexed:\n%sscan:\n%s", got, want)
			}
			for _, pkt := range macPackets(ports, macs) {
				if out, sem := got.Eval(pkt), seqEval(tc.a, tc.b, pkt); !samePackets(out, sem) {
					t.Fatalf("packet %+v: composed %+v, a then b %+v\nclassifier:\n%s", pkt, out, sem, got)
				}
			}
		})
	}
}

// The SDX shape: participant i sends on port i+1, owns virtual port 1000+i
// and egress ports 2000+i and 3000+i. Each outbound policy steers a few VMAC classes
// from its own ports to other participants' virtual ports, falling back to
// a shared default per class; each inbound policy is guarded by its
// virtual port and delivers on an egress port with the router's MAC. With
// shared, some participants also send on one common port, so their outbound
// policies overlap and the outbound union composes pairwise.
func sdxShape(rng *rand.Rand, participants, classes int, shared bool) (outbound, inbound Policy) {
	vmac := func(k int) netutil.MAC { return netutil.MAC{0xa2, 0, 0, 0, byte(k >> 8), byte(k)} }
	var outs, defaults, ins []Policy
	for k := 0; k < classes; k++ {
		defaults = append(defaults, fwdOn(MatchAll.DstMAC(vmac(k)), uint16(1000+rng.Intn(participants))))
	}
	for i := 0; i < participants; i++ {
		vport, egress := uint16(1000+i), uint16(2000+i)
		if rng.Intn(3) > 0 {
			portTests := []Policy{MatchPolicy(MatchAll.Port(uint16(i + 1)))}
			if shared && rng.Intn(4) == 0 {
				portTests = append(portTests, MatchPolicy(MatchAll.Port(uint16(participants+1))))
			}
			var clauses []Policy
			for _, k := range rng.Perm(classes)[:1+rng.Intn(4)] {
				to := uint16(1000 + rng.Intn(participants))
				var act Policy = Fwd(to)
				if rng.Intn(5) == 0 {
					act = MulticastTo(to, uint16(1000+rng.Intn(participants)))
				}
				var guard Policy = MatchPolicy(MatchAll.DstMAC(vmac(k)))
				if rng.Intn(2) == 0 {
					guard = MatchPolicy(MatchAll.DstMAC(vmac(k)).DstPort([]uint16{80, 443}[rng.Intn(2)]))
				}
				clauses = append(clauses, SeqOf(guard, act))
			}
			outs = append(outs, SeqOf(Par(portTests...), Par(clauses...)))
		}
		routerMAC := netutil.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)}
		deliver := ModPolicy(Identity.SetDstMAC(routerMAC).SetPort(egress))
		var in Policy = deliver
		if rng.Intn(2) == 0 {
			in = WithDefault(fwdOn(MatchAll.DstPort(80), egress+1000), deliver)
		}
		ins = append(ins, SeqOf(MatchPolicy(MatchAll.Port(vport)), in))
		ins = append(ins, MatchPolicy(MatchAll.Port(egress)))
	}
	return WithDefault(Par(outs...), Par(defaults...)), Par(ins...)
}

// Random SDX-shaped outbound >> inbound compositions: the indexed and the
// scanning composition produce the same rule list, and the compiled policy
// agrees with Eval and with the compile that skips disjoint unions.
func TestSeqIndexSDXShape(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	aboveThreshold := 0
	for trial := 0; trial < 20; trial++ {
		n, classes := 16+rng.Intn(16), 8+rng.Intn(8)
		out, in := sdxShape(rng, n, classes, true)
		a, b := Compile(out), Compile(in)
		if len(a.Rules)*len(b.Rules) >= seqIndexMin {
			aboveThreshold++
		}
		indexed := seqComposeWith(a, b, newSeqIndex(b))
		if scan := seqComposeWith(a, b, nil); !reflect.DeepEqual(indexed.Rules, scan.Rules) {
			t.Fatalf("trial %d: indexed and scanning compositions differ\nindexed:\n%sscan:\n%s", trial, indexed, scan)
		}

		pol := SeqOf(out, in)
		cl := Compile(pol)
		slow, _ := CompileWithOptions(pol, CompileOptions{NoDisjoint: true})
		var ports []uint16
		for i := 0; i <= n+1; i++ {
			ports = append(ports, uint16(i), uint16(1000+i), uint16(2000+i), uint16(3000+i))
		}
		var macs []netutil.MAC
		for k := 0; k <= classes; k++ {
			macs = append(macs, netutil.MAC{0xa2, 0, 0, 0, 0, byte(k)})
		}
		for _, pkt := range macPackets(ports, macs) {
			got, sem := cl.Eval(pkt), pol.Eval(pkt)
			if !samePackets(got, sem) {
				t.Fatalf("trial %d, packet %+v: compiled %+v, Eval %+v", trial, pkt, got, sem)
			}
			if ref := slow.Eval(pkt); !samePackets(got, ref) {
				t.Fatalf("trial %d, packet %+v: compiled %+v, NoDisjoint %+v", trial, pkt, got, ref)
			}
		}
	}
	if aboveThreshold == 0 {
		t.Fatalf("no trial reached seqIndexMin = %d: Compile never took the indexed path", seqIndexMin)
	}
}
