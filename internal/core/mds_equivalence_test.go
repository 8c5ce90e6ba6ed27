package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"sdx/internal/bgp"
	"sdx/internal/netutil"
	"sdx/internal/policy"
	"sdx/internal/routeserver"
)

// mdsExchange builds one controller over a fresh route server with n
// participants, each forwarding to two neighbours, so every participant
// contributes reach sets to the MDS universe. Two calls with the same n
// produce identically configured controllers.
func mdsExchange(t *testing.T, n int) *Controller {
	t.Helper()
	rs := routeserver.New(nil)
	c := NewController(rs, DefaultOptions())
	pid := func(i int) ID { return ID(fmt.Sprintf("P%d", i%n)) }
	for i := 0; i < n; i++ {
		err := c.AddParticipant(Participant{
			ID: pid(i), AS: 65000 + uint32(i),
			Ports: []Port{{
				Number:   uint16(i + 1),
				MAC:      netutil.MAC{0x02, 0x50, 0x00, 0x00, 0x00, byte(i + 1)},
				RouterIP: netip.AddrFrom4([4]byte{172, 31, 1, byte(i + 1)}),
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		out := policy.Par(
			policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(80)), c.FwdTo(pid(i+1))),
			policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(443)), c.FwdTo(pid(i+3))),
		)
		if err := c.SetPolicies(pid(i), nil, out); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// mdsRoute is member mi's route for prefix. variant varies the AS-path
// length (and a tail ASN), so re-advertising with a new variant genuinely
// changes the decision process and can flip best/second-best advertisers.
func mdsRoute(mi int, prefix netip.Prefix, variant int) bgp.Route {
	as := 65000 + uint32(mi)
	ip := netip.AddrFrom4([4]byte{172, 31, 1, byte(mi + 1)})
	asns := make([]uint32, 1+variant%4)
	asns[0] = as
	for k := 1; k < len(asns); k++ {
		asns[k] = 40000 + uint32(variant*31+k)
	}
	return bgp.Route{
		Prefix: prefix,
		Attrs: bgp.Intern(bgp.PathAttrs{
			NextHop: ip,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		}),
		PeerAS: as,
		PeerID: ip,
	}
}

// TestIncrementalFECEquivalence drives two identically configured
// controllers through the same randomized churn. One compiles normally
// (incremental after the first pass); the other has its MDS cache
// force-invalidated before every compile, so each of its passes is a
// from-scratch rebuild. The §4.2 determinism invariant requires the two to
// produce byte-identical equivalence classes — same prefix grouping, same
// IDs, same VNH/VMAC assignments, same best-two advertisers — every round.
// Two policy changes ride along: one that keeps the reach keys (the pass
// after it stays incremental) and one that alters them (a full rebuild).
func TestIncrementalFECEquivalence(t *testing.T) {
	const (
		nParts    = 8
		nPrefixes = 80
		rounds    = 8
		perRound  = 40
	)
	inc := mdsExchange(t, nParts)
	full := mdsExchange(t, nParts)
	prefixes := make([]netip.Prefix, nPrefixes)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(
			netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)
	}
	pid := func(i int) ID { return ID(fmt.Sprintf("P%d", i)) }

	// advertised tracks, per prefix, which members currently announce it,
	// so withdraws target live routes.
	advertised := make([]map[int]bool, nPrefixes)
	for i := range advertised {
		advertised[i] = make(map[int]bool)
	}
	both := func(f func(rs *routeserver.Server) error) {
		t.Helper()
		for _, c := range []*Controller{inc, full} {
			if err := f(c.RouteServer()); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Initial table: each prefix announced by 1-3 members.
	rng := rand.New(rand.NewSource(99))
	for i, p := range prefixes {
		for k, n := 0, 1+rng.Intn(3); k < n; k++ {
			mi := rng.Intn(nParts)
			r := mdsRoute(mi, p, rng.Intn(8))
			both(func(rs *routeserver.Server) error {
				_, err := rs.Advertise(pid(mi), r)
				return err
			})
			advertised[i][mi] = true
		}
	}

	for round := 0; round < rounds; round++ {
		for e := 0; e < perRound; e++ {
			i := rng.Intn(nPrefixes)
			mi := rng.Intn(nParts)
			if rng.Intn(5) == 0 && advertised[i][mi] && len(advertised[i]) > 1 {
				both(func(rs *routeserver.Server) error {
					_, err := rs.Withdraw(pid(mi), prefixes[i])
					return err
				})
				delete(advertised[i], mi)
			} else {
				r := mdsRoute(mi, prefixes[i], rng.Intn(8))
				both(func(rs *routeserver.Server) error {
					_, err := rs.Advertise(pid(mi), r)
					return err
				})
				advertised[i][mi] = true
			}
		}
		// A policy change that keeps the reach keys (P2 still forwards to
		// P3 and P5, on a different port) leaves the cached state valid.
		if round == 3 {
			for _, c := range []*Controller{inc, full} {
				out := policy.Par(
					policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(80)), c.FwdTo(pid(3))),
					policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(8080)), c.FwdTo(pid(5))),
				)
				if err := c.SetPolicies(pid(2), nil, out); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A policy change that alters the reach keys must knock both back
		// to a full rebuild without breaking equivalence.
		if round == 5 {
			for _, c := range []*Controller{inc, full} {
				out := policy.Par(
					policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(80)), c.FwdTo(pid(1))),
					policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(22)), c.FwdTo(pid(4))),
				)
				if err := c.SetPolicies(pid(0), nil, out); err != nil {
					t.Fatal(err)
				}
			}
		}

		full.mds.invalidate()
		fres, err := full.Compile()
		if err != nil {
			t.Fatalf("round %d: full compile: %v", round, err)
		}
		ires, err := inc.Compile()
		if err != nil {
			t.Fatalf("round %d: incremental compile: %v", round, err)
		}

		if fres.Stats.Incremental {
			t.Fatalf("round %d: invalidated controller reported an incremental pass", round)
		}
		switch {
		case round == 0 || round == 5:
			// First pass ever, and the pass right after the key-changing
			// policy change: the incremental controller must detect it
			// cannot patch.
			if ires.Stats.Incremental {
				t.Fatalf("round %d: expected a full rebuild, got incremental", round)
			}
		default:
			if !ires.Stats.Incremental {
				t.Fatalf("round %d: steady-state pass did not run incrementally", round)
			}
			if ires.Stats.ResignedPrefixes > perRound {
				t.Fatalf("round %d: incremental pass re-signed %d prefixes, touched at most %d",
					round, ires.Stats.ResignedPrefixes, perRound)
			}
		}

		if ires.Stats.PrefixGroups != fres.Stats.PrefixGroups {
			t.Fatalf("round %d: %d groups incremental vs %d full",
				round, ires.Stats.PrefixGroups, fres.Stats.PrefixGroups)
		}
		if !reflect.DeepEqual(ires.FECs, fres.FECs) {
			for i := range ires.FECs {
				if i < len(fres.FECs) && !reflect.DeepEqual(ires.FECs[i], fres.FECs[i]) {
					t.Errorf("round %d: FEC[%d] diverged:\n incremental %+v\n full        %+v",
						round, i, ires.FECs[i], fres.FECs[i])
				}
			}
			t.Fatalf("round %d: FEC tables diverged (%d incremental vs %d full)",
				round, len(ires.FECs), len(fres.FECs))
		}
		if len(ires.Rules) != len(fres.Rules) {
			t.Fatalf("round %d: %d rules incremental vs %d full",
				round, len(ires.Rules), len(fres.Rules))
		}
	}
}

// TestInternedSignaturesBounded pins the interned-signature map to the live
// classes. Re-advertisements keep moving prefixes between signatures, and a
// policy change that keeps the reach keys does not rebuild the state, so
// without a bound the map would keep every signature ever rendered.
func TestInternedSignaturesBounded(t *testing.T) {
	const (
		nParts    = 8
		nPrefixes = 200
		rounds    = 30
		perRound  = 20
	)
	c := mdsExchange(t, nParts)
	pid := func(i int) ID { return ID(fmt.Sprintf("P%d", i)) }
	rs := c.RouteServer()
	rng := rand.New(rand.NewSource(7))
	prefix := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
	}
	for i := 0; i < nPrefixes; i++ {
		for k := 0; k < 2; k++ {
			mi := rng.Intn(nParts)
			if _, err := rs.Advertise(pid(mi), mdsRoute(mi, prefix(i), rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
		}
	}
	rendered := make(map[string]bool)
	for round := 0; round < rounds; round++ {
		for e := 0; e < perRound; e++ {
			mi := rng.Intn(nParts)
			if _, err := rs.Advertise(pid(mi), mdsRoute(mi, prefix(rng.Intn(nPrefixes)), rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
		}
		if round == rounds/2 {
			out := policy.Par(
				policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(22)), c.FwdTo(pid(1))),
				policy.SeqOf(policy.MatchPolicy(policy.MatchAll.DstPort(443)), c.FwdTo(pid(3))),
			)
			if err := c.SetPolicies(pid(0), nil, out); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if round > 0 && !res.Stats.Incremental {
			t.Fatalf("round %d: rebuilt from scratch; the bound is only tested on incremental passes", round)
		}
		for key := range c.mds.sigs {
			rendered[key] = true
		}
		if len(c.mds.sigs) != res.Stats.PrefixGroups {
			t.Fatalf("round %d: %d interned signatures for %d classes",
				round, len(c.mds.sigs), res.Stats.PrefixGroups)
		}
	}
	if len(rendered) <= len(c.mds.sigs) {
		t.Fatalf("churn retired no signature (%d rendered, %d live); the test proves nothing",
			len(rendered), len(c.mds.sigs))
	}
	t.Logf("%d signatures rendered over %d rounds, %d live", len(rendered), rounds, len(c.mds.sigs))
}
