package routeserver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"sdx/internal/bgp"
)

// TestTouchedPrefixesProperty pins the one contract the apply path offers
// downstream: the prefixes a mutation returns cover every prefix where any
// receiver's BestFor answer moved. With receiver-independent decisions (no
// export filter, no VRFs) the returned set is exactly that; an unchanged
// re-advertisement and a withdrawal of an absent route return nothing in
// every configuration.
//
// After every operation each receiver's view is also checked against a
// brute-force reference: bgp.SelectBest over the candidates the test itself
// deems visible (not the receiver's own, same VRF, allowed by the export
// filter), read back through AdvertisedRoute. BestFor, BestNextHopParticipant,
// Exports and ReachableVia must all agree with it, including across mid-run
// SetRouteExportPolicy and SetVRF calls, which change visibility without
// touching a single candidate.
func TestTouchedPrefixesProperty(t *testing.T) {
	for _, cfg := range []struct {
		name         string
		filter, vrfs bool
	}{
		{"plain", false, false},
		{"export-filter", true, false},
		{"vrfs", false, true},
		{"export-filter+vrfs", true, true},
	} {
		t.Run(cfg.name, func(t *testing.T) { runTouchedProperty(t, cfg.filter, cfg.vrfs) })
	}
}

func runTouchedProperty(t *testing.T, filter, vrfs bool) {
	const (
		nParts    = 5
		nPrefixes = 24
		nOps      = 500
	)
	rng := rand.New(rand.NewSource(13))
	ids := make([]ID, nParts)
	asOf := make(map[ID]uint32, nParts)
	for i := range ids {
		ids[i] = ID(fmt.Sprintf("P%d", i))
		asOf[ids[i]] = uint32(65001 + i)
	}
	prefixes := make([]netip.Prefix, nPrefixes)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
	}

	filters := []RouteExportFilter{
		// An arbitrary but fixed third of (advertiser, receiver, prefix)
		// triples is hidden.
		func(adv, recv ID, _ uint32, r bgp.Route) bool {
			return (int(adv[1])+2*int(recv[1])+int(r.Prefix.Addr().As4()[1]))%3 != 0
		},
		// Attribute-dependent: long paths are hidden from odd-AS receivers,
		// so a re-advertisement alone can move visibility.
		func(_, _ ID, recvAS uint32, r bgp.Route) bool {
			return recvAS%2 == 0 || len(r.Attrs.ASPath[0].ASNs) < 3
		},
	}
	var cur RouteExportFilter
	if filter {
		cur = filters[0]
	}
	s := New(cur)
	vrfOf := make(map[ID]VRF, nParts)
	for _, id := range ids {
		if err := s.AddParticipant(id, asOf[id]); err != nil {
			t.Fatal(err)
		}
	}
	setVRF := func(id ID, vrf VRF) {
		if err := s.SetVRF(id, vrf); err != nil {
			t.Fatal(err)
		}
		vrfOf[id] = vrf
	}
	if vrfs {
		for _, id := range ids[3:] {
			setVRF(id, "tenant")
		}
	}
	// Distinct PeerIDs keep every participant's routes distinguishable, so
	// a moved decision is always a visible BestFor change.
	randRoute := func(pi int, p netip.Prefix) bgp.Route {
		asns := make([]uint32, 1+rng.Intn(3))
		for i := range asns {
			asns[i] = uint32(65001 + pi)
		}
		return bgp.Route{
			Prefix: p,
			Attrs: bgp.Intern(bgp.PathAttrs{
				NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(pi + 1)}),
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
			}),
			PeerAS: uint32(65001 + pi),
			PeerID: netip.AddrFrom4([4]byte{172, 31, 0, byte(pi + 1)}),
		}
	}
	visible := func(adv, recv ID, r bgp.Route) bool {
		return adv != recv && vrfOf[adv] == vrfOf[recv] &&
			(cur == nil || cur(adv, recv, asOf[recv], r))
	}

	type answer struct {
		route bgp.Route
		ok    bool
	}
	// snapshot reads every receiver's BestFor answers, checking each
	// (receiver, prefix) against the reference on the way.
	snapshot := func(when string) map[ID]map[netip.Prefix]answer {
		t.Helper()
		out := make(map[ID]map[netip.Prefix]answer, nParts)
		for _, id := range ids {
			m := make(map[netip.Prefix]answer, nPrefixes)
			reach := make(map[ID]int, nParts)
			for _, p := range prefixes {
				var cands []bgp.Route
				var advs []ID
				for _, adv := range ids {
					r, had := s.AdvertisedRoute(adv, p)
					vis := had && visible(adv, id, r)
					if got := s.Exports(adv, id, p); got != vis {
						t.Fatalf("%s: Exports(%s, %s, %v) = %v, reference %v", when, adv, id, p, got, vis)
					}
					if vis {
						cands = append(cands, r)
						advs = append(advs, adv)
						reach[adv]++
					}
				}
				want, wantOK := bgp.SelectBest(cands)
				var wantAdv ID
				for i, c := range cands {
					if wantOK && routeEq(c, want) {
						wantAdv = advs[i]
					}
				}
				r, ok := s.BestFor(id, p)
				if ok != wantOK || (ok && !routeEq(r, want)) {
					t.Fatalf("%s: BestFor(%s, %v) = %v, %v; reference %v, %v", when, id, p, r, ok, want, wantOK)
				}
				if adv, ok := s.BestNextHopParticipant(id, p); ok != wantOK || adv != wantAdv {
					t.Fatalf("%s: BestNextHopParticipant(%s, %v) = %q, %v; reference %q, %v", when, id, p, adv, ok, wantAdv, wantOK)
				}
				m[p] = answer{r, ok}
			}
			for _, hop := range ids {
				set := s.ReachableVia(id, hop)
				if set.Len() != reach[hop] {
					t.Fatalf("%s: ReachableVia(%s, %s) holds %d prefixes, reference %d", when, id, hop, set.Len(), reach[hop])
				}
				for _, p := range prefixes {
					if set.Contains(p) != s.Exports(hop, id, p) {
						t.Fatalf("%s: ReachableVia(%s, %s) and Exports disagree on %v", when, id, hop, p)
					}
				}
			}
			out[id] = m
		}
		return out
	}

	before := snapshot("start")
	for op := 0; op < nOps; op++ {
		pi := rng.Intn(nParts)
		id := ids[pi]
		p := prefixes[rng.Intn(nPrefixes)]
		var touched []netip.Prefix
		var err error
		wantNothing := false
		var desc string
		switch k := rng.Intn(12); {
		case k < 3:
			desc = "Advertise"
			touched, err = s.Advertise(id, randRoute(pi, p))
		case k < 5:
			desc = "Withdraw"
			_, had := s.AdvertisedRoute(id, p)
			wantNothing = !had
			touched, err = s.Withdraw(id, p)
		case k < 6:
			desc = "re-Advertise"
			cur, had := s.AdvertisedRoute(id, p)
			if !had {
				continue
			}
			wantNothing = true
			touched, err = s.Advertise(id, cur)
		case k < 9:
			desc = "ApplyUpdateTouched"
			var withdrawn []netip.Prefix
			var routes []bgp.Route
			for i := 0; i < 1+rng.Intn(6); i++ {
				q := prefixes[rng.Intn(nPrefixes)]
				if rng.Intn(3) == 0 {
					withdrawn = append(withdrawn, q)
				} else {
					routes = append(routes, randRoute(pi, q))
				}
			}
			touched, err = s.ApplyUpdateTouched(id, withdrawn, routes)
		case k < 10:
			desc = "FlushParticipant"
			touched = s.FlushParticipant(id)
		case k < 11:
			// Visibility moves without a candidate changing, so there is no
			// touched set to check: only the reference comparison.
			if !filter {
				continue
			}
			cur = filters[rng.Intn(len(filters))]
			s.SetRouteExportPolicy(cur)
			before = snapshot(fmt.Sprintf("op %d SetRouteExportPolicy", op))
			continue
		default:
			if !vrfs {
				continue
			}
			vrf := []VRF{"", "tenant", "other"}[rng.Intn(3)]
			setVRF(id, vrf)
			before = snapshot(fmt.Sprintf("op %d SetVRF(%s, %q)", op, id, vrf))
			continue
		}
		if err != nil {
			t.Fatalf("op %d %s(%s): %v", op, desc, id, err)
		}
		if wantNothing && len(touched) != 0 {
			t.Fatalf("op %d %s(%s, %v) is a no-op but touched %v", op, desc, id, p, touched)
		}

		after := snapshot(fmt.Sprintf("op %d %s(%s)", op, desc, id))
		moved := make(map[netip.Prefix]bool)
		for _, rid := range ids {
			for _, q := range prefixes {
				b, a := before[rid][q], after[rid][q]
				if b.ok != a.ok || (b.ok && !routeEq(b.route, a.route)) {
					moved[q] = true
				}
			}
		}
		reported := make(map[netip.Prefix]bool, len(touched))
		for _, q := range touched {
			if reported[q] {
				t.Fatalf("op %d %s(%s): %v reported twice in %v", op, desc, id, q, touched)
			}
			reported[q] = true
		}
		for q := range moved {
			if !reported[q] {
				t.Fatalf("op %d %s(%s): a receiver's best for %v moved but touched = %v", op, desc, id, q, touched)
			}
		}
		if !filter && !vrfs {
			for q := range reported {
				if !moved[q] {
					t.Fatalf("op %d %s(%s): %v touched but no receiver's best moved", op, desc, id, q)
				}
			}
		}
		before = after
	}
}
